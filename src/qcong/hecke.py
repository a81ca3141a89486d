"""Hecke operators on truncated expansions, Sturm bounds, pole-clearing
weight bookkeeping, eigencheck certification mod ell^R, prime scans."""

from dataclasses import dataclass, field
from math import gcd

from .borcherds import PhiStar, TwistParams, phi_star
from .mocktheta import MockTables, required_depth
from .ntheory import factorize, is_prime, primes_up_to, splitting_type
from .series import Ring, Series


class SmallPrime(ValueError):
    """The pole-clearing lift needs ell >= 5."""


class InsufficientPrecision(ValueError):
    pass


def hecke_operator(g: Series, p: int, k: int) -> Series:
    """Weight-k Hecke action: coefficient n of g|T_p is a(pn) + p^(k-1) a(n/p)
    (second term only when p | n).  Output precision is floor(prec/p)."""
    if g.frac24:
        raise ValueError("Hecke operators act on integral exponent lattices")
    out_prec = g.prec // p
    if out_prec < 1:
        raise InsufficientPrecision(f"precision {g.prec} too small for T_{p}")
    m = g.ring.modulus
    pk1 = pow(p, k - 1, m) if m else p ** (k - 1)
    out = [0] * out_prec
    for n in range(out_prec):
        v = g.coeffs[p * n]
        if n % p == 0:
            v += pk1 * g.coeffs[n // p]
        out[n] = v % m if m else v
    return Series(g.ring, out)


def index_gamma0(N: int) -> int:
    """Index of the level-N congruence subgroup: N * prod_{p|N} (1 + 1/p)."""
    if N < 1:
        raise ValueError("level must be positive")
    result = N
    for p in factorize(N):
        result = result // p * (p + 1)
    return result


def sturm_bound(k: int, N: int) -> int:
    """floor(k * [SL2(Z) : Gamma0(N)] / 24): vanishing of all coefficients up
    to this index mod ell forces vanishing mod ell identically."""
    if k < 1:
        raise ValueError("weight must be positive")
    return k * index_gamma0(N) // 24


def hasse_weight(ell: int, B: int, R: int) -> int:
    """Weight 2 + (ell-1)*B*R of the holomorphic form obtained by clearing
    B simple poles with R-th powers of the lifted weight-(ell-1) form."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if ell < 5:
        raise SmallPrime("the weight-(ell-1) lift needs ell >= 5")
    return 2 + (ell - 1) * B * R


@dataclass
class CongruenceSetting:
    ell: int
    R: int
    B: int
    k: int = None

    def __post_init__(self):
        expected = hasse_weight(self.ell, self.B, self.R)
        if self.k is None:
            self.k = expected
        elif self.k != expected:
            raise ValueError(f"weight {self.k} != 2 + (ell-1)*B*R = {expected}")

    @property
    def modulus(self) -> int:
        return self.ell ** self.R


@dataclass
class HeckeCheckReport:
    """Outcome of one eigencheck.

    Certification is coefficientwise: the transform minus lambda times the
    series vanishes mod ell^R through q^verified_prec.  It upgrades to a
    Sturm-complete proof only when sturm_met holds AND the pole-count
    hypothesis recorded in B holds for the twist.
    """

    delta: int
    r: int
    ell: int
    R: int
    B: int
    k: int
    p: int
    lam: int
    requested_prec: int
    verified_prec: int
    certified: bool
    first_failure: int = None
    sturm: int = 0
    sturm_met: bool = False
    table_depth: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "delta": self.delta, "r": self.r, "ell": self.ell, "R": self.R,
            "B": self.B, "weight": self.k, "p": self.p, "lambda": self.lam,
            "requested_prec": self.requested_prec,
            "verified_prec": self.verified_prec,
            "certified": self.certified,
            "first_failure": self.first_failure,
            "sturm_bound": self.sturm,
            "sturm_met": self.sturm_met,
            "table_depth": self.table_depth,
        }


def eigencheck(params: TwistParams, setting: CongruenceSetting, p: int,
               lam: int, prec: int, tables: MockTables = None,
               _phi: PhiStar = None, also_reads: dict = None) -> HeckeCheckReport:
    """Verify Phi* | T_{p,k} = lam * Phi* (mod ell^R) coefficientwise
    through q^prec.

    Builds the expansion mod ell^R to index p*(prec+1)-1 so the transform is
    known through q^prec, applies the Hecke operator at the pole-clearing
    weight, and reports the first failing index if any.  `also_reads` maps
    a table kind to the deepest index the caller will read from `tables`
    afterwards; each table is then ensured once, to the deeper of that and
    the expansion's own need, after the request is validated.
    """
    if prec < 1:
        raise ValueError(f"prec = {prec} must be at least 1")
    if not is_prime(p) or p in (2, 3, setting.ell):
        raise ValueError(f"p = {p} must be a prime outside {{2, 3, ell}}")
    if splitting_type(setting.ell, params.delta) == "split":
        raise ValueError(f"ell = {setting.ell} splits for delta = {params.delta}")
    ring = Ring(setting.modulus)
    depth = p * (prec + 1) - 1
    if tables is not None and also_reads:
        for kind, need in required_depth(params.delta, params.r, depth).items():
            need = max(need, also_reads.get(kind, 0))
            if need:
                tables.ensure(kind, need)
    phi = _phi
    if phi is None or phi.series.prec <= depth:
        phi = phi_star(params, depth, ring, tables)
    transformed = hecke_operator(phi.series, p, setting.k)
    reference = Series(ring, phi.series.coeffs[: prec + 1]).scale(lam)
    first = None
    for n in range(1, prec + 1):
        if transformed.coeffs[n] != reference.coeffs[n]:
            first = n
            break
    certified = first is None
    sturm = sturm_bound(setting.k, 6)
    return HeckeCheckReport(
        delta=params.delta, r=params.r, ell=setting.ell, R=setting.R,
        B=setting.B, k=setting.k, p=p, lam=lam,
        requested_prec=prec,
        verified_prec=prec if certified else first - 1,
        certified=certified, first_failure=first,
        sturm=sturm, sturm_met=prec >= sturm,
        table_depth=required_depth(params.delta, params.r, depth),
    )


def density_scan(params: TwistParams, setting: CongruenceSetting,
                 prime_bound: int, prec: int, tables: MockTables = None) -> list:
    """Classify every prime p <= prime_bound (p not in {2, 3, ell}) by its
    eigen behaviour mod ell^R: lambda = 0, lambda = 2, lambda = b(p), or
    'other' with the first residual index.

    Returns rows (p, classification, lambda, first_failure) in prime order.
    """
    primes = [p for p in primes_up_to(prime_bound) if p not in (2, 3, setting.ell)]
    if not primes:
        return []
    ring = Ring(setting.modulus)
    if tables is None:
        tables = MockTables(ring)
    max_depth = max(p * (prec + 1) - 1 for p in primes)
    phi = phi_star(params, max_depth, ring, tables)

    def classify(p):
        for lam, label in ((0, "0"), (2, "2")):
            rep = eigencheck(params, setting, p, lam, prec, tables, _phi=phi)
            if rep.certified:
                return (p, label, lam, None)
        bp = phi.series.coeffs[p]
        rep = eigencheck(params, setting, p, bp, prec, tables, _phi=phi)
        if rep.certified:
            return (p, "b(p)", bp, None)
        return (p, "other", bp, rep.first_failure)

    return [classify(p) for p in primes]


def multiplicativity_check(phi: PhiStar, bound: int, k: int,
                           recursion_bound: int = None,
                           primes: set = None) -> tuple:
    """Check eigenform identities on the coefficients of phi mod ell^R:

    - b(m) b(n) = b(mn) for coprime pairs with mn <= bound
      (restricted to pairs supported on `primes` when given);
    - b(p) b(p^j) = b(p^(j+1)) + p^(k-1) b(p^(j-1)) for p^(j+1) <=
      recursion_bound, p coprime to 6*ell.

    Returns (True, None) or (False, first counterexample).
    """
    b = phi.series.coeffs
    m = phi.series.ring.modulus
    if len(b) <= max(bound, recursion_bound or 0):
        raise InsufficientPrecision("phi not built deep enough")
    for m1 in range(1, bound + 1):
        for n1 in range(m1 + 1, bound // m1 + 1):
            if gcd(m1, n1) != 1:
                continue
            if primes is not None:
                support = set(factorize(m1)) | set(factorize(n1))
                if not support <= primes:
                    continue
            if b[m1] * b[n1] % m != b[m1 * n1]:
                return False, ("multiplicativity", m1, n1)
    if recursion_bound:
        ell = _modulus_prime(m)
        for p in primes_up_to(recursion_bound):
            if p in (2, 3, ell) or (primes is not None and p not in primes):
                continue
            pk1 = pow(p, k - 1, m)
            j = 1
            while p ** (j + 1) <= recursion_bound:
                lhs = b[p] * b[p ** j] % m
                rhs = (b[p ** (j + 1)] + pk1 * b[p ** (j - 1)]) % m
                if lhs != rhs:
                    return False, ("recursion", p, j)
                j += 1
    return True, None


def _modulus_prime(m: int) -> int:
    fac = factorize(m)
    if len(fac) != 1:
        raise ValueError("modulus must be a prime power")
    return next(iter(fac))


__all__ = [
    "CongruenceSetting",
    "HeckeCheckReport",
    "InsufficientPrecision",
    "SmallPrime",
    "density_scan",
    "eigencheck",
    "hasse_weight",
    "hecke_operator",
    "index_gamma0",
    "multiplicativity_check",
    "sturm_bound",
]
