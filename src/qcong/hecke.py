"""Hecke operators on truncated expansions, Sturm bounds, pole-clearing
weight bookkeeping, eigencheck certification mod ell^R and prime scans,
which are checked, sized and expanded on one path, `_expansion`."""

from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from math import gcd

from .borcherds import TwistParams, _normalizer, check_prime, phi_star
from .mocktheta import MAX_TABLE_INDEX, MockTables, required_depth
from .ntheory import factorize, is_prime, primes_up_to, splitting_type
from .series import Ring, Series


# f and omega form one vector-valued harmonic Maass form for a lattice of
# level 4*6 = 24 (Zwegers 2002; hence delta = r^2 mod 24), and its twisted
# Borcherds products live on Gamma0(6) for every (delta, r) (Bruinier-Ono
# 2010): the Sturm bound uses level 6 whatever the twist.
LEVEL = 6


class SmallPrime(ValueError):
    """The pole-clearing lift needs ell >= 5."""


class InsufficientPrecision(ValueError):
    pass


def hecke_operator(g: Series, p: int, k: int) -> Series:
    """Weight-k Hecke action: coefficient n of g|T_p is a(pn) + p^(k-1) a(n/p)
    (second term only when p | n).  Output precision is floor(prec/p)."""
    out_prec = g.prec // p
    if out_prec < 1:
        raise InsufficientPrecision(f"precision {g.prec} too small for T_{p}")
    m = g.ring.modulus
    pk1 = pow(p, k - 1, m) if m else p ** (k - 1)
    a = g.coeffs
    out = [a[p * n] for n in range(out_prec)]
    for n in range(0, out_prec, p):
        out[n] += pk1 * a[n // p]
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
    """Sturm's bound floor(k * [SL2(Z) : Gamma0(N)] / 12): a weight-k form on
    Gamma0(N) whose coefficients through this index vanish mod ell vanishes
    mod ell identically (Sturm 1987)."""
    if k < 1:
        raise ValueError("weight must be positive")
    return k * index_gamma0(N) // 12


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
    k: int = field(init=False)

    def __post_init__(self):
        if self.B < 1 or self.R < 1:
            raise ValueError(f"B = {self.B} and R = {self.R} must both be at least 1")
        self.k = hasse_weight(self.ell, self.B, self.R)

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
    first_failure: int
    sturm: int
    sturm_met: bool
    table_depth: dict

    def to_dict(self) -> dict:
        json_keys = {"k": "weight", "lam": "lambda", "sturm": "sturm_bound"}
        return {json_keys.get(k, k): v for k, v in asdict(self).items()}


def _depth(p: int, prec: int) -> int:
    """The last index of Phi* that a T_p check through q^prec reads."""
    return p * (prec + 1) - 1


def _first_residual(b: list, p: int, k: int, lam: int, prec: int, ring: Ring):
    """The first n in 1..prec with (Phi*|T_{p,k})(n) != lam * b(n) mod ell^R,
    or None; b holds Phi*'s coefficients through at least q^_depth(p, prec)."""
    transformed = hecke_operator(Series(ring, b[: _depth(p, prec) + 1]), p, k).coeffs
    return next((n for n in range(1, prec + 1)
                 if transformed[n] != lam * b[n] % ring.modulus), None)


def _expansion(params: TwistParams, setting: CongruenceSetting, primes: list,
               prec: int, tables: MockTables = None, also_reads: dict = None):
    """The one path of every congruence request, T_p checks through q^prec
    at each of `primes` (maybe none): reject it before any table is read,
    ensure each table once, also to `also_reads`, and expand Phi* mod ell^R."""
    if prec < 1:
        raise ValueError(f"prec = {prec} must be at least 1")
    if splitting_type(setting.ell, params.delta) == "split":
        raise ValueError(f"ell = {setting.ell} splits for delta = {params.delta}")
    for p in primes:
        check_prime(p, setting.ell)
    _normalizer(params)
    ring = Ring(setting.modulus)
    depth = max((_depth(p, prec) for p in primes), default=0)
    table_depth = required_depth(params.delta, params.r, depth)
    if tables is not None:
        tables.ensure_all({kind: max(need, (also_reads or {}).get(kind, 0))
                           for kind, need in table_depth.items()})
    return phi_star(params, depth, ring, tables).coeffs, ring, table_depth


def eigencheck(params: TwistParams, setting: CongruenceSetting, p: int,
               lam: int, prec: int, tables: MockTables = None,
               also_reads: dict = None) -> HeckeCheckReport:
    """Verify Phi* | T_{p,k} = lam * Phi* (mod ell^R) coefficientwise
    through q^prec, at the pole-clearing weight; reports the first failing
    index if any.  Phi* comes from `_expansion`, the one path of every
    congruence request, which also ensures each table to `also_reads`
    ({kind: deepest index the caller reads afterwards}).
    """
    b, ring, table_depth = _expansion(params, setting, [p], prec, tables,
                                      also_reads)
    first = _first_residual(b, p, setting.k, lam, prec, ring)
    sturm = sturm_bound(setting.k, LEVEL)
    return HeckeCheckReport(
        delta=params.delta, r=params.r, ell=setting.ell, R=setting.R,
        B=setting.B, k=setting.k, p=p, lam=lam,
        requested_prec=prec,
        verified_prec=prec if first is None else first - 1,
        certified=first is None, first_failure=first,
        sturm=sturm, sturm_met=prec >= sturm,
        table_depth=table_depth,
    )


def _scan_limit(params: TwistParams, ell: int, prime_bound: int, prec: int) -> int:
    """The largest p <= prime_bound whose expansion, to _depth(p, prec), needs
    no table index above MAX_TABLE_INDEX (the need grows with p), found
    without sieving; a ValueError if a scanned prime lies past it."""
    limit = bisect_left(range(1, prime_bound + 1), True, key=lambda p: max(
        required_depth(params.delta, params.r, _depth(p, prec)).values())
        > MAX_TABLE_INDEX)
    q = limit + 1
    while q <= prime_bound and (not is_prime(q) or q in (2, 3, ell)):
        q += 1
    if q <= prime_bound:
        raise ValueError(f"prime {q} <= bound {prime_bound} needs a table "
                         f"index above the limit {MAX_TABLE_INDEX}")
    return limit


def density_scan(params: TwistParams, setting: CongruenceSetting,
                 prime_bound: int, prec: int, tables: MockTables = None) -> list:
    """Classify every prime p <= prime_bound (p not in {2, 3, ell}) by its
    eigen behaviour mod ell^R.  (Phi*|T_p)(1) = b(p) and b(1) = 1, so
    lambda = b(p) is the only eigenvalue that can hold; a passing prime is
    labelled '0', '2' or 'b(p)' by that value, a failing one 'other' with
    the first residual index.

    The primes left after `_scan_limit`, even none, go through `_expansion`.
    Returns rows (p, classification, lambda, first_failure) in prime order.
    """
    limit = _scan_limit(params, setting.ell, prime_bound, prec)
    primes = [p for p in primes_up_to(limit) if p not in (2, 3, setting.ell)]
    b, ring, _ = _expansion(params, setting, primes, prec, tables)
    rows = []
    for p in primes:
        first = _first_residual(b, p, setting.k, b[p], prec, ring)
        label = "other" if first else {0: "0", 2: "2"}.get(b[p], "b(p)")
        rows.append((p, label, b[p], first))
    return rows


def multiplicativity_check(phi: Series, bound: int, k: int,
                           recursion_bound: int = None) -> tuple:
    """Check eigenform identities on the coefficients of phi mod ell^R:

    - b(m) b(n) = b(mn) for coprime pairs with mn <= bound;
    - b(p) b(p^j) = b(p^(j+1)) + p^(k-1) b(p^(j-1)) for p^(j+1) <=
      recursion_bound, p coprime to 6*ell.

    Returns (True, None) or (False, first counterexample).
    """
    b = phi.coeffs
    m = phi.ring.modulus
    if not m:
        raise ValueError("the identities are checked mod ell^R; phi is exact")
    if len(b) <= max(bound, recursion_bound or 0):
        raise InsufficientPrecision("phi not built deep enough")
    for m1 in range(1, bound + 1):
        for n1 in range(m1 + 1, bound // m1 + 1):
            if gcd(m1, n1) == 1 and b[m1] * b[n1] % m != b[m1 * n1]:
                return False, ("multiplicativity", m1, n1)
    if recursion_bound:
        fac = factorize(m)
        if len(fac) != 1:
            raise ValueError("modulus must be a prime power")
        ell = next(iter(fac))
        for p in primes_up_to(recursion_bound):
            if p in (2, 3, ell):
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


__all__ = [
    "LEVEL",
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
