"""Hecke operators on truncated expansions, Sturm bounds, pole-clearing
weight bookkeeping, eigencheck certification mod ell^R and prime scans,
which are checked, sized and expanded on one path, `_expansion`."""

from math import gcd

from .borcherds import TwistParams, _normalizer, check_prime, phi_star
from .mocktheta import MAX_TABLE_D, MockTables, required_depth
from .ntheory import factorize, is_prime, primes_up_to, splitting_type
from .series import Ring, Series


# f and omega form one vector-valued harmonic Maass form for a lattice of
# level 4*6 = 24 (Zwegers 2002; hence delta = r^2 mod 24), and its twisted
# Borcherds products live on Gamma0(6) for every (delta, r) (Bruinier-Ono
# 2010): the Sturm bound uses level 6 whatever the twist.
LEVEL = 6

# heckecheck and certify print the weight k, and by default str() prints no
# int past 4300 digits: hasse_weight bounds k's bits before forming ell^(R-1).
MAX_WEIGHT_BITS = 14284  # 2^14284 < 10^4300


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
    """Weight 2 + (ell-1)*ell^(R-1)*B of the holomorphic form obtained by
    clearing B simple poles with the lifted weight-(ell-1) form E = 1
    (mod ell): E^(ell^(R-1)) = 1 (mod ell^R), and its R-th power is not."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if ell < 5:
        raise SmallPrime("the weight-(ell-1) lift needs ell >= 5")
    if ((ell - 1).bit_length() + (R - 1) * ell.bit_length() + B.bit_length()
            + 1 > MAX_WEIGHT_BITS):
        raise ValueError("the weight 2 + (ell-1)*ell^(R-1)*B may have more "
                         "than 4300 digits, too many to print")
    return 2 + (ell - 1) * ell ** (R - 1) * B


def _euler_weight(k: int, ell: int, modulus: int) -> int:
    """The least weight k' >= 1 with k' = k mod (ell-1) ell^(R-1), for
    modulus = ell^R.  By Euler's theorem p^(k'-1) = p^(k-1) mod ell^R for
    every p prime to ell, so T_p acts the same at k' as at k; k has about
    R digits, and at R = 2856 one pow(p, k - 1, modulus) takes seconds."""
    return 1 + (k - 1) % (modulus // ell * (ell - 1))


class CongruenceSetting:
    """ell, R and B of a congruence mod ell^R, with its weight k and
    hecke_k = _euler_weight(k), the weight its T_p and p^(k-1) are taken at."""

    def __init__(self, ell: int, R: int, B: int):
        if B < 1 or R < 1:
            raise ValueError(f"B = {B} and R = {R} must both be at least 1")
        self.ell, self.R, self.B = ell, R, B
        self.k = hasse_weight(ell, B, R)
        self.modulus = ell ** R
        self.hecke_k = _euler_weight(self.k, ell, self.modulus)


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
    tables = (tables or MockTables(ring)).ensure_all(
        {kind: max(need, (also_reads or {}).get(kind, 0))
         for kind, need in table_depth.items()})
    return phi_star(params, depth, ring, tables).coeffs, ring, table_depth


def eigencheck(params: TwistParams, setting: CongruenceSetting, p: int,
               lam: int, prec: int, tables: MockTables = None,
               also_reads: dict = None) -> dict:
    """Verify Phi* | T_{p,k} = lam * Phi* (mod ell^R) coefficientwise
    through q^prec, at the pole-clearing weight; reports the first failing
    index if any.  Phi* comes from `_expansion`, the one path of every
    congruence request, which also ensures each table to `also_reads`
    ({kind: deepest index the caller reads afterwards}).

    Returns the report `heckecheck --json` prints.  Certification is
    coefficientwise: the transform minus lambda times the series vanishes
    mod ell^R through q^verified_prec.  It upgrades to a Sturm-complete
    proof only when sturm_met holds AND the pole-count hypothesis recorded
    in B holds for the twist.
    """
    b, ring, table_depth = _expansion(params, setting, [p], prec, tables,
                                      also_reads)
    first = _first_residual(b, p, setting.hecke_k, lam, prec, ring)
    sturm = sturm_bound(setting.k, LEVEL)
    return {
        "delta": params.delta, "r": params.r, "ell": setting.ell,
        "R": setting.R, "B": setting.B, "weight": setting.k, "p": p,
        "lambda": lam, "requested_prec": prec,
        "verified_prec": prec if first is None else first - 1,
        "certified": first is None, "first_failure": first,
        "sturm_bound": sturm, "sturm_met": prec >= sturm,
        "table_depth": table_depth,
    }


def density_scan(params: TwistParams, setting: CongruenceSetting,
                 prime_bound: int, prec: int, tables: MockTables = None) -> list:
    """Classify every prime p <= prime_bound (p not in {2, 3, ell}) by its
    eigen behaviour mod ell^R.  (Phi*|T_p)(1) = b(p) and b(1) = 1, so
    lambda = b(p) is the only eigenvalue that can hold; a passing prime is
    labelled '0', '2' or 'b(p)' by that value, a failing one 'other' with
    the first residual index.

    The sieve stops at MAX_TABLE_D, past which no prime is within the table
    limit; the primes, even none, go through `_expansion`.
    Returns rows (p, classification, lambda, first_failure) in prime order.
    """
    primes = [p for p in primes_up_to(min(prime_bound, MAX_TABLE_D))
              if p not in (2, 3, setting.ell)]
    b, ring, _ = _expansion(params, setting, primes, prec, tables)
    rows = []
    for p in primes:
        first = _first_residual(b, p, setting.hecke_k, b[p], prec, ring)
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
        k = _euler_weight(k, ell, m)
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
    "CongruenceSetting",
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
