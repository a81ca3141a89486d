"""Normalized logarithmic-derivative expansions of the twisted Borcherds
products, the divisor-sum transforms between b- and c-coefficients, a
complex-numeric oracle for the raw expansion, and congruence predictors."""

from fractions import Fraction

from .mocktheta import MAX_TABLE_D, MockTables, c_series, cplus_entry
from .ntheory import (
    _fp_gauss_table,
    divisors,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    mod_inverse,
    moebius,
)
from .series import EXACT, Ring, Series


class ZeroNormalizer(ValueError):
    """c(1) = 0: the expansion cannot be normalized."""


class NonDivisible(ValueError):
    """An exact-ring quotient is not an integer: the twist's expansion has
    rational coefficients, which the exact integer ring cannot hold."""


class TwistParams:
    """A twist (delta, r): delta a negative fundamental discriminant and
    delta = r^2 (mod 24)."""

    def __init__(self, delta: int, r: int):
        if delta >= 0 or not is_fundamental_discriminant(delta):
            raise ValueError(f"invalid twist: {delta} is not a negative "
                             "fundamental discriminant")
        if (r * r - delta) % 24 != 0:
            raise ValueError(f"invalid twist: need delta = r^2 (mod 24), "
                             f"got r = {r}")
        self.delta, self.r = delta, r


def b_from_c(c: list, n: int, delta: int, ring: Ring) -> int:
    """b(n) = (1/c(1)) * sum_{d|n} c(d) * d * (delta / (n/d)).

    Valid for all n: the Kronecker symbol of a fundamental discriminant
    vanishes on shared factors, so the gcd(n, delta) > 1 boundary takes
    care of itself.  In the exact ring a sum that c(1) does not divide
    raises NonDivisible.
    """
    total = 0
    for d in divisors(n):
        chi = kronecker(delta, n // d)
        if chi:
            total += c[d] * d * chi
    if ring.modulus:
        return total * ring.inverse(c[1]) % ring.modulus
    q, rem = divmod(total, c[1])
    if rem:
        raise NonDivisible(f"b({n}) = {total}/{c[1]} is not an integer")
    return q


def c_from_b(b: list, n: int, delta: int, c1: int, ring: Ring) -> int:
    """c(n) = (c(1)/n) * sum_{d|n} b(d) * mu(n/d) * (delta / (n/d))."""
    total = 0
    for d in divisors(n):
        q = n // d
        mu = moebius(q)
        if mu:
            chi = kronecker(delta, q)
            if chi:
                total += b[d] * mu * chi
    if ring.modulus:
        return total * c1 * ring.inverse(n) % ring.modulus
    q, rem = divmod(total * c1, n)
    if rem:
        raise NonDivisible(f"c({n}) = {total * c1}/{n} is not an integer")
    return q


def exact_c1(params: TwistParams) -> int:
    """The exact normalizer c(1), from a depth-1 exact table."""
    return c_series(params.delta, params.r, 1, EXACT)[1]


def _normalizer(params: TwistParams) -> int:
    """c(1), which every normalized quantity divides by; ZeroNormalizer if 0."""
    c1 = exact_c1(params)
    if c1 == 0:
        raise ZeroNormalizer(f"degenerate normalizer: c(1) = 0 for the twist "
                             f"({params.delta}, {params.r})")
    return c1


def phi_star(params: TwistParams, upto: int, ring: Ring,
             tables: MockTables = None) -> Series:
    """Normalized expansion sum b(n) q^n with b(0) = 0 and b(1) = 1,
    coefficients known through index `upto` (series precision upto + 1)."""
    _normalizer(params)
    c = c_series(params.delta, params.r, upto, ring, tables)
    b = [0] * (upto + 1)
    for n in range(1, upto + 1):
        b[n] = b_from_c(c, n, params.delta, ring)
    return Series(ring, b)


def phi_raw_numeric(params: TwistParams, upto: int,
                    tables: MockTables = None) -> list:
    """Numeric oracle for the raw q-expansion

        sum_n [ sum_{d|n} c(d) (-d) G(n/d, delta) ] q^n

    with G(a, delta) = sum_{s mod delta} (delta/s) e(a*s/delta) summed from
    complex exponentials, then divided by -c(1) G(1, delta).

    The Gauss sums come from the fixed-point summation behind
    ntheory.gauss_sum_numeric, at a precision chosen from the size of the
    exact c-values.  Each entry is a (real, imag) pair of Fractions carrying
    that fixed-point value undamaged (the coefficients reach hundreds of
    digits, past what a float holds): the real part rounds to the exact
    coefficient and the imaginary part vanishes to the working tolerance."""
    _normalizer(params)
    delta = params.delta
    c = c_series(delta, params.r, upto, EXACT, tables)
    bound = sum(abs(c[d]) * d for d in range(1, upto + 1)) + 1
    digits = len(str(bound)) + 40
    scale = 10 ** digits
    gauss = _fp_gauss_table(delta, scale)
    nr = -c[1] * gauss[1][0]
    ni = -c[1] * gauss[1][1]
    denom = nr * nr + ni * ni
    out = [(Fraction(0), Fraction(0))] * (upto + 1)
    ad = abs(delta)
    for n in range(1, upto + 1):
        a = b = 0
        for d in divisors(n):
            if c[d]:
                gre, gim = gauss[(n // d) % ad]
                a += c[d] * (-d) * gre
                b += c[d] * (-d) * gim
        real_fp = (a * nr + b * ni) * scale // denom
        imag_fp = (b * nr - a * ni) * scale // denom
        out[n] = (Fraction(real_fp, scale), Fraction(imag_fp, scale))
    return out


def check_prime(p: int, ell: int):
    """The one rule for the prime p of an eigencheck or a prediction: p is
    at most MAX_TABLE_D (c(p) of a larger p reads past the table limit;
    checked first, by size), prime, and outside {2, 3, ell}, so every p^M
    is coprime to 6*ell."""
    if p > MAX_TABLE_D:
        raise ValueError(f"p above {MAX_TABLE_D} reads c(p) past the table limit")
    if not is_prime(p) or p in (2, 3, ell):
        raise ValueError(f"p = {p} must be a prime outside {{2, 3, ell}}")


class EigenData:
    """Eigenvalue data for one prime: rules out b(p^j) mod ell^R.

    setting provides ell, modulus = ell^R and the weight k, with p^(k-1)
    taken at hecke_k (hecke.CongruenceSetting); p must pass check_prime.
    For lambda = 0 the recursion collapses to b(p^(2m+1)) = 0 and
    b(p^(2m)) = (-p^(k-1))^m.
    """

    def __init__(self, setting, p: int, lam: int):
        self.setting, self.p, self.lam = setting, p, lam
        check_prime(p, setting.ell)

    def b_power(self, j: int) -> int:
        """b(p^j) mod ell^R by b(p^(i+1)) = lam b(p^i) - p^(k-1) b(p^(i-1))."""
        m = self.setting.modulus
        pk1 = pow(self.p, self.setting.hecke_k - 1, m)
        prev, cur = 0, 1 % m
        for _ in range(j):
            prev, cur = cur, (self.lam * cur - pk1 * prev) % m
        return cur


def predict_coefficient(params: TwistParams, M: int, eigen: EigenData) -> tuple:
    """(kind, table index, predicted residue) for the mock theta coefficient
    addressed by c(p^M), p = eigen.p, M >= 1 and p not dividing delta:

        c(p^M) = (c(1)/p^M) * ( b(p^M) - b(p^(M-1)) (delta/p) )

    divided by the dictionary factor.  c(p^M) never vanishes here: c(1) != 0
    forces 3 not dividing r, and p is prime to 3."""
    if M < 1:
        raise ValueError("M must be >= 1")
    c1 = _normalizer(params)
    p = eigen.p
    if params.delta % p == 0:
        raise ValueError(f"p = {p} must not divide delta = {params.delta}")
    kind, factor, idx = cplus_entry(params.delta, params.r, p ** M)
    modulus = eigen.setting.modulus
    c = c1 * (eigen.b_power(M) - eigen.b_power(M - 1) * kronecker(params.delta, p))
    return kind, idx, c * mod_inverse(p ** M * factor, modulus) % modulus


__all__ = [
    "EigenData",
    "NonDivisible",
    "TwistParams",
    "ZeroNormalizer",
    "b_from_c",
    "c_from_b",
    "phi_raw_numeric",
    "phi_star",
    "predict_coefficient",
]
