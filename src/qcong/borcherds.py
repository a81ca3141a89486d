"""Normalized logarithmic-derivative expansions of the twisted Borcherds
products, the divisor-sum transforms between b- and c-coefficients, a
complex-numeric oracle for the raw expansion, and congruence predictors."""

from dataclasses import dataclass, field
from fractions import Fraction

from .mocktheta import MockTables, c_plus, c_series, cplus_entry
from .ntheory import (
    _fp_gauss_table,
    divisors,
    factorize,
    gcd,
    is_fundamental_discriminant,
    kronecker,
    mod_inverse,
    moebius,
)
from .series import EXACT, Ring, Series


class ZeroNormalizer(ValueError):
    """c(1) = 0: the expansion cannot be normalized."""


class NonDivisible(ArithmeticError):
    """An exact-ring division that must be exact is not; upstream bug."""


class UncoveredPrime(ValueError):
    """predict_c was asked about a prime with no eigenvalue data."""


@dataclass
class TwistParams:
    delta: int
    r: int

    def __post_init__(self):
        if self.delta >= 0 or not is_fundamental_discriminant(self.delta):
            raise ValueError(f"invalid twist: {self.delta} is not a negative "
                             "fundamental discriminant")
        if (self.r * self.r - self.delta) % 24 != 0:
            raise ValueError(f"invalid twist: need delta = r^2 (mod 24), "
                             f"got r = {self.r}")


@dataclass
class PhiStar:
    params: TwistParams
    series: Series        # coefficients b(0) = 0, b(1) = 1, ..., b(prec-1)
    c1: int               # the exact normalizing coefficient c(1)


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise NonDivisible(f"{num} is not divisible by {den}")
    return q


def b_from_c(c: list, n: int, delta: int, ring: Ring) -> int:
    """b(n) = (1/c(1)) * sum_{d|n} c(d) * d * (delta / (n/d)).

    Valid for all n: the Kronecker symbol of a fundamental discriminant
    vanishes on shared factors, so the gcd(n, delta) > 1 boundary takes
    care of itself.  In the exact ring the division by c(1) must be exact.
    """
    total = 0
    for d in divisors(n):
        chi = kronecker(delta, n // d)
        if chi:
            total += c[d] * d * chi
    if ring.modulus:
        return total * ring.inverse(c[1]) % ring.modulus
    return _exact_div(total, c[1])


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
    return _exact_div(total * c1, n)


def exact_c1(params: TwistParams) -> int:
    """The exact normalizer c(1), from a depth-1 exact table."""
    return c_plus(params.delta, params.r, 1, MockTables(EXACT))


def _normalizer(params: TwistParams) -> int:
    """c(1), which every normalized quantity divides by; ZeroNormalizer if 0."""
    c1 = exact_c1(params)
    if c1 == 0:
        raise ZeroNormalizer(f"degenerate normalizer: c(1) = 0 for the twist "
                             f"({params.delta}, {params.r})")
    return c1


def phi_star(params: TwistParams, upto: int, ring: Ring,
             tables: MockTables = None) -> PhiStar:
    """Normalized expansion sum b(n) q^n with b(1) = 1, coefficients known
    through index `upto` (series precision upto + 1)."""
    c1 = _normalizer(params)
    c = c_series(params.delta, params.r, upto, ring, tables)
    b = [0] * (upto + 1)
    for n in range(1, upto + 1):
        b[n] = b_from_c(c, n, params.delta, ring)
    return PhiStar(params, Series(ring, b), c1)


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
    if tables is not None and tables.ring != EXACT:
        raise ValueError("the numeric oracle needs exact tables")
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


@dataclass
class EigenData:
    """Eigenvalue data for one prime: rules out b(p^j) mod ell^R.

    setting provides ell, modulus = ell^R and the weight k (hecke.CongruenceSetting).
    For lambda = 0 the recursion collapses to b(p^(2m+1)) = 0 and
    b(p^(2m)) = (-p^(k-1))^m.
    """

    setting: object
    p: int
    lam: int
    _powers: list = field(default_factory=list, repr=False)

    def b_power(self, j: int) -> int:
        m = self.setting.modulus
        if not self._powers:
            self._powers.extend([1 % m, self.lam % m])
        pk1 = pow(self.p, self.setting.k - 1, m)
        while len(self._powers) <= j:
            nxt = (self.lam * self._powers[-1] - pk1 * self._powers[-2]) % m
            self._powers.append(nxt)
        return self._powers[j]


def predict_c(n: int, eigen: EigenData, params: TwistParams, c1: int) -> int:
    """Predicted residue of c(n) mod ell^R from eigenvalue data at p = eigen.p:

        c(n) = (c(1)/n) * ( b(p^v) - b(p^(v-1)) (delta/p) )

    for n = p^v.  n must be a power of eigen.p (n = 1 gives c(1)) and
    coprime to 6*ell; any other prime of n raises UncoveredPrime."""
    modulus = eigen.setting.modulus
    ell = eigen.setting.ell
    if gcd(n, 6 * ell) != 1:
        raise ValueError(f"n = {n} must be coprime to 6*ell = {6 * ell}")
    result = c1 % modulus * mod_inverse(n, modulus) % modulus
    for p, v in factorize(n).items():
        if p != eigen.p:
            raise UncoveredPrime(f"no eigenvalue data for prime {p}")
        term = (eigen.b_power(v)
                - eigen.b_power(v - 1) * kronecker(params.delta, p)) % modulus
        result = result * term % modulus
    return result


def predict_coefficient(params: TwistParams, p: int, M: int,
                        eigen: EigenData) -> tuple:
    """(kind, table index, predicted residue) for the mock theta coefficient
    addressed by c(p^M): predict_c divided by the dictionary factor."""
    if M < 1:
        raise ValueError("M must be >= 1")
    c1 = _normalizer(params)
    d = p ** M
    entry = cplus_entry(params.delta, params.r, d)
    if entry is None:
        raise ValueError(f"c({d}) vanishes identically; nothing to predict")
    kind, factor, idx = entry
    modulus = eigen.setting.modulus
    residue = predict_c(d, eigen, params, c1)
    return kind, idx, residue * mod_inverse(factor, modulus) % modulus


def predict_omega(p: int, M: int, eigen: EigenData) -> tuple:
    """Predicted (index, residue) for a_omega(2(p^(2M) - 1)/3) mod ell^R,
    for the twist (delta, r) = (-8, 4)."""
    _, idx, residue = predict_coefficient(TwistParams(-8, 4), p, M, eigen)
    return idx, residue


def predict_f(p: int, M: int, eigen: EigenData) -> tuple:
    """Predicted (index, residue) for a_f((23 p^(2M) + 1)/24) mod ell^R,
    for the twist (delta, r) = (-23, 1)."""
    if p % 23 == 0:
        raise ValueError("p must not divide 23")
    _, idx, residue = predict_coefficient(TwistParams(-23, 1), p, M, eigen)
    return idx, residue


__all__ = [
    "EigenData",
    "NonDivisible",
    "PhiStar",
    "TwistParams",
    "UncoveredPrime",
    "ZeroNormalizer",
    "b_from_c",
    "c_from_b",
    "exact_c1",
    "phi_raw_numeric",
    "phi_star",
    "predict_c",
    "predict_coefficient",
    "predict_f",
    "predict_omega",
]
