"""Normalized logarithmic-derivative expansions of the twisted Borcherds
products, the divisor-sum transforms between b- and c-coefficients, a
complex-numeric oracle for the raw expansion, and congruence predictors."""

from dataclasses import dataclass, field
from fractions import Fraction

from .mocktheta import (
    CPLUS_DISPATCH,
    CPlusQuery,
    MockTables,
    c_plus,
    c_series,
    cplus_index,
)
from .ntheory import (
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
            raise ValueError(f"{self.delta} is not a negative fundamental discriminant")
        if (self.r * self.r - self.delta) % 24 != 0:
            raise ValueError(f"need delta = r^2 (mod 24), got r = {self.r}")


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
    return c_plus(CPlusQuery(params.delta, params.r, 1), MockTables(EXACT))


def phi_star(params: TwistParams, upto: int, ring: Ring,
             tables: MockTables = None) -> PhiStar:
    """Normalized expansion sum b(n) q^n with b(1) = 1, coefficients known
    through index `upto` (series precision upto + 1)."""
    c1 = exact_c1(params)
    if c1 == 0:
        raise ZeroNormalizer(f"c(1) = 0 for (delta, r) = ({params.delta}, {params.r})")
    c = c_series(params.delta, params.r, upto, ring, tables)
    b = [0] * (upto + 1)
    for n in range(1, upto + 1):
        b[n] = b_from_c(c, n, params.delta, ring)
    return PhiStar(params, Series(ring, b), c1)


@dataclass
class ComplexApprox:
    """A complex value carried as exact rationals (fixed-point guts).

    The coefficients of the raw expansion reach hundreds of digits, far past
    what a float can hold, so the oracle keeps its numerics in scaled-integer
    arithmetic and hands back the result undamaged."""

    real: Fraction
    imag: Fraction

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __repr__(self):
        return f"ComplexApprox({float(self.real):.6g}, {float(self.imag):.6g}j)"


def _fp_arctan_inv(x: int, scale: int) -> int:
    """arctan(1/x) * scale by the alternating power series."""
    total = 0
    p = scale // x
    x2 = x * x
    k = 0
    while True:
        term = p // (2 * k + 1)
        if not term:
            return total
        total += -term if k % 2 else term
        p //= x2
        k += 1


def _fp_pi(scale: int) -> int:
    """pi * scale via Machin's formula, with guard digits."""
    guard = 10 ** 10
    v = 16 * _fp_arctan_inv(5, scale * guard) - 4 * _fp_arctan_inv(239, scale * guard)
    return v // guard


def _fp_sincos(num: int, den: int, scale: int, pi_fp: int) -> tuple:
    """(sin, cos) of 2*pi*num/den (0 <= num < den) as scale-scaled integers."""
    guard = 10 ** 10
    s2 = scale * guard
    x = 2 * pi_fp * guard * num // den
    sin_t = cos_t = 0
    term = s2
    k = 0
    while term:
        r = k % 4
        if r == 0:
            cos_t += term
        elif r == 1:
            sin_t += term
        elif r == 2:
            cos_t -= term
        else:
            sin_t -= term
        term = term * x // s2 // (k + 1)
        k += 1
    return sin_t // guard, cos_t // guard


def _fp_gauss_table(delta: int, scale: int) -> list:
    """G(a, delta) for a = 0..|delta|-1 as scale-scaled (real, imag) pairs,
    summed from first-principles complex exponentials."""
    ad = abs(delta)
    pi_fp = _fp_pi(scale)
    unit = [_fp_sincos(t, ad, scale, pi_fp) for t in range(ad)]
    chi = [kronecker(delta, s) for s in range(ad)]
    table = []
    for a in range(ad):
        re = im = 0
        for s in range(ad):
            if chi[s]:
                # e(a*s/delta) with delta < 0: angle 2*pi*((-a*s) mod |delta|)/|delta|
                sn, cs = unit[(-a * s) % ad]
                re += chi[s] * cs
                im += chi[s] * sn
        table.append((re, im))
    return table


def phi_raw_numeric(params: TwistParams, upto: int,
                    tables: MockTables = None) -> list:
    """Numeric oracle for the raw q-expansion

        sum_n [ sum_{d|n} c(d) (-d) G(n/d, delta) ] q^n

    with G(a, delta) = sum_{s mod delta} (delta/s) e(a*s/delta) summed from
    complex exponentials, then divided by -c(1) G(1, delta).

    The exponentials are evaluated in fixed-point arithmetic whose precision
    is chosen from the size of the exact c-values, so the returned
    ComplexApprox values round to the exact coefficients; imaginary parts
    must vanish to the working tolerance."""
    if tables is not None and tables.ring != EXACT:
        raise ValueError("the numeric oracle needs exact tables")
    delta = params.delta
    c = c_series(delta, params.r, upto, EXACT, tables)
    if c[1] == 0:
        raise ZeroNormalizer("c(1) = 0")
    bound = sum(abs(c[d]) * d for d in range(1, upto + 1)) + 1
    digits = len(str(bound)) + 40
    scale = 10 ** digits
    gauss = _fp_gauss_table(delta, scale)
    nr = -c[1] * gauss[1][0]
    ni = -c[1] * gauss[1][1]
    denom = nr * nr + ni * ni
    out = [ComplexApprox(Fraction(0), Fraction(0))] * (upto + 1)
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
        out[n] = ComplexApprox(Fraction(real_fp, scale), Fraction(imag_fp, scale))
    return out


@dataclass
class EigenData:
    """Eigenvalue data for one prime: rules out b(p^j) mod ell^R.

    setting must provide ell, R and the weight k (see hecke.CongruenceSetting).
    For lambda = 0 the recursion collapses to b(p^(2m+1)) = 0 and
    b(p^(2m)) = (-p^(k-1))^m.
    """

    setting: object
    p: int
    lam: int
    _powers: list = field(default_factory=list, repr=False)

    @property
    def modulus(self) -> int:
        return self.setting.ell ** self.setting.R

    def b_power(self, j: int) -> int:
        m = self.modulus
        if not self._powers:
            self._powers.extend([1 % m, self.lam % m])
        pk1 = pow(self.p, self.setting.k - 1, m)
        while len(self._powers) <= j:
            nxt = (self.lam * self._powers[-1] - pk1 * self._powers[-2]) % m
            self._powers.append(nxt)
        return self._powers[j]


def _eigen_map(eigens) -> dict:
    if isinstance(eigens, EigenData):
        return {eigens.p: eigens}
    if isinstance(eigens, dict):
        return eigens
    return {e.p: e for e in eigens}


def predict_c(n: int, eigens, params: TwistParams, c1: int) -> int:
    """Predicted residue of c(n) mod ell^R from eigenvalue data:

        c(n) = (c(1)/n) * prod_{p|n} ( b(p^v) - b(p^(v-1)) (delta/p) )

    with v = v_p(n).  Every prime of n must carry eigen data, and n must be
    coprime to 6*ell."""
    by_p = _eigen_map(eigens)
    if not by_p:
        raise UncoveredPrime("no eigenvalue data supplied")
    modulus = next(iter(by_p.values())).modulus
    ell = next(iter(by_p.values())).setting.ell
    if gcd(n, 6 * ell) != 1:
        raise ValueError(f"n = {n} must be coprime to 6*ell = {6 * ell}")
    result = c1 % modulus * mod_inverse(n, modulus) % modulus
    for p, v in factorize(n).items():
        if p not in by_p:
            raise UncoveredPrime(f"no eigenvalue data for prime {p}")
        e = by_p[p]
        term = (e.b_power(v) - e.b_power(v - 1) * kronecker(params.delta, p)) % modulus
        result = result * term % modulus
    return result


def predict_coefficient(params: TwistParams, p: int, M: int,
                        eigen: EigenData, c1: int = None) -> tuple:
    """(kind, table index, predicted residue) for the mock theta coefficient
    addressed by c(p^M), inverting the dictionary sign and -4 factor."""
    if M < 1:
        raise ValueError("M must be >= 1")
    d = p ** M
    if c1 is None:
        c1 = exact_c1(params)
    kind, sign = CPLUS_DISPATCH[(params.r * d) % 12]
    if kind == "zero":
        raise ValueError(f"c({d}) vanishes identically; nothing to predict")
    idx = cplus_index(params.delta, d, kind)
    modulus = eigen.modulus
    residue = sign * predict_c(d, eigen, params, c1) % modulus
    if kind == "omega":
        residue = residue * mod_inverse(-4, modulus) % modulus
    return kind, idx, residue


def predict_omega(p: int, M: int, eigen: EigenData) -> tuple:
    """Predicted (index, residue) for a_omega(2(p^(2M) - 1)/3) mod ell^R,
    for the twist (delta, r) = (-8, 4)."""
    _, idx, residue = predict_coefficient(TwistParams(-8, 4), p, M, eigen, c1=-4)
    return idx, residue


def predict_f(p: int, M: int, eigen: EigenData) -> tuple:
    """Predicted (index, residue) for a_f((23 p^(2M) + 1)/24) mod ell^R,
    for the twist (delta, r) = (-23, 1)."""
    if p % 23 == 0:
        raise ValueError("p must not divide 23")
    _, idx, residue = predict_coefficient(TwistParams(-23, 1), p, M, eigen, c1=1)
    return idx, residue


__all__ = [
    "ComplexApprox",
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
