"""Truncated power series over exact integers or integers mod m.

Coefficient arrays are dense Python ints; index n holds the q^n
coefficient.  A series has no fractional exponent: eta_product returns its
offset in 24ths beside the series, and the expression evaluator (qexpr) is
what tracks such offsets.  The heavy kernels are the binomial-inverse
recurrence passes, which run as C-level cumulative sums over residue lanes.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd

from .ntheory import NotInvertible, mod_inverse


class RingMismatch(ValueError):
    pass


class ExponentMismatch(ValueError):
    """Summands whose exponent offsets differ by a fraction (see qexpr)."""


class NonUnitConstantTerm(ValueError):
    pass


class NonIntegralNormalization(ValueError):
    pass


class Ring:
    """Coefficient ring: modulus 0 means exact integers, m >= 2 means Z/m."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int = 0):
        if modulus < 0 or modulus == 1:
            raise ValueError("modulus must be 0 (exact) or >= 2")
        self.modulus = modulus

    def normalize(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def is_unit(self, x: int) -> bool:
        if self.modulus:
            return gcd(x, self.modulus) == 1
        return x in (1, -1)

    def inverse(self, x: int) -> int:
        if self.modulus:
            return mod_inverse(x, self.modulus)
        if x in (1, -1):
            return x
        raise NotInvertible(f"{x} is not a unit in the exact integer ring")

    def __eq__(self, other):
        return isinstance(other, Ring) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("Ring", self.modulus))

    def __repr__(self):
        return "Ring(exact)" if not self.modulus else f"Ring(mod {self.modulus})"


EXACT = Ring(0)

# Entries of a residue lane summed at a time by binomial_inverse_inplace;
# at least 2, so that a chunk's last two sums give both carries.
LANE_CHUNK = 1 << 10


def binomial_inverse_inplace(coeffs: list, step: int, sign: int,
                             exponent: int, modulus: int):
    """Multiply the coefficient list by (1 - sign*q^step)^(-exponent) in place.

    Each exponent unit is one O(len) recurrence pass c[n] += sign*c[n-step],
    realised as a cumulative sum along every residue lane mod step (with an
    alternating twist, by lane position, when sign = -1).  Pairs of passes
    are fused into a single double cumulative sum; the twist is a ring
    automorphism, so this holds for either sign.

    A lane is summed LANE_CHUNK entries at a time.  The running sums carry
    into the next chunk as the `initial` values of the same cumulative sums,
    whose own outputs are then skipped: c2, the last sum, for a single pass;
    c1, the last first-level sum, and c2 - c1 for a double one (residues mod
    m).  A lane that fits in one chunk has no carry.  So a pass holds one
    chunk and its sums beside the list, O(LANE_CHUNK) entries: a build's
    peak memory is its finished table plus about one chunk of new values
    (1.07x for the exact omega table to 20000, 1.16x to 8000), not the
    table plus a whole lane's copy and its new sums (2.2x).
    """
    if step < 1 or exponent < 1 or sign not in (1, -1):
        raise ValueError("need step >= 1, exponent >= 1, sign = +-1")
    n = len(coeffs)
    if step >= n:
        return
    width = step * LANE_CHUNK
    remaining = exponent
    while remaining > 0:
        double = remaining >= 2
        for r in range(step):
            carry = ()
            for start in range(r, n, width):
                stop = start + width
                odd = 1 - (start - r) // step % 2  # lane positions odd overall
                lane = coeffs[start:stop:step]
                if sign == -1:
                    lane[odd::2] = [-v for v in lane[odd::2]]
                acc = accumulate(lane, initial=carry[0] if carry else None)
                if double:
                    acc = accumulate(acc, initial=carry[1] if carry else None)
                for _ in carry:
                    next(acc)
                # the sums replace the lane's copy, which goes at once
                if modulus and sign == 1:
                    lane = [v % modulus for v in acc]  # residues, carries too
                else:
                    lane = list(acc)
                if stop < n:
                    c2, c1 = lane[-1], lane[-1] - lane[-2]
                    if modulus:
                        c2, c1 = c2 % modulus, c1 % modulus
                    carry = (c1, c2 - c1) if double else (c2,)
                if sign == -1:
                    lane[odd::2] = [-v for v in lane[odd::2]]
                    if modulus:
                        lane = [v % modulus for v in lane]
                coeffs[start:stop:step] = lane
        remaining -= 2 if double else 1


def _convolve(a: list, b: list, out_len: int) -> list:
    la, lb = len(a), len(b)
    out = []
    for n in range(out_len):
        lo = 0 if n < lb else n - lb + 1
        hi = min(n, la - 1)
        s = 0
        for i in range(lo, hi + 1):
            s += a[i] * b[n - i]
        out.append(s)
    return out


class Series:
    """Immutable truncated q-expansion over a Ring.

    prec P means coefficients of q^0 .. q^(P-1) are known.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs, prec: int = None):
        coeffs = list(coeffs)
        if prec is not None:
            if prec < 1:
                raise ValueError("prec must be positive")
            if len(coeffs) < prec:
                coeffs.extend([0] * (prec - len(coeffs)))
            else:
                del coeffs[prec:]
        elif not coeffs:
            raise ValueError("empty coefficient list")
        m = ring.modulus
        if m:
            coeffs = [c % m for c in coeffs]
        self.ring = ring
        self.coeffs = coeffs

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @classmethod
    def monomial(cls, ring: Ring, exponent: int, prec: int, coeff: int = 1) -> "Series":
        c = [0] * prec
        if exponent < prec:
            c[exponent] = coeff
        return cls(ring, c)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.prec > 6 else ""
        return f"Series([{head}{tail}], prec={self.prec}, {self.ring})"

    def _join(self, other: "Series"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def add(self, other: "Series") -> "Series":
        self._join(other)
        return Series(self.ring, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def neg(self) -> "Series":
        return Series(self.ring, [-x for x in self.coeffs])

    def mul(self, other: "Series") -> "Series":
        """Truncated Cauchy product, to the smaller of the two precisions."""
        self._join(other)
        P = min(self.prec, other.prec)
        return Series(self.ring, _convolve(self.coeffs, other.coeffs, P))

    def pow(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative powers go through invert()")
        result = Series(self.ring, [1], prec=self.prec)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            base = base.mul(base) if n > 1 else base
            n >>= 1
        return result

    def invert(self) -> "Series":
        """Multiplicative inverse to the same precision; the constant term
        must be a unit of the ring."""
        a = self.coeffs
        try:
            c0inv = self.ring.inverse(a[0])
        except NotInvertible as exc:
            raise NonUnitConstantTerm(str(exc)) from exc
        P = self.prec
        m = self.ring.modulus
        b = [0] * P
        b[0] = c0inv % m if m else c0inv
        for n in range(1, P):
            s = 0
            for k in range(1, min(n, len(a) - 1) + 1):
                s += a[k] * b[n - k]
            b[n] = (-s * c0inv) % m if m else -s * c0inv
        return Series(self.ring, b)

    def shifted(self, s: int) -> "Series":
        """Multiply by q^s.  Positive s prepends zeros (precision grows);
        negative s drops leading coefficients, which must be zero."""
        if s >= 0:
            return Series(self.ring, [0] * s + self.coeffs)
        if any(self.coeffs[: -s]):
            raise ValueError("negative shift would drop nonzero coefficients")
        if self.prec + s < 1:
            raise ValueError("negative shift exhausts the precision")
        return Series(self.ring, self.coeffs[-s:])


def pentagonal_coefficients(scale: int, length: int) -> list:
    """Coefficients of prod_{n>=1} (1 - q^(scale*n)) to the given length,
    by Euler's pentagonal number theorem (sparse: O(sqrt(length/scale))
    nonzero entries)."""
    if scale < 1 or length < 1:
        raise ValueError("scale and length must be positive")
    c = [0] * length
    c[0] = 1
    k = 1
    while True:
        g1 = scale * k * (3 * k - 1) // 2
        g2 = scale * k * (3 * k + 1) // 2
        if g1 >= length and g2 >= length:
            break
        s = -1 if k % 2 else 1
        if g1 < length:
            c[g1] = s
        if g2 < length:
            c[g2] = s
        k += 1
    return c


def eta_product(scale: int, prec: int, ring: Ring) -> tuple:
    """q^(scale/24) * prod (1 - q^(scale*n)) truncated to prec, as the pair
    (series, scale % 24).

    The integer part of scale/24 is applied as a shift of the coefficient
    array; the remaining offset, in 24ths, is returned beside the series.
    """
    shift, frac = divmod(scale, 24)
    pent = pentagonal_coefficients(scale, max(prec - shift, 1))
    return Series(ring, [0] * shift + pent, prec=prec), frac


_BERNOULLI_CACHE = [Fraction(1), Fraction(-1, 2)]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k by the exact recurrence
    sum_j C(k+1, j) B_j = 0 (convention B_1 = -1/2)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    while len(_BERNOULLI_CACHE) <= k:
        n = len(_BERNOULLI_CACHE)
        if n % 2 == 1:
            _BERNOULLI_CACHE.append(Fraction(0))
            continue
        s = sum(comb(n + 1, j) * _BERNOULLI_CACHE[j] for j in range(n))
        _BERNOULLI_CACHE.append(-s / (n + 1))
    return _BERNOULLI_CACHE[k]


def eisenstein(k: int, prec: int, ring: Ring) -> Series:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    In the exact ring the rational factor -2k/B_k must be an integer;
    in a modular ring its denominator must be invertible.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer >= 2")
    factor = Fraction(-2 * k) / bernoulli(k)
    m = ring.modulus
    if m:
        num = factor.numerator % m
        f = num * mod_inverse(factor.denominator, m) % m
    else:
        if factor.denominator != 1:
            raise NonIntegralNormalization(
                f"Eisenstein factor -2k/B_k = {factor} is not an integer"
            )
        f = factor.numerator
    # Sieve the divisor powers: d contributes d^(k-1) to every multiple.
    powers = [0] * prec
    for d in range(1, prec):
        pd = pow(d, k - 1, m) if m else d ** (k - 1)
        for n in range(d, prec, d):
            powers[n] += pd
    return Series(ring, [1] + [v * f for v in powers[1:]], prec=prec)


__all__ = [
    "EXACT",
    "ExponentMismatch",
    "NonIntegralNormalization",
    "NonUnitConstantTerm",
    "Ring",
    "RingMismatch",
    "Series",
    "bernoulli",
    "binomial_inverse_inplace",
    "eisenstein",
    "eta_product",
    "pentagonal_coefficients",
]
