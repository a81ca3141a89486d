"""Truncated power series over exact integers or integers mod m.

Coefficient arrays are dense Python ints; index n holds the q^n
coefficient.  A series has no fractional exponent: eta_product returns its
offset in 24ths beside the series, and the expression evaluator (qexpr) is
what tracks such offsets.  The heavy kernels are the binomial-inverse
recurrence passes, which run as C-level cumulative sums over residue lanes,
and the mod-m products of long lists, one product of two decimal integers
each (Kronecker substitution).
"""

import decimal
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
                lane = list(acc)  # the sums replace the lane's copy, which goes at once
                if stop < n:
                    c2, c1 = lane[-1], lane[-1] - lane[-2]
                    if modulus:
                        c2, c1 = c2 % modulus, c1 % modulus
                    carry = (c1, c2 - c1) if double else (c2,)
                if sign == -1:
                    lane[odd::2] = [-v for v in lane[odd::2]]
                if modulus:  # residues once, after the twist
                    lane = [v % modulus for v in lane]
                coeffs[start:stop:step] = lane
        remaining -= 2 if double else 1


# Exact arithmetic on integers of millions of digits: no rounding, an
# exponent range that a 2-million-digit product does not overflow, and
# quantize() truncating toward zero.
_KRONECKER = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                             Emin=decimal.MIN_EMIN, rounding=decimal.ROUND_DOWN)

# Coefficients packed into, or read back from, one string at a time by
# _kronecker_mul: no string or list of a whole operand is made.
KRONECKER_CHUNK = 1 << 13


def _slot_digits(terms: int, modulus: int) -> int:
    """Decimal digits of a Kronecker slot above terms * (modulus-1)^2, the
    largest coefficient of a product whose sparser operand has `terms`
    nonzero residues; from bit lengths, as str() of a long bound raises."""
    return (terms * (modulus - 1) ** 2).bit_length() * 30103 // 100000 + 1


def _pack(a: list, lo: int, hi: int, d: int):
    """The integer sum of a[lo + i] * 10^(d*i), lo + i < hi, as a Decimal
    built from the top chunk down.  Each distinct residue of a chunk is
    formatted once, and the chunk joined through that table."""
    ctx, fmt = _KRONECKER, "%0" + str(d) + "d"
    x = ctx.create_decimal(0)
    for top in range(min(hi, len(a)), lo, -KRONECKER_CHUNK):
        chunk = a[max(top - KRONECKER_CHUNK, lo):top]
        chunk.reverse()
        slot = {v: fmt % v for v in set(chunk)}
        x = ctx.add(x.scaleb(d * len(chunk), ctx),
                    ctx.create_decimal("".join(map(slot.__getitem__, chunk))))
    return x


def _unpack(x, n: int, start: int, modulus: int, d: int) -> list:
    """Coefficients start..n-1, mod modulus, of x, the product of two packed
    operands, read back a chunk at a time from the top."""
    ctx = _KRONECKER
    # int() refuses a string of more than 4300 digits; a Decimal does not
    parse = int if d <= 4300 else lambda s: int(ctx.create_decimal(s))
    out = [0] * (n - start)
    hi = n
    for lo in (n, *range(n - KRONECKER_CHUNK, start, -KRONECKER_CHUNK), start):
        high = x.quantize(ctx.create_decimal("1E%d" % (lo * d)), context=ctx)
        x = ctx.subtract(x, high)
        if lo < hi:  # coefficients lo..hi-1; those from n up are dropped
            s = str(high.scaleb(-lo * d, ctx)).zfill((hi - lo) * d)
            values = [parse(s[j:j + d]) % modulus for j in range(0, len(s), d)]
            values.reverse()
            out[lo - start:hi - start] = values
        hi = lo
    return out


def _kronecker_mul(a: list, b: list, length: int, modulus: int,
                   start: int = 0, split: bool = True) -> list:
    """Coefficients start..length-1 of a*b, mod modulus, for lists of
    residues mod modulus.

    Kronecker substitution q -> 10^d: an operand becomes one decimal
    integer, d digits per coefficient, and a product of two such integers,
    which libmpdec computes by a number-theoretic transform, holds each
    coefficient of the polynomial product in its own d digits: 10^d is above
    the nonzero entries of the sparser operand times (modulus-1)^2.  Without
    `split` that is one multiply.  With it, as the transform's buffers are
    several times the product's size, the product is taken as three of half
    the length, a*b = a0*b0 + q^h (a0*b1 + a1*b0) mod q^length with
    h = ceil(length/2), a0 and b0 the first h terms.  An operand passed as a
    temporary is freed once packed.
    """
    ctx = _KRONECKER
    terms = min(length, len(a) - a.count(0), len(b) - b.count(0))
    d = _slot_digits(terms, modulus)
    if not split:
        a = _pack(a, 0, length, d)
        b = _pack(b, 0, length, d)
        x = ctx.multiply(a, b)
        del a, b
        return _unpack(x, length, start, modulus, d)
    h = (length + 1) // 2
    a0, a1 = _pack(a, 0, h, d), _pack(a, h, length, d)
    del a
    b0, b1 = _pack(b, 0, h, d), _pack(b, h, length, d)
    del b
    x = ctx.add(ctx.multiply(a0, b1), ctx.multiply(a1, b0))
    del a1, b1
    x = ctx.add(ctx.multiply(a0, b0), x.scaleb(h * d, ctx))
    del a0, b0
    return _unpack(x, length, start, modulus, d)


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
    "eisenstein",
    "eta_product",
]
