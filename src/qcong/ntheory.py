"""Number-theoretic primitives: Kronecker symbols, factorizations, divisor
lists, Moebius, primes, modular inverses, fundamental discriminants, and
the one numeric Gauss-sum oracle (fixed-point complex exponentials)."""

from functools import lru_cache
from math import gcd


class NotInvertible(ValueError):
    """Raised when an element has no inverse in the requested ring."""


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), fully extended to all integer pairs.

    Conventions: (a/0) = 1 iff a = +-1 else 0; (a/-1) = -1 iff a < 0;
    (a/2) follows the mod-8 rule and vanishes for even a.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a == 0:
        return 1 if n in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # n is now odd and positive: ordinary Jacobi symbol by reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factorize(n: int) -> dict:
    """Prime factorization of |n| as {prime: exponent} by trial division."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015); is_prime refuses anything at or above it.
_PRIME_TEST_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _PRIME_TEST_BOUND."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {_PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n + 1) if sieve[i]]


def moebius(n: int) -> int:
    """Moebius function; 0 exactly when n is not squarefree."""
    if n < 1:
        raise ValueError("n must be positive")
    sign = 1
    for e in factorize(n).values():
        if e > 1:
            return 0
        sign = -sign
    return sign


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m >= 2; raises NotInvertible when gcd(a, m) > 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {m}") from None


def is_fundamental_discriminant(d: int) -> bool:
    """True iff d is a fundamental discriminant (either sign, d != 0).

    Either d = 1 (mod 4) and squarefree, or d = 4m with m = 2 or 3 (mod 4)
    and m squarefree.  The unit discriminant 1 qualifies.
    """
    if d == 0:
        raise ValueError("0 is not a discriminant")
    if d % 4 == 1:
        return moebius(abs(d)) != 0
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and moebius(abs(m)) != 0
    return False


def splitting_type(ell: int, delta: int) -> str:
    """Behaviour of the prime ell in the quadratic field of discriminant delta:
    'ramified' when ell | delta, else 'split'/'inert' by the Kronecker symbol."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if delta % ell == 0:
        return "ramified"
    return "split" if kronecker(delta, ell) == 1 else "inert"


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


@lru_cache
def _fp_gauss_table(delta: int, scale: int) -> tuple:
    """G(a, delta) = sum_{s mod |delta|} (delta/s) e(a*s/delta) for
    a = 0..|delta|-1, as scale-scaled integer (real, imag) pairs.

    The exponentials are evaluated from first principles in fixed-point
    arithmetic at the caller's scale (pi by Machin's formula, Taylor
    sin/cos); e(a*s/delta) has angle 2*pi*((sign(delta)*a*s) mod |delta|)/|delta|.
    Memoised per (delta, scale), as a tuple so no caller can change it.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    ad = abs(delta)
    sign = 1 if delta > 0 else -1
    pi_fp = _fp_pi(scale)
    unit = [_fp_sincos(t, ad, scale, pi_fp) for t in range(ad)]
    chi = [kronecker(delta, s) for s in range(ad)]
    table = []
    for a in range(ad):
        re = im = 0
        for s in range(ad):
            if chi[s]:
                sn, cs = unit[sign * a * s % ad]
                re += chi[s] * cs
                im += chi[s] * sn
        table.append((re, im))
    return tuple(table)


def gauss_sum_numeric(a: int, delta: int) -> complex:
    """G(a, delta) as a complex number, from _fp_gauss_table at 30 digits
    (borcherds.phi_raw_numeric reads the same table at a higher precision).

    For a fundamental discriminant delta, G(a, delta) = (delta/a) G(1, delta)
    for every a (both sides vanish when a shares a factor with delta)."""
    scale = 10 ** 30
    re, im = _fp_gauss_table(delta, scale)[a % abs(delta)]
    return complex(re / scale, im / scale)


__all__ = [
    "NotInvertible",
    "gauss_sum_numeric",
    "is_fundamental_discriminant",
    "kronecker",
    "mod_inverse",
    "moebius",
    "splitting_type",
]
