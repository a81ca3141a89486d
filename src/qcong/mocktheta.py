"""Coefficient streams for the mock theta functions f and omega, and the
dictionary mapping twisted index pairs to signed f/omega coefficients,
which only `cplus_entry` reads: every other caller goes through it."""

from math import isqrt

from . import cache
from .series import EXACT, Ring, binomial_inverse_inplace


# Power of (-q;q)_n in the denominator of f's summands.
F_DENOMINATOR_EXPONENT = 1

# Deepest table index MockTables will hold: past a_omega(6510416), the
# paper's M = 5 row, and short of its M = 6 row at 162760416.
MAX_TABLE_INDEX = 10 ** 8

# No c(d) with d > MAX_TABLE_D reads a table index within MAX_TABLE_INDEX:
# every twist has |delta| >= 8, and c(d) reads a_f((|delta| d^2 + 1)/24) or
# a_omega((|delta| d^2 - 8)/12).
MAX_TABLE_D = isqrt(3 * MAX_TABLE_INDEX)


def omega_coeffs(N: int, ring: Ring = EXACT) -> list:
    """a_omega(0..N) for omega(q) = sum_n q^(2n(n+1)) / ((1-q)(1-q^3)...(1-q^(2n+1)))^2.

    Nested (Horner) scheme from the deepest reachable summand outwards:
    T_n = (1 + q^(4(n+1)) T_(n+1)) / (1 - q^(2n+1))^2 and omega = T_0, with
    T_n kept to the N + 1 - 2n(n+1) coefficients it contributes.  Each level
    is one binomial-inverse call, so a_omega(0..N) costs O(sqrt N) passes of
    at most O(N) each.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    m = ring.modulus
    n = (isqrt(2 * N + 1) - 1) // 2  # the largest n with 2n(n+1) <= N
    t = [1] + [0] * (N - 2 * n * (n + 1))
    while True:
        binomial_inverse_inplace(t, 2 * n + 1, 1, 2, m)
        if n == 0:
            break
        t[:0] = [1] + [0] * (4 * n - 1)
        n -= 1
    return t


def f_coeffs(N: int, ring: Ring = EXACT) -> list:
    """a_f(0..N) for f(q) = sum_n q^(n^2) / ((1+q)(1+q^2)...(1+q^n))^e with
    e = F_DENOMINATOR_EXPONENT; for e = 1 the expansion begins
    1 + q - q^2 + q^3 - q^6 + q^7 + ...

    Same nested scheme as omega_coeffs: T_n = 1 + q^(2n+1) T_(n+1) / (1 + q^(n+1))^e
    and f = T_0, with T_n kept to N + 1 - n^2 coefficients.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    m = ring.modulus
    n = isqrt(N)
    t = [1] + [0] * (N - n * n)
    while n:
        binomial_inverse_inplace(t, n, -1, F_DENOMINATOR_EXPONENT, m)
        t[:0] = [1] + [0] * (2 * n - 2)
        n -= 1
    return t


_BUILDERS = {"f": f_coeffs, "omega": omega_coeffs}


def _check_index(upto: int):
    if upto < 0:
        raise ValueError(f"table index {upto} must be nonnegative")
    if upto > MAX_TABLE_INDEX:
        # str() refuses an int of more than 4300 digits: a long one shows its size
        digits = upto.bit_length() * 30103 // 100000 + 1
        shown = upto if digits <= 100 else f"of about {digits} digits"
        raise ValueError(f"table index {shown} is above the limit {MAX_TABLE_INDEX}")


class MockTables:
    """The f/omega coefficient store over a fixed ring.

    `ensure(which, upto)` keeps a held table that already covers `upto`;
    otherwise it drops that table and goes through `cache.load_or_build`:
    the deepest cached file covering `upto` (a binary file only through
    index `upto`), else a build that is then saved.  Growing reads or
    rebuilds again, so callers should ensure the maximum depth up front,
    with `ensure_all`.  `source[which]` is "loaded", "built" or None (not
    yet needed).  A negative `upto`, or one above MAX_TABLE_INDEX, is a
    ValueError.
    """

    def __init__(self, ring: Ring = EXACT, cache_dir=None):
        self.ring = ring
        self.cache_dir = cache_dir
        self._tables = {"f": [], "omega": []}
        self.source = {"f": None, "omega": None}

    def ensure(self, which: str, upto: int):
        _check_index(upto)
        if len(self._tables[which]) > upto:
            return self
        self._tables[which] = []  # not held beside its successor
        self._tables[which], self.source[which] = cache.load_or_build(
            self.cache_dir, which, self.ring.modulus, upto,
            lambda: _BUILDERS[which](upto, self.ring))
        return self

    def ensure_all(self, needs: dict):
        """Ensure each table of `needs` ({which: upto}, 0 for unused) once
        every index has passed the checks, so a refused request builds and
        caches nothing."""
        for upto in needs.values():
            _check_index(upto)
        for which, upto in needs.items():
            if upto:
                self.ensure(which, upto)
        return self

    def values(self, which: str) -> list:
        return self._tables[which]


# key = r*d mod 12 -> (kind, sign).  Keys 0 mod 3 vanish; odd keys read off
# a_f with sign pattern +,-,+,- on 1,5,7,11; even keys read off -4*a_omega
# with sign + on 2,4 and - on 8,10.  The sign table is antisymmetric under
# key -> 12 - key.
CPLUS_DISPATCH = {
    0: ("zero", 0), 3: ("zero", 0), 6: ("zero", 0), 9: ("zero", 0),
    1: ("f", 1), 7: ("f", 1), 5: ("f", -1), 11: ("f", -1),
    2: ("omega", 1), 10: ("omega", -1), 4: ("omega", 1), 8: ("omega", -1),
}


def cplus_entry(delta: int, r: int, d: int):
    """The dictionary entry behind c(d) = c^+(|delta| d^2 / 24, r d / 12):
    (kind, factor, index) with c(d) = factor * a_kind(index), or None where
    c(d) vanishes.  The factor is +-1 for f and the folded -+4 for omega;
    f indices are (|delta| d^2 + 1)/24, omega indices (|delta| d^2 - 8)/12.
    Needs delta < 0 with delta = r^2 (mod 24), and d >= 1; these make both
    divisions exact and the indices nonnegative (no delta in -7..-1 is a
    square mod 24)."""
    if delta >= 0 or (r * r - delta) % 24 != 0:
        raise ValueError(f"need delta < 0 and delta = r^2 (mod 24), got ({delta}, {r})")
    if d < 1:
        raise ValueError("d must be positive")
    key = (r * d) % 12
    kind, sign = CPLUS_DISPATCH[key]
    if kind == "zero":
        return None
    ad2 = abs(delta) * d * d
    if kind == "f":
        return kind, sign, (ad2 + 1) // 24
    return kind, -4 * sign, (ad2 - 8) // 12


def required_depth(delta: int, r: int, D: int) -> dict:
    """Deepest f/omega table indices needed for c(d), d <= D (0 if unused)."""
    out = {"f": 0, "omega": 0}
    # Keys cycle mod 12 and indices grow with d: the last 12 d suffice.
    for d in range(max(D - 11, 1), D + 1):
        entry = cplus_entry(delta, r, d)
        if entry is not None:
            out[entry[0]] = entry[2]
    return out


def c_series(delta: int, r: int, D: int, ring: Ring,
             tables: MockTables = None) -> list:
    """c(d) for d = 1..D as a list with c[0] = 0: the one reader of c(d).
    Each index is ensured too, as ensure_all skips a need of 0 (a_omega(0))."""
    tables = tables or MockTables(ring)
    if tables.ring != ring:
        raise ValueError("tables ring does not match requested ring")
    tables.ensure_all(required_depth(delta, r, D))
    out = [0] * (D + 1)
    for d in range(1, D + 1):
        entry = cplus_entry(delta, r, d)
        if entry is not None:
            kind, factor, idx = entry
            out[d] = ring.normalize(factor * tables.ensure(kind, idx).values(kind)[idx])
    return out


__all__ = [
    "MockTables",
    "c_series",
    "cplus_entry",
    "f_coeffs",
    "omega_coeffs",
    "required_depth",
]
