"""Coefficient streams for the mock theta functions f and omega, and the
dictionary mapping twisted index pairs to signed f/omega coefficients."""

from dataclasses import dataclass

from . import cache
from .series import EXACT, Ring, binomial_inverse_inplace


class IndexNotIntegral(ValueError):
    """The dispatched f/omega index is not a nonnegative integer."""


@dataclass
class MockCoeffTable:
    which: str            # "f" or "omega"
    ring: Ring
    upto: int
    values: list          # values[n] = a(n) for 0 <= n <= upto


# Power of (-q;q)_n in the denominator of f's summands.
F_DENOMINATOR_EXPONENT = 1


def omega_coeffs(N: int, ring: Ring = EXACT) -> MockCoeffTable:
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
    n = 0
    while 2 * (n + 1) * (n + 2) <= N:
        n += 1
    t = [1] + [0] * (N - 2 * n * (n + 1))
    while True:
        binomial_inverse_inplace(t, 2 * n + 1, 1, 2, m)
        if n == 0:
            break
        t[:0] = [1] + [0] * (4 * n - 1)
        n -= 1
    return MockCoeffTable("omega", ring, N, t)


def f_coeffs(N: int, ring: Ring = EXACT) -> MockCoeffTable:
    """a_f(0..N) for f(q) = sum_n q^(n^2) / ((1+q)(1+q^2)...(1+q^n))^e with
    e = F_DENOMINATOR_EXPONENT; for e = 1 the expansion begins
    1 + q - q^2 + q^3 - q^6 + q^7 + ...

    Same nested scheme as omega_coeffs: T_n = 1 + q^(2n+1) T_(n+1) / (1 + q^(n+1))^e
    and f = T_0, with T_n kept to N + 1 - n^2 coefficients.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    m = ring.modulus
    n = 0
    while (n + 1) * (n + 1) <= N:
        n += 1
    t = [1] + [0] * (N - n * n)
    while n:
        binomial_inverse_inplace(t, n, -1, F_DENOMINATOR_EXPONENT, m)
        t[:0] = [1] + [0] * (2 * n - 2)
        n -= 1
    return MockCoeffTable("f", ring, N, t)


_BUILDERS = {"f": f_coeffs, "omega": omega_coeffs}


class MockTables:
    """The f/omega coefficient store over a fixed ring.

    `ensure(which, upto)` keeps a held table that already covers `upto`.
    Otherwise, with a cache directory, it reads the deepest cached file
    covering `upto` (a binary file only through index `upto`); failing that
    it builds the table and saves it there (`cache.save_coeffs` picks the
    encoding from the modulus).  Growing reads or rebuilds again, so callers
    should ensure the maximum depth up front.  `source[which]` is "loaded",
    "built" or None (not yet needed).
    """

    def __init__(self, ring: Ring = EXACT, cache_dir=None):
        self.ring = ring
        self.cache_dir = cache_dir
        self._tables = {"f": [], "omega": []}
        self.source = {"f": None, "omega": None}

    def ensure(self, which: str, upto: int):
        if len(self._tables[which]) > upto:
            return self
        m = self.ring.modulus
        hit = self.cache_dir and cache.find_coeffs(self.cache_dir, which, m, upto)
        if hit:
            self._tables[which], self.source[which] = hit[1], "loaded"
            return self
        values = _BUILDERS[which](upto, self.ring).values
        self._tables[which], self.source[which] = values, "built"
        if self.cache_dir:
            cache.save_coeffs(self.cache_dir, which, values, m, upto)
        return self

    def preload(self, which: str, values: list):
        """Install externally supplied values (e.g. from a coefficient cache)."""
        if which not in self._tables:
            raise ValueError(f"unknown function {which!r}")
        if len(values) > len(self._tables[which]):
            self._tables[which] = list(values)
            self.source[which] = "loaded"
        return self

    def values(self, which: str) -> list:
        return self._tables[which]

    def depth(self, which: str) -> int:
        return len(self._tables[which]) - 1

    def a_f(self, n: int) -> int:
        self.ensure("f", n)
        return self._tables["f"][n]

    def a_omega(self, n: int) -> int:
        self.ensure("omega", n)
        return self._tables["omega"][n]


@dataclass
class CPlusQuery:
    delta: int
    r: int
    d: int

    def __post_init__(self):
        if (self.r * self.r - self.delta) % 24 != 0:
            raise ValueError(f"need delta = r^2 (mod 24), got ({self.delta}, {self.r})")
        if self.d < 1:
            raise ValueError("d must be positive")


# key = r*d mod 12 -> (kind, sign).  Keys 0 mod 3 vanish; odd keys read off
# a_f with sign pattern +,-,+,- on 1,5,7,11; even keys read off -4*a_omega
# with sign + on 2,4 and - on 8,10.  The sign table is antisymmetric under
# key -> 12 - key.
CPLUS_DISPATCH = {
    0: ("zero", 0), 3: ("zero", 0), 6: ("zero", 0), 9: ("zero", 0),
    1: ("f", 1), 7: ("f", 1), 5: ("f", -1), 11: ("f", -1),
    2: ("omega", 1), 10: ("omega", -1), 4: ("omega", 1), 8: ("omega", -1),
}


def cplus_index(delta: int, d: int, kind: str) -> int:
    """The f/omega table index addressed by the dictionary at divisor d."""
    ad2 = abs(delta) * d * d
    if kind == "f":
        num, den = ad2 + 1, 24
    else:
        num, den = ad2 - 8, 12
    if num % den or num < 0:
        raise IndexNotIntegral(
            f"index ({num})/{den} for {kind} at delta={delta}, d={d}"
        )
    return num // den


def c_plus(query: CPlusQuery, tables: MockTables) -> int:
    """Coefficient c(d) = c^+(|delta| d^2 / 24, r d / 12) of the holomorphic
    part, dispatched through the key = r*d mod 12 sign table.

    Omega-type keys carry the folded factor -4; the parity of the omega
    index is forced by delta = r^2 (mod 24) and is asserted defensively.
    """
    kind, sign = CPLUS_DISPATCH[(query.r * query.d) % 12]
    if kind == "zero":
        return 0
    idx = cplus_index(query.delta, query.d, kind)
    if kind == "f":
        return tables.ring.normalize(sign * tables.a_f(idx))
    key = (query.r * query.d) % 12
    assert idx % 2 == (1 if key in (2, 10) else 0), "omega index parity violated"
    return tables.ring.normalize(-4 * sign * tables.a_omega(idx))


def required_depth(delta: int, r: int, D: int) -> dict:
    """Deepest f/omega table indices needed for c(d), d <= D (0 if unused)."""
    out = {"f": 0, "omega": 0}
    for kind in ("f", "omega"):
        # The key pattern cycles mod 12, so 12 consecutive d suffice.
        for d in range(D, max(D - 12, 0), -1):
            k, _ = CPLUS_DISPATCH[(r * d) % 12]
            if k == kind:
                out[kind] = cplus_index(delta, d, kind)
                break
    return out


def c_series(delta: int, r: int, D: int, ring: Ring,
             tables: MockTables = None) -> list:
    """c(d) for d = 1..D as a list with c[0] = 0, growing tables as needed."""
    if tables is None:
        tables = MockTables(ring)
    if tables.ring != ring:
        raise ValueError("tables ring does not match requested ring")
    depths = required_depth(delta, r, D)
    for kind, depth in depths.items():
        if depth:
            tables.ensure(kind, depth)
    out = [0] * (D + 1)
    for d in range(1, D + 1):
        out[d] = c_plus(CPlusQuery(delta, r, d), tables)
    return out


__all__ = [
    "CPlusQuery",
    "CPLUS_DISPATCH",
    "IndexNotIntegral",
    "MockCoeffTable",
    "MockTables",
    "c_plus",
    "c_series",
    "cplus_index",
    "f_coeffs",
    "omega_coeffs",
    "required_depth",
]
