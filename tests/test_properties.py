"""Property tests (hypothesis): the f/omega builders against reduction
mod m, the coefficient store against direct builds, the b <-> c inversion
over random twists, and the linearity of the Hecke operator."""

import tempfile
from functools import lru_cache
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qcong.borcherds import TwistParams, b_from_c, c_from_b, exact_c1  # noqa: E402
from qcong.hecke import hecke_operator  # noqa: E402
from qcong.mocktheta import MockTables, c_series, f_coeffs, omega_coeffs  # noqa: E402
from qcong.ntheory import is_fundamental_discriminant  # noqa: E402
from qcong.series import EXACT, Ring, Series  # noqa: E402

BUILDERS = {"f": f_coeffs, "omega": omega_coeffs}


@settings(deadline=None, max_examples=60)
@given(which=st.sampled_from(sorted(BUILDERS)), N=st.integers(0, 300),
       m=st.integers(2, 60))
def test_builders_commute_with_reduce_mod(which, N, m):
    build = BUILDERS[which]
    exact = Series(EXACT, build(N))
    assert build(N, Ring(m)) == Series(Ring(m), exact.coeffs).coeffs


CALLS = st.lists(
    st.tuples(st.sampled_from(sorted(BUILDERS)), st.integers(0, 300),
              st.booleans()),
    min_size=1, max_size=8,
)


@settings(deadline=None, max_examples=40)
@given(calls=CALLS, m=st.sampled_from([0, 2, 23, 59]))
@pytest.mark.parametrize("cached", [False, True])
def test_store_matches_direct_build(cached, calls, m):
    """Each call ensures (which, upto); `fresh` starts a new store, as a new
    command over the same cache directory would."""
    ring = Ring(m) if m else EXACT
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = tmp if cached else None
        tables = MockTables(ring, cache_dir)
        for which, upto, fresh in calls:
            if fresh:
                tables = MockTables(ring, cache_dir)
            tables.ensure(which, upto)
            assert len(tables.values(which)) > upto
            assert tables.source[which] in ("loaded", "built")
            got = tables.values(which)[: upto + 1]
            assert got == BUILDERS[which](upto, ring)


# Valid twists: delta a negative fundamental discriminant, delta = r^2
# (mod 24), c(1) != 0.
TWISTS = [
    (delta, r)
    for delta in range(-100, 0) if is_fundamental_discriminant(delta)
    for r in range(-12, 13)
    if (r * r - delta) % 24 == 0 and exact_c1(TwistParams(delta, r))
]
MAX_N = 20


@lru_cache(maxsize=None)
def _tables(m):
    """One store per ring, deep enough for every twist at n <= MAX_N."""
    tables = MockTables(Ring(m) if m else EXACT)
    tables.ensure("omega", (100 * MAX_N * MAX_N - 8) // 12)
    tables.ensure("f", (100 * MAX_N * MAX_N + 1) // 24)
    return tables


@settings(deadline=None, max_examples=60)
@given(twist=st.sampled_from(TWISTS), n=st.integers(1, MAX_N),
       m=st.sampled_from([0, 23]))
def test_c_to_b_to_c(twist, n, m):
    delta, r = twist
    tables = _tables(m)
    c = c_series(delta, r, n, tables.ring, tables)
    assume(tables.ring.is_unit(c[1]))
    b = [0] + [b_from_c(c, k, delta, tables.ring) for k in range(1, n + 1)]
    assert b[1] == 1
    assert [c_from_b(b, k, delta, c[1], tables.ring)
            for k in range(1, n + 1)] == c[1:]


@settings(deadline=None, max_examples=60)
@given(twist=st.sampled_from(TWISTS), n=st.integers(1, MAX_N),
       m=st.sampled_from([0, 23]), data=st.data())
def test_b_to_c_to_b(twist, n, m, data):
    """A random b with b(1) = 1: the twist's own b plus a multiple of
    lcm(1..n) in the exact ring (so that c_from_b divides exactly), any
    residues mod 23."""
    delta, r = twist
    tables = _tables(m)
    ring = tables.ring
    c = c_series(delta, r, n, ring, tables)
    assume(ring.is_unit(c[1]))
    b = [0] + [b_from_c(c, k, delta, ring) for k in range(1, n + 1)]
    step = lcm(*range(1, n + 1)) if m == 0 else 1
    noise = data.draw(st.lists(st.integers(-50, 50), min_size=n - 1,
                               max_size=n - 1))
    b[2:] = [ring.normalize(v + step * x) for v, x in zip(b[2:], noise)]
    back = [0] + [c_from_b(b, k, delta, c[1], ring) for k in range(1, n + 1)]
    assert [b_from_c(back, k, delta, ring) for k in range(1, n + 1)] == b[1:]


COEFFS = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=120)


@settings(deadline=None, max_examples=80)
@given(F=COEFFS, G=COEFFS, a=st.integers(-10 ** 4, 10 ** 4),
       k=st.integers(2, 46), m=st.sampled_from([0, 23, 529]), data=st.data())
def test_hecke_operator_linear_random(F, G, a, k, m, data):
    """T_p(a F + G) = a T_p F + T_p G."""
    ring = Ring(m) if m else EXACT
    P = min(len(F), len(G))
    # p is drawn among the primes the precision allows, not filtered
    # afterwards: filtering small lists tripped hypothesis' health check
    p = data.draw(st.sampled_from([q for q in (2, 3, 5, 7, 11) if q <= P]))
    F, G = Series(ring, F[:P]), Series(ring, G[:P])
    def scaled(s):
        return Series(ring, [a * x for x in s.coeffs])

    lhs = hecke_operator(scaled(F).add(G), p, k)
    rhs = scaled(hecke_operator(F, p, k)).add(hecke_operator(G, p, k))
    assert lhs == rhs
