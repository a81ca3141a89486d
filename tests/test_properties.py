"""Property tests (hypothesis): the f/omega builders against reduction
mod m, and the coefficient store against direct builds."""

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcong.mocktheta import MockTables, f_coeffs, omega_coeffs  # noqa: E402
from qcong.series import EXACT, Ring, Series  # noqa: E402

BUILDERS = {"f": f_coeffs, "omega": omega_coeffs}


@settings(deadline=None, max_examples=60)
@given(which=st.sampled_from(sorted(BUILDERS)), N=st.integers(0, 300),
       m=st.integers(2, 60))
def test_builders_commute_with_reduce_mod(which, N, m):
    build = BUILDERS[which]
    exact = Series(EXACT, build(N).values)
    assert build(N, Ring(m)).values == exact.reduce_mod(m).coeffs


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
            assert tables.depth(which) >= upto
            assert tables.source[which] in ("loaded", "built")
            got = tables.values(which)[: upto + 1]
            assert got == BUILDERS[which](upto, ring).values
