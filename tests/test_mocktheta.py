import random
import tracemalloc

import pytest

from qcong import cache, mocktheta
from qcong.mocktheta import (
    CPLUS_DISPATCH,
    MAX_TABLE_INDEX,
    MockTables,
    c_series,
    cplus_entry,
    f_coeffs,
    omega_coeffs,
    required_depth,
)
from qcong.series import EXACT, Ring, pentagonal_coefficients

OMEGA_GOLDEN = [1, 2, 3, 4, 6, 8, 10, 14, 18, 22, 29, 36]
F_GOLDEN = [1, 1, -1, 1, 0, 0, -1, 1, 0, 1, -2, 1, -1, 2, -2, 2, -1]


# --- independent oracle: naive polynomial arithmetic, one full product per
# --- summand, no incremental recurrences shared with the implementation

def poly_mul(a, b, P):
    out = [0] * P
    for i, x in enumerate(a[:P]):
        if x:
            for j, y in enumerate(b[: P - i]):
                out[i + j] += x * y
    return out


def poly_inv(a, P):
    out = [0] * P
    out[0] = 1
    assert a[0] == 1
    for n in range(1, P):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, n + 1))
    return out


def naive_omega(N):
    P = N + 1
    total = [0] * P
    n = 0
    while 2 * n * (n + 1) <= N:
        den = [1]
        for k in range(0, n + 1):
            fac = [0] * P
            fac[0] = 1
            if 2 * k + 1 < P:
                fac[2 * k + 1] = -1
            den = poly_mul(den, poly_mul(fac, fac, P), P)
        term = poly_inv(den, P)
        off = 2 * n * (n + 1)
        for i in range(P - off):
            total[off + i] += term[i]
        n += 1
    return total


def naive_f(N):
    P = N + 1
    total = [0] * P
    n = 0
    while n * n <= N:
        den = [1]
        for k in range(1, n + 1):
            fac = [0] * P
            fac[0] = 1
            if k < P:
                fac[k] = 1
            den = poly_mul(den, fac, P)
        term = poly_inv(den + [0] * (P - len(den)), P)
        off = n * n
        for i in range(P - off):
            total[off + i] += term[i]
        n += 1
    return total


def watson_omega(N, m=0):
    """Watson's Appell-Lerch form
    omega(q) = (1/(q^2;q^2)_inf) sum_{n>=0} (-1)^n q^(3n(n+1)) (1+q^(2n+1))/(1-q^(2n+1)),
    from the pentagonal expansion of (q^2;q^2)_inf and geometric series only."""
    P = N + 1
    s = [0] * P
    n = 0
    while 3 * n * (n + 1) <= N:
        sign = -1 if n % 2 else 1
        base, step = 3 * n * (n + 1), 2 * n + 1
        s[base] += sign
        for e in range(base + step, P, step):   # (1+x)/(1-x) = 1 + 2x + 2x^2 + ...
            s[e] += 2 * sign
        n += 1
    euler = [(j, c) for j, c in enumerate(pentagonal_coefficients(2, P)) if c and j]
    out = [0] * P
    for k in range(P):   # out * (q^2;q^2)_inf = s
        v = s[k] - sum(c * out[k - j] for j, c in euler if j <= k)
        out[k] = v % m if m else v
    return out


def watson_f(N, m=0):
    """Watson's form
    f(q) = (1 + 4 sum_{n>=1} (-1)^n q^(n(3n+1)/2) / (1+q^n)) / (q;q)_inf
    (Watson 1936), from the pentagonal expansion of (q;q)_inf and geometric
    series only."""
    P = N + 1
    s = [0] * P
    s[0] = 1
    n = 1
    while n * (3 * n + 1) // 2 <= N:
        sign = -1 if n % 2 else 1
        for k, e in enumerate(range(n * (3 * n + 1) // 2, P, n)):  # 1/(1+x)
            s[e] += 4 * sign * (-1 if k % 2 else 1)
        n += 1
    euler = [(j, c) for j, c in enumerate(pentagonal_coefficients(1, P)) if c and j]
    out = [0] * P
    for k in range(P):   # out * (q;q)_inf = s
        v = s[k] - sum(c * out[k - j] for j, c in euler if j <= k)
        out[k] = v % m if m else v
    return out


# Ramanujan's third-order f, OEIS A000025
A000025 = [1, 1, -2, 3, -3, 3, -5, 7, -6, 6, -10, 12, -11, 13, -17, 20, -21]


def test_watson_f_oracle():
    assert watson_f(16) == A000025
    assert watson_f(16, 23) == [v % 23 for v in A000025]


@pytest.mark.xfail(strict=True, reason=(
    "known defect, ROADMAP item 1: f_coeffs builds sum q^(n^2)/(-q;q)_n, "
    "not Ramanujan's f = sum q^(n^2)/(-q;q)_n^2"))
def test_f_against_watson_form():
    N = 2000
    assert (f_coeffs(N), f_coeffs(N, Ring(23))) == (watson_f(N), watson_f(N, 23))


def test_omega_golden():
    assert omega_coeffs(11) == OMEGA_GOLDEN


def test_omega_table_values():
    t = omega_coeffs(16)
    assert t[16] == 101
    assert len(t) == 17


def test_f_golden():
    t = f_coeffs(16)
    assert t == F_GOLDEN
    assert t[0] == 1 and t[1] == 1


def test_against_naive_oracle():
    assert omega_coeffs(60) == naive_omega(60)
    assert f_coeffs(60) == naive_f(60)


@pytest.mark.parametrize("ring", [EXACT, Ring(23)], ids=["exact", "mod23"])
def test_omega_against_watson_form(ring):
    N = 2000
    assert omega_coeffs(N, ring) == watson_omega(N, ring.modulus)


@pytest.mark.parametrize("ring", [EXACT, Ring(23)], ids=["exact", "mod23"])
def test_builder_depth_boundaries(ring):
    # Every depth up to 200 is a prefix of the depth-200 table; this covers the
    # depths where the deepest summand changes: 2n(n+1) = 0, 4, 12, 24, ... for
    # omega and n^2 = 0, 1, 4, 9, ... for f.
    for builder in (omega_coeffs, f_coeffs):
        full = builder(200, ring)
        for N in range(201):
            assert builder(N, ring) == full[: N + 1], (builder.__name__, N)


def test_builder_closed_form_depths():
    # Each side of every depth where the deepest summand changes, for n <= 30:
    # 2n(n+1) for omega, n^2 for f.
    ring = Ring(23)
    for builder, edge in ((omega_coeffs, lambda n: 2 * n * (n + 1)),
                          (f_coeffs, lambda n: n * n)):
        full = builder(edge(30) + 1, ring)
        for n in range(1, 31):
            for N in (edge(n) - 1, edge(n), edge(n) + 1):
                assert builder(N, ring) == full[: N + 1], (builder.__name__, N)


# Depths whose P = 1/(q;q)_inf length N//2 + 1 sits at a Newton doubling
# edge, 2^j - 1, 2^j or 2^j + 1 (j <= 12), with both parities of N.
NEWTON_EDGE_DEPTHS = [2 * half - 2 + odd for j in range(1, 13)
                      for half in (2 ** j - 1, 2 ** j, 2 ** j + 1) for odd in (0, 1)]


@pytest.mark.parametrize("m", [5, 23, 529, 2 ** 64 + 13])
def test_modular_matches_exact(m):
    # exact Horner reduced mod m: the independent check of the mod-m
    # omega build, to 20000, and of the Watson build at every Newton edge,
    # where omega_coeffs may route a small depth to Horner
    exact = omega_coeffs(20000)
    assert omega_coeffs(20000, Ring(m)) == [v % m for v in exact]
    for N in NEWTON_EDGE_DEPTHS:
        assert mocktheta._omega_watson(N, m) == [v % m for v in exact[:N + 1]], N
    exact_f = f_coeffs(500)
    assert f_coeffs(500, Ring(m)) == [v % m for v in exact_f]


def refuse_watson(monkeypatch):
    def refuse(N, m):
        raise AssertionError(f"Watson build of {N} mod {m}")
    monkeypatch.setattr(mocktheta, "_omega_watson", refuse)


# edge: the first depth N that omega_coeffs builds mod m from Watson's
# form, as a Kronecker slot of the final products, d digits with
# 10^d > (N//2 + 1) (m-1)^2, has at most sqrt(N) digits from there on
@pytest.mark.parametrize("m, edge", [(23, 16), (2 ** 64 + 13, 1764),
                                     (10 ** 80 + 7, 27225)],
                         ids=["23", "2^64+13", "10^80+7"])
def test_omega_route_by_slot_width(monkeypatch, m, edge):
    exact = [v % m for v in omega_coeffs(edge)]
    assert omega_coeffs(edge, Ring(m)) == exact
    refuse_watson(monkeypatch)
    assert omega_coeffs(edge - 1, Ring(m)) == exact[:edge]
    with pytest.raises(AssertionError, match=f"Watson build of {edge} mod"):
        omega_coeffs(edge, Ring(m))


def test_modular_matches_exact_past_int_str_limit(monkeypatch):
    # 23^2856 (heckecheck --R 2856) has 3890 digits, so a Kronecker slot
    # would have about 7800, far above sqrt(560): the table comes from Horner
    m = 23 ** 2856
    refuse_watson(monkeypatch)
    assert omega_coeffs(560, Ring(m)) == [v % m for v in omega_coeffs(560)]


def test_c_plus_examples(tables_exact):
    c = c_series(-8, 4, 3, EXACT, tables_exact)
    assert (c[1], c[3], c[2]) == (-4, 0, 12)


def test_c_series_reads_omega_zero():
    # c(1) for (-8, 4) reads a_omega(0), a need ensure_all skips as unused
    assert required_depth(-8, 4, 1) == {"f": 0, "omega": 0}
    assert c_series(-8, 4, 1, EXACT) == [0, -4]


def test_c_plus_validation(tables_exact):
    for check in (cplus_entry, lambda *a: c_series(*a, EXACT, tables_exact)[a[2]]):
        with pytest.raises(ValueError):
            check(-8, 3, 1)  # 9 - (-8) = 17, not 0 mod 24
        with pytest.raises(ValueError):
            check(1, 1, 1)  # a square mod 24, but not negative: (1 + 1)/24
    with pytest.raises(ValueError):
        cplus_entry(-8, 4, 0)


def test_cplus_entry():
    # (kind, factor, index) with c(d) = factor * a_kind(index)
    assert cplus_entry(-8, 4, 1) == ("omega", -4, 0)     # key 4
    assert cplus_entry(-8, 4, 2) == ("omega", 4, 2)      # key 8
    assert cplus_entry(-8, 4, 3) is None                 # key 0
    assert cplus_entry(-8, 4, 5) == ("omega", 4, 16)     # key 8, (8*25-8)/12
    assert cplus_entry(-23, 1, 1) == ("f", 1, 1)         # key 1
    assert cplus_entry(-23, 1, 5) == ("f", -1, 24)       # key 5, (23*25+1)/24
    assert cplus_entry(-23, 1, 2) == ("omega", -4, 7)    # key 2, odd index
    assert cplus_entry(-23, 1, 4) == ("omega", -4, 30)   # key 4, even index
    assert cplus_entry(-23, 1, 10) == ("omega", 4, 191)  # key 10, odd index
    # every entry agrees with the table and the key of r*d mod 12
    t = MockTables(EXACT)
    for r in (4, -4, 20):
        c = c_series(-8, r, 39, EXACT, t)
        for d in range(1, 40):
            kind, sign = CPLUS_DISPATCH[r * d % 12]
            entry = cplus_entry(-8, r, d)
            assert (entry is None) == (kind == "zero")
            if entry:
                assert entry[0] == kind
                assert entry[1] == (sign if kind == "f" else -4 * sign)
                value = t.ensure(kind, entry[2]).values(kind)[entry[2]]
                assert c[d] == entry[1] * value


def test_dispatch_antisymmetry():
    for key in (1, 2, 4, 5):
        kind, sign = CPLUS_DISPATCH[key]
        kind2, sign2 = CPLUS_DISPATCH[12 - key]
        assert kind == kind2 and sign == -sign2
    # realized antisymmetry: negating r negates the dictionary values
    t = MockTables(EXACT)
    lhs = c_series(-8, 4, 29, EXACT, t)
    rhs = c_series(-8, -4, 29, EXACT, t)
    assert lhs == [-v for v in rhs]


def test_cplus_index_exact_for_every_twist():
    # cplus_entry divides without a check: for every fundamental delta in
    # -2000..-1, every r mod 24 with r^2 = delta and d = 1..48 (the residues
    # depend only on delta mod 24 and d mod 12) the division is exact, the
    # index is nonnegative, and an omega index is odd exactly on keys 2, 10
    checked = 0
    for delta in range(-2000, 0):
        if not _is_fund(delta):
            continue
        for r in range(24):
            if (r * r - delta) % 24:
                continue
            for d in range(1, 49):
                key = r * d % 12
                kind, _ = CPLUS_DISPATCH[key]
                entry = cplus_entry(delta, r, d)
                if kind == "zero":
                    assert entry is None
                    continue
                ad2 = abs(delta) * d * d
                num, den = (ad2 + 1, 24) if kind == "f" else (ad2 - 8, 12)
                assert num % den == 0 and num >= 0, (delta, r, d)
                assert entry[0] == kind and entry[2] == num // den
                if kind == "omega":
                    assert entry[2] % 2 == (key in (2, 10)), (delta, r, d)
                checked += 1
    assert checked > 20000  # the loop reached the dictionary (29952 entries)


def test_dispatch_integrality_random():
    # any valid (delta, r, d) reads a table entry that exists
    rng = random.Random(2024)
    fundamentals = [d for d in range(-200, 0)
                    if d % 4 in (0, 1) and _is_fund(d)]
    t = MockTables(EXACT)
    checked = 0
    while checked < 1000:
        delta = rng.choice(fundamentals)
        r = rng.randint(-24, 24)
        if (r * r - delta) % 24:
            continue
        d = rng.randint(1, 20)
        c_series(delta, r, d, EXACT, t)  # a negative index would raise here
        checked += 1


def _is_fund(d):
    from qcong.ntheory import is_fundamental_discriminant

    return is_fundamental_discriminant(d)


def test_c_series(tables_exact):
    c = c_series(-8, 4, 3, EXACT, tables_exact)
    assert c[1:] == [-4, 12, 0]
    c23 = c_series(-23, 1, 5, EXACT, tables_exact)
    assert c23[1] == 1  # a_f(1)
    assert c23[5] == -tables_exact.ensure("f", 24).values("f")[24]  # key 5, (23*25+1)/24


def test_required_depth():
    d = required_depth(-8, 4, 250)
    assert d["omega"] == (8 * 250 * 250 - 8) // 12
    assert d["f"] == 0
    d23 = required_depth(-23, 1, 100)
    assert d23["omega"] == (23 * 100 * 100 - 8) // 12
    assert d23["f"] == (23 * 97 * 97 + 1) // 24


def test_tables_growth():
    t = MockTables(Ring(23))
    assert t.source == {"f": None, "omega": None}
    assert t.ensure("omega", 16).values("omega")[16] == 101 % 23
    assert len(t.values("omega")) == 17
    assert t.source == {"f": None, "omega": "built"}
    with pytest.raises(ValueError):  # a negative index is never "covered"
        t.ensure("omega", -1)
    with pytest.raises(ValueError):
        MockTables(EXACT).ensure("omega", -1)
    t.ensure("omega", 10)  # no shrink
    assert len(t.values("omega")) == 17
    t.ensure("omega", 30)  # growth rebuilds to the new depth
    assert t.values("omega") == omega_coeffs(30, Ring(23))


def test_tables_refuse_index_above_limit(tmp_path):
    t = MockTables(Ring(23), tmp_path / "cache")
    with pytest.raises(ValueError, match="above the limit"):
        t.ensure("f", MAX_TABLE_INDEX + 1)
    # str() of an int past 4300 digits raises; such an index shows its size
    with pytest.raises(ValueError, match="^table index of about 5001 digits is "
                                         "above the limit 100000000$"):
        t.ensure("f", 10 ** 5000)
    assert t.source["f"] is None and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("builder", [omega_coeffs, f_coeffs])
def test_exact_build_peak_is_near_one_table(builder):
    # lanes are summed in LANE_CHUNK pieces, so the transient sums stay small
    # beside the finished table (a whole-lane kernel peaked at 2.2-2.5x)
    tracemalloc.start()
    try:
        table = builder(8000)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 8001
    assert peak <= 1.25 * size


def test_modular_omega_build_peak():
    # the Watson build peaks as it interleaves the two parities into the
    # table: measured 2.50x the finished table at 50000 (and at 260416);
    # the unsplit Newton products stay below, at 1.67x (1.72x), and with
    # the two parity products unsplit too the build peaked at 2.84x
    # (2.94x); the Horner build it replaced held 1.04x
    tracemalloc.start()
    try:
        table = omega_coeffs(50000, Ring(23))
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 50001
    assert peak <= 2.7 * size


def test_regrow_drops_the_held_table(monkeypatch):
    t = MockTables(Ring(23))
    held = []

    def builder(N, ring):
        held.append(list(t.values("omega")))
        return omega_coeffs(N, ring)

    monkeypatch.setitem(mocktheta._BUILDERS, "omega", builder)
    t.ensure("omega", 10).ensure("omega", 40)
    assert held == [[], []]
    assert t.values("omega") == omega_coeffs(40, Ring(23))


def test_ensure_all_checks_every_index_first(tmp_path, monkeypatch):
    def builder(N, ring):
        raise AssertionError("a table was built")

    monkeypatch.setitem(mocktheta._BUILDERS, "f", builder)
    t = MockTables(Ring(23), tmp_path / "cache")
    with pytest.raises(ValueError, match="above the limit"):
        t.ensure_all({"f": 10, "omega": MAX_TABLE_INDEX + 1})
    assert t.source == {"f": None, "omega": None}
    assert not (tmp_path / "cache").exists()
    t.ensure_all({"f": 0, "omega": 12})  # 0 marks an unused table
    assert t.source == {"f": None, "omega": "built"}


def test_store_loads_or_builds_once(tmp_path, monkeypatch):
    calls = []
    decoded = []  # entries each load_coeffs call returned
    for name in ("find_coeffs", "load_coeffs", "save_coeffs"):
        original = getattr(cache, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            result = _original(*args, **kwargs)
            if _name == "load_coeffs":
                decoded.append(len(result[1]))
            return result

        monkeypatch.setattr(cache, name, counted)
    ring = Ring(23)
    cold = MockTables(ring, tmp_path)
    assert cold.source == {"f": None, "omega": None}
    assert cold.ensure("omega", 40).values("omega") == omega_coeffs(40, ring)
    cold.ensure("omega", 30)
    assert calls == ["find_coeffs", "save_coeffs"]
    assert cold.source["omega"] == "built"
    assert [p.name for p in tmp_path.iterdir()] == ["omega_mod23_p40.qser"]

    calls.clear()
    warm = MockTables(ring, tmp_path)
    for upto in (10, 40, 25, 40):  # growing re-finds; a held table is reused
        warm.ensure("omega", upto)
    assert calls == ["find_coeffs", "load_coeffs"] * 2
    assert decoded == [11, 41]  # each load decodes exactly upto + 1 entries
    assert warm.source == {"f": None, "omega": "loaded"}
    assert warm.values("omega") == cold.values("omega")

    calls.clear()
    warm.ensure("omega", 41)  # deeper than any file: build and save again
    assert calls == ["find_coeffs", "save_coeffs"]
    assert warm.source["omega"] == "built"
    assert len(list(tmp_path.glob("omega_*.qser"))) == 2

