import random

import pytest

from qcong import cache
from qcong.mocktheta import (
    CPLUS_DISPATCH,
    CPlusQuery,
    MockTables,
    c_plus,
    c_series,
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


def test_omega_golden():
    assert omega_coeffs(11).values == OMEGA_GOLDEN


def test_omega_table_values():
    t = omega_coeffs(16)
    assert t.values[16] == 101
    assert t.which == "omega" and t.upto == 16 and len(t.values) == 17


def test_f_golden():
    t = f_coeffs(16)
    assert t.values == F_GOLDEN
    assert t.values[0] == 1 and t.values[1] == 1


def test_against_naive_oracle():
    assert omega_coeffs(60).values == naive_omega(60)
    assert f_coeffs(60).values == naive_f(60)


@pytest.mark.parametrize("ring", [EXACT, Ring(23)], ids=["exact", "mod23"])
def test_omega_against_watson_form(ring):
    N = 2000
    assert omega_coeffs(N, ring).values == watson_omega(N, ring.modulus)


@pytest.mark.parametrize("ring", [EXACT, Ring(23)], ids=["exact", "mod23"])
def test_builder_depth_boundaries(ring):
    # Every depth up to 200 is a prefix of the depth-200 table; this covers the
    # depths where the deepest summand changes: 2n(n+1) = 0, 4, 12, 24, ... for
    # omega and n^2 = 0, 1, 4, 9, ... for f.
    for builder in (omega_coeffs, f_coeffs):
        full = builder(200, ring).values
        for N in range(201):
            assert builder(N, ring).values == full[: N + 1], (builder.__name__, N)


@pytest.mark.parametrize("m", [5, 23])
def test_modular_matches_exact(m):
    exact = omega_coeffs(2000).values
    modular = omega_coeffs(2000, Ring(m)).values
    assert modular == [v % m for v in exact]
    exact_f = f_coeffs(500).values
    assert f_coeffs(500, Ring(m)).values == [v % m for v in exact_f]


def test_c_plus_examples(tables_exact):
    assert c_plus(CPlusQuery(-8, 4, 1), tables_exact) == -4
    assert c_plus(CPlusQuery(-8, 4, 3), tables_exact) == 0
    assert c_plus(CPlusQuery(-8, 4, 2), tables_exact) == 12


def test_c_plus_validation():
    with pytest.raises(ValueError):
        CPlusQuery(-8, 3, 1)  # 9 - (-8) = 17, not 0 mod 24
    with pytest.raises(ValueError):
        CPlusQuery(-8, 4, 0)


def test_dispatch_antisymmetry():
    for key in (1, 2, 4, 5):
        kind, sign = CPLUS_DISPATCH[key]
        kind2, sign2 = CPLUS_DISPATCH[12 - key]
        assert kind == kind2 and sign == -sign2
    # realized antisymmetry: negating r negates the dictionary values
    t = MockTables(EXACT)
    for d in range(1, 30):
        lhs = c_plus(CPlusQuery(-8, 4, d), t)
        rhs = c_plus(CPlusQuery(-8, -4, d), t)
        assert lhs == -rhs


def test_dispatch_integrality_random():
    # any valid (delta, r, d) dispatches to a nonnegative integral index
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
        c_plus(CPlusQuery(delta, r, d), t)  # raises on any integrality breach
        checked += 1


def _is_fund(d):
    from qcong.ntheory import is_fundamental_discriminant

    return is_fundamental_discriminant(d)


def test_c_series(tables_exact):
    c = c_series(-8, 4, 3, EXACT, tables_exact)
    assert c[1:] == [-4, 12, 0]
    c23 = c_series(-23, 1, 5, EXACT, tables_exact)
    assert c23[1] == 1  # a_f(1)
    assert c23[5] == -tables_exact.a_f(24)  # key 5, index (23*25+1)/24


def test_required_depth():
    d = required_depth(-8, 4, 250)
    assert d["omega"] == (8 * 250 * 250 - 8) // 12
    assert d["f"] == 0
    d23 = required_depth(-23, 1, 100)
    assert d23["omega"] == (23 * 100 * 100 - 8) // 12
    assert d23["f"] == (23 * 97 * 97 + 1) // 24


def test_tables_growth_and_preload():
    t = MockTables(Ring(23))
    assert t.a_omega(16) == 101 % 23
    assert t.depth("omega") == 16
    t.ensure("omega", 10)  # no shrink
    assert t.depth("omega") == 16
    t2 = MockTables(Ring(23))
    t2.preload("omega", omega_coeffs(30, Ring(23)).values)
    assert t2.depth("omega") == 30
    assert t2.source == {"f": None, "omega": "loaded"}
    with pytest.raises(ValueError):
        t2.preload("nope", [1])


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
    assert cold.a_omega(40) == omega_coeffs(40, ring).values[40]
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

