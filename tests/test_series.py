import random
from fractions import Fraction

import pytest

from qcong import series
from qcong.ntheory import NotInvertible
from qcong.series import (
    EXACT,
    LANE_CHUNK,
    NonIntegralNormalization,
    NonUnitConstantTerm,
    Ring,
    RingMismatch,
    Series,
    bernoulli,
    binomial_inverse_inplace,
    eisenstein,
    eta_product,
    pentagonal_coefficients,
)

MOD23 = Ring(23)


def geometric(ring, prec):
    return Series(ring, [1] * prec)


def rand_series(rng, ring, prec, unit_head=False):
    m = ring.modulus
    if m:
        coeffs = [rng.randrange(m) for _ in range(prec)]
        if unit_head:
            coeffs[0] = rng.choice([x for x in range(1, m) if _gcd(x, m) == 1])
    else:
        coeffs = [rng.randint(-9, 9) for _ in range(prec)]
        if unit_head:
            coeffs[0] = rng.choice((1, -1))
    return Series(ring, coeffs)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(1)
    with pytest.raises(ValueError):
        Ring(-2)
    assert Ring(0).normalize(-5) == -5
    assert Ring(23).normalize(-1) == 22


def test_add_sub_neg_scale():
    a = Series(EXACT, [1, 1], prec=4)
    b = Series(EXACT, [1, -1], prec=4)
    assert a.add(b).coeffs == [2, 0, 0, 0]
    assert Series(EXACT, [], prec=3).neg().coeffs == [0, 0, 0]
    assert Series(EXACT, [1, 1]).mul(Series(EXACT, [3], prec=2)).coeffs == [3, 3]
    assert a.add(b.neg()).coeffs == [0, 2, 0, 0]


def test_add_mismatches():
    with pytest.raises(RingMismatch):
        Series(EXACT, [1]).add(Series(MOD23, [1]))


def test_mul():
    a = Series(EXACT, [1, 1], prec=4)
    b = Series(EXACT, [1, -1], prec=4)
    assert a.mul(b).coeffs == [1, 0, -1, 0]
    one = Series(EXACT, [1], prec=4)
    g = geometric(EXACT, 5)
    assert g.mul(Series(EXACT, one.mul(g).coeffs[:4])).prec == 4
    assert g.mul(g).coeffs == [1, 2, 3, 4, 5]
    assert a.mul(one).coeffs == a.coeffs


def test_invert():
    g = Series(EXACT, [1, -1], prec=8).invert()
    assert g.coeffs == [1] * 8
    assert Series(EXACT, [1], prec=5).invert().coeffs == [1, 0, 0, 0, 0]
    assert Series(MOD23, [2], prec=3).invert().coeffs == [12, 0, 0]
    with pytest.raises(NonUnitConstantTerm):
        Series(EXACT, [2], prec=3).invert()
    with pytest.raises(NonUnitConstantTerm):
        Series(Ring(9), [6], prec=3).invert()


def test_invert_random_roundtrip():
    rng = random.Random(99)
    for _ in range(50):
        s = rand_series(rng, MOD23, 32, unit_head=True)
        assert s.mul(s.invert()).coeffs == [1] + [0] * 31
    for _ in range(50):
        s = rand_series(rng, EXACT, 24, unit_head=True)
        assert s.mul(s.invert()).coeffs == [1] + [0] * 23


def mul_binomial_inverse(a, step, sign, e):
    c = list(a.coeffs)
    binomial_inverse_inplace(c, step, sign, e, a.ring.modulus)
    return c


def test_mul_binomial_inverse():
    one = Series(EXACT, [1], prec=8)
    assert mul_binomial_inverse(one, 1, 1, 1) == [1] * 8
    assert mul_binomial_inverse(one, 2, 1, 2) == [1, 0, 2, 0, 3, 0, 4, 0]
    assert mul_binomial_inverse(one, 1, -1, 1) == [1, -1, 1, -1, 1, -1, 1, -1]
    # (1+q)^-2 = sum (-1)^n (n+1) q^n: the fused double pass with sign -1
    assert mul_binomial_inverse(one, 1, -1, 2) == [1, -2, 3, -4, 5, -6, 7, -8]
    # matches the generic route a * invert(1 - sign q^step)^e
    rng = random.Random(5)
    for ring in (EXACT, MOD23):
        for _ in range(20):
            a = rand_series(rng, ring, 20)
            step = rng.randint(1, 4)
            sign = rng.choice((1, -1))
            e = rng.randint(1, 3)
            binom = Series.monomial(ring, step, 20, coeff=-sign)
            binom = binom.add(Series(ring, [1], prec=20))
            expect = a.mul(binom.invert().pow(e))
            assert mul_binomial_inverse(a, step, sign, e) == expect.coeffs


def literal_binomial_inverse(c, step, sign, exponent, modulus):
    """c[n] += sign*c[n-step], one pass per exponent unit, on a copy."""
    c = list(c)
    for _ in range(exponent):
        for n in range(step, len(c)):
            c[n] += sign * c[n - step]
            if modulus:
                c[n] %= modulus
    return c


@pytest.mark.parametrize("modulus", [0, 23, 529])
@pytest.mark.parametrize("lane_len", [1, LANE_CHUNK - 1, LANE_CHUNK,
                                      LANE_CHUNK + 1, 3 * LANE_CHUNK + 1])
def test_binomial_inverse_matches_literal_recurrence(lane_len, modulus):
    # lanes that fit one chunk, fill it, and cross one or three boundaries
    rng = random.Random(lane_len * 1000 + modulus)
    for step in (1, 2, 7):
        start = [rng.randint(-9, 9) for _ in range(lane_len * step)]
        if modulus:
            start = [v % modulus for v in start]
        for sign in (1, -1):
            for exponent in (1, 2, 3, 4):
                c = list(start)
                binomial_inverse_inplace(c, step, sign, exponent, modulus)
                assert c == literal_binomial_inverse(start, step, sign, exponent, modulus), (
                    step, sign, exponent)


@pytest.mark.parametrize("chunk", [2, 3, 5])
def test_binomial_inverse_small_chunks(monkeypatch, chunk):
    # odd chunk sizes put the twist's parity and both carries mid-lane
    monkeypatch.setattr(series, "LANE_CHUNK", chunk)
    rng = random.Random(chunk)
    for _ in range(150):
        modulus = rng.choice((0, 23, 529))
        step, sign, exponent = rng.randint(1, 4), rng.choice((1, -1)), rng.randint(1, 4)
        start = [rng.randint(-9, 9) for _ in range(rng.randint(1, 40))]
        if modulus:
            start = [v % modulus for v in start]
        c = list(start)
        binomial_inverse_inplace(c, step, sign, exponent, modulus)
        assert c == literal_binomial_inverse(start, step, sign, exponent, modulus)


def test_pow():
    a = Series(EXACT, [1, 1], prec=4)
    assert a.pow(0).coeffs == [1, 0, 0, 0]
    assert a.pow(1).coeffs == a.coeffs
    assert a.pow(2).coeffs == [1, 2, 1, 0]


def test_eta_product():
    # (series, t): the integer part of scale/24 is a shift, t/24 is left over
    e, off = eta_product(1, 13, EXACT)
    assert e.coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    assert off == 1
    e24, off24 = eta_product(24, 30, EXACT)
    assert off24 == 0
    assert e24.coeffs[0] == 0 and e24.coeffs[1] == 1  # shift 1 applied
    assert e24.coeffs[25] == -1
    e25, off25 = eta_product(25, 30, EXACT)
    assert off25 == 1
    assert e25.coeffs[1] == 1
    assert e25.prec == 30


def test_pentagonal_sparsity():
    c = pentagonal_coefficients(1, 1000)
    assert sum(1 for v in c if v) <= 2 * int((2 * 1000 / 3) ** 0.5) + 2


def test_bernoulli():
    expected = {
        0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
        4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
        10: Fraction(5, 66), 12: Fraction(-691, 2730), 3: Fraction(0),
    }
    for k, v in expected.items():
        assert bernoulli(k) == v
    assert bernoulli(64).denominator > 1


def test_eisenstein():
    e4 = eisenstein(4, 3, EXACT)
    assert e4.coeffs == [1, 240, 2160]
    e6 = eisenstein(6, 2, EXACT)
    assert e6.coeffs == [1, -504]
    with pytest.raises(ValueError):
        eisenstein(5, 4, EXACT)
    with pytest.raises(NonIntegralNormalization):
        eisenstein(12, 4, EXACT)
    assert eisenstein(12, 4, MOD23).coeffs[0] == 1
    with pytest.raises(NotInvertible):
        eisenstein(12, 4, Ring(691))


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 23])
def test_eisenstein_hasse_congruence(ell):
    e = eisenstein(ell - 1, 200, Ring(ell))
    assert e.coeffs[0] == 1
    assert all(c == 0 for c in e.coeffs[1:])


def test_reduce_mod():
    # a series is reduced into Z/m by constructing it over Ring(m)
    assert Series(MOD23, [-1, 0, 24]).coeffs == [22, 0, 1]
    assert Series(Ring(5), Series(MOD23, [22, 6]).coeffs).coeffs == [2, 1]


def test_reduce_mod_commutes_with_mul():
    rng = random.Random(31)
    for _ in range(30):
        a = rand_series(rng, EXACT, 20)
        b = rand_series(rng, EXACT, 20)
        assert Series(MOD23, a.mul(b).coeffs) == \
            Series(MOD23, a.coeffs).mul(Series(MOD23, b.coeffs))


def test_ring_axioms_random():
    rng = random.Random(41)
    for ring in (EXACT, MOD23):
        for _ in range(10):
            a = rand_series(rng, ring, 64)
            b = rand_series(rng, ring, 64)
            c = rand_series(rng, ring, 64)
            assert a.mul(b.add(c)).coeffs == a.mul(b).add(a.mul(c)).coeffs
            assert a.mul(b).mul(c).coeffs == a.mul(b.mul(c)).coeffs
            assert a.add(b).coeffs == b.add(a).coeffs


def test_shifted():
    s = Series(EXACT, [1, 2, 3])
    up = s.shifted(2)
    assert up.coeffs == [0, 0, 1, 2, 3] and up.prec == 5
    down = up.shifted(-2)
    assert down.coeffs == [1, 2, 3]
    with pytest.raises(ValueError):
        s.shifted(-1)
