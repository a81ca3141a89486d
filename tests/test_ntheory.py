import cmath
import random

import pytest

from qcong.ntheory import (
    NotInvertible,
    _fp_gauss_table,
    divisors,
    gauss_sum_numeric,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    mod_inverse,
    moebius,
    primes_up_to,
    splitting_type,
)


def legendre(a, p):
    """Euler-criterion oracle for odd primes."""
    v = pow(a % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


@pytest.mark.parametrize("a,n,expected", [
    (-8, 3, 1),
    (-8, 5, -1),
    (-8, 2, 0),
    (-8, 1, 1),
    (1, 0, 1),
    (-1, 0, 1),
    (2, 0, 0),
    (0, 1, 1),
    (0, 5, 0),
    (5, -1, 1),
    (-5, -1, -1),
])
def test_kronecker_values(a, n, expected):
    assert kronecker(a, n) == expected


def test_kronecker_against_euler_criterion():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(1, p):
            assert kronecker(a, p) == legendre(a, p)
    # the splitting prime used throughout the 23-adic checks
    assert kronecker(-8, 23) == legendre(-8 % 23, 23) == -1


def test_kronecker_multiplicative():
    # complete multiplicativity in each argument (nonzero entries; the
    # zero conventions are pinned separately above)
    rng = random.Random(20130311)
    nonzero = lambda: rng.choice((-1, 1)) * rng.randint(1, 80)
    for _ in range(10_000):
        a, b, n = nonzero(), nonzero(), rng.randint(-60, 60)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        n, m = nonzero(), nonzero()
        assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def test_moebius():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert moebius(30) == -1
    for n in range(2, 10_001):
        total = sum(moebius(d) for d in divisors(n))
        assert total == 0, n


def test_mod_inverse():
    assert mod_inverse(5, 23) == 14
    assert 5 * 14 % 23 == 1
    assert mod_inverse(1, 7) == 1
    with pytest.raises(NotInvertible):
        mod_inverse(6, 9)
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randint(2, 10_000)
        a = rng.randint(1, m - 1)
        try:
            x = mod_inverse(a, m)
        except NotInvertible:
            continue
        assert a * x % m == 1


@pytest.mark.parametrize("d,expected", [
    (-8, True),
    (-23, True),
    (-12, False),
    (-3, True),
    (-4, True),
    (-7, True),
    (-9, False),
    (-20, True),
    (5, True),
    (8, True),
    (9, False),
    (12, True),
    (1, True),
])
def test_is_fundamental_discriminant(d, expected):
    assert is_fundamental_discriminant(d) is expected


def test_splitting_type():
    assert splitting_type(2, -8) == "ramified"
    assert splitting_type(23, -23) == "ramified"
    assert splitting_type(23, -8) == "inert"
    assert splitting_type(5, -8) == "inert"
    assert splitting_type(3, -8) == "split"
    assert splitting_type(5, -23) == "inert"


def test_gauss_sum_ratio_values():
    # G(a, delta) / G(1, delta) is the Kronecker symbol (delta/a)
    g1 = gauss_sum_numeric(1, -8)
    for a, ratio in ((3, 1), (5, -1), (2, 0)):
        assert abs(gauss_sum_numeric(a, -8) / g1 - ratio) < 1e-9
        assert kronecker(-8, a) == ratio


def test_gauss_sum_numeric_table():
    root = cmath.sqrt(-8)  # 2*sqrt(2)*i
    assert abs(gauss_sum_numeric(1, -8) - (-root)) < 1e-9
    assert abs(gauss_sum_numeric(2, -8)) < 1e-9
    assert abs(gauss_sum_numeric(5, -8) - root) < 1e-9
    # full three-case table over a residue period
    for a in range(1, 17):
        g = gauss_sum_numeric(a, -8)
        if a % 2 == 0:
            assert abs(g) < 1e-9
        elif a % 8 in (1, 3):
            assert abs(g + root) < 1e-9
        else:
            assert abs(g - root) < 1e-9


def test_gauss_table_is_memoised_and_immutable():
    # one table per (delta, scale), shared by every caller, so it must be
    # a tuple that no caller can change
    table = _fp_gauss_table(-23, 10 ** 30)
    assert isinstance(table, tuple) and len(table) == 23
    assert all(isinstance(entry, tuple) for entry in table)
    assert _fp_gauss_table(-23, 10 ** 30) is table
    re, im = table[5]
    assert complex(re / 10 ** 30, im / 10 ** 30) == gauss_sum_numeric(5, -23)


def test_gauss_ratio_identity_all_a():
    # G(a, delta) = (delta/a) G(1, delta), for either sign of delta
    for delta in (-8, -23, 5, 8, 12, 13):
        g1 = gauss_sum_numeric(1, delta)
        # e(s/delta) is the conjugate of e(s/|delta|) when delta < 0
        root = cmath.sqrt(delta)
        assert abs(g1 - (root if delta > 0 else -root)) < 1e-9, delta
        for a in range(0, 201):
            lhs = gauss_sum_numeric(a, delta)
            rhs = kronecker(delta, a) * g1
            assert abs(lhs - rhs) < 1e-6, (a, delta)


def test_is_prime_matches_sieve():
    primes = set(primes_up_to(10_000))
    assert [n for n in range(-5, 10_001) if is_prime(n)] == sorted(primes)
