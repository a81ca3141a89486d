from fractions import Fraction

import pytest

from qcong.borcherds import (
    EigenData,
    NonDivisible,
    TwistParams,
    ZeroNormalizer,
    b_from_c,
    c_from_b,
    check_prime,
    exact_c1,
    phi_raw_numeric,
    phi_star,
    predict_coefficient,
)
from qcong.hecke import CongruenceSetting
from qcong.mocktheta import c_series
from qcong.series import EXACT, Ring


def test_twist_params_validation():
    TwistParams(-8, 4)
    TwistParams(-23, 1)
    TwistParams(-20, 2)
    with pytest.raises(ValueError):
        TwistParams(-8, 3)
    with pytest.raises(ValueError):
        TwistParams(-12, 6)  # not fundamental
    with pytest.raises(ValueError):
        TwistParams(8, 4)  # positive


def test_b_from_c_examples(tables_exact):
    c = c_series(-8, 4, 8, EXACT, tables_exact)
    assert b_from_c(c, 1, -8, EXACT) == 1
    assert b_from_c(c, 2, -8, EXACT) == -6
    assert b_from_c(c, 3, -8, EXACT) == 1


def test_c_from_b_examples(tables_exact):
    c = c_series(-8, 4, 8, EXACT, tables_exact)
    b = [0] + [b_from_c(c, n, -8, EXACT) for n in range(1, 9)]
    assert c_from_b(b, 1, -8, c[1], EXACT) == c[1]
    assert c_from_b(b, 2, -8, c[1], EXACT) == 12


def test_round_trip_small(tables_exact):
    for delta, r in ((-8, 4), (-23, 1)):
        c = c_series(delta, r, 60, EXACT, tables_exact)
        b = [0] * 61
        for n in range(1, 61):
            b[n] = b_from_c(c, n, delta, EXACT)
        for n in range(1, 61):
            assert c_from_b(b, n, delta, c[1], EXACT) == c[n], (delta, n)


def test_round_trip_modular(tables_mod23):
    # c_from_b divides by n, so n must be invertible mod 23
    ring = Ring(23)
    c = c_series(-8, 4, 40, ring, tables_mod23)
    b = [0] + [b_from_c(c, n, -8, ring) for n in range(1, 41)]
    for n in range(1, 41):
        if n % 23 == 0:
            continue
        assert c_from_b(b, n, -8, c[1], ring) == c[n]


def test_non_divisible():
    with pytest.raises(NonDivisible):
        c_from_b([0, 1, 0], 2, -23, 1, EXACT)


def test_non_divisible_names_the_quotient():
    # the twist (-56, 4) has c(1) = -24 and a rational b(2)
    c = c_series(-56, 4, 2, EXACT)
    with pytest.raises(NonDivisible, match=r"^b\(2\) = 1168/-24 is not an integer$"):
        b_from_c(c, 2, -56, EXACT)


def test_phi_star_values(tables_exact, tables_mod23):
    phi = phi_star(TwistParams(-8, 4), 3, Ring(23), tables_mod23)
    assert phi.coeffs == [0, 1, 17, 1] and phi.ring == Ring(23)
    phi23 = phi_star(TwistParams(-23, 1), 1, EXACT, tables_exact)
    assert phi23.coeffs == [0, 1]
    assert exact_c1(TwistParams(-23, 1)) == 1
    assert exact_c1(TwistParams(-8, 4)) == -4


def test_phi_star_zero_normalizer(tables_exact):
    # (-15, 3): r*d is a multiple of 3 for every d, so c(1) = 0
    params = TwistParams(-15, 3)
    assert exact_c1(params) == 0
    with pytest.raises(ZeroNormalizer):
        phi_star(params, 3, EXACT, tables_exact)
    with pytest.raises(ZeroNormalizer):
        phi_raw_numeric(params, 3, tables_exact)


def test_phi_raw_numeric_spot_values():
    params = TwistParams(-8, 4)
    vals = phi_raw_numeric(params, 3)
    for n, exact in ((1, 1), (2, -6), (3, 1)):
        re, im = vals[n]
        assert isinstance(re, Fraction) and isinstance(im, Fraction)
        assert abs(complex(re, im) - exact) < 1e-6


@pytest.mark.parametrize("delta,r", [(-8, 4), (-23, 1)])
def test_oracle_equivalence_small(delta, r, tables_exact):
    params = TwistParams(delta, r)
    phi = phi_star(params, 40, EXACT, tables_exact)
    oracle = phi_raw_numeric(params, 40, tables_exact)
    tol = Fraction(1, 10 ** 6)
    for n in range(1, 41):
        re, im = oracle[n]
        assert abs(im) < tol
        assert round(re) == phi.coeffs[n]
        assert abs(re - phi.coeffs[n]) < tol


def test_eigen_data_closed_form():
    setting = CongruenceSetting(23, 1, 2)
    e = EigenData(setting, 5, 0)
    m = 23
    k = setting.k
    for j in range(0, 17):
        if j % 2:
            assert e.b_power(j) == 0
        else:
            assert e.b_power(j) == pow(-pow(5, k - 1, m), j // 2, m) % m


def test_eigen_data_has_no_hidden_state():
    setting = CongruenceSetting(23, 1, 2)
    used = EigenData(setting, 5, 0)
    used.b_power(4)
    assert used == EigenData(setting, 5, 0)
    with pytest.raises(TypeError):
        EigenData(setting, 5, 0, [1, 7])


def test_predict_c_consistency():
    # the prediction at p^M, times its dictionary factor, equals direct
    # substitution of the power rule into c(p^M)
    from qcong.mocktheta import cplus_entry
    from qcong.ntheory import kronecker, mod_inverse

    setting = CongruenceSetting(23, 1, 2)
    params = TwistParams(-8, 4)
    for lam in (0, 2, 7):
        e = EigenData(setting, 5, lam)
        for M in range(1, 9):
            _, _, got = predict_coefficient(params, M, e)
            _, factor, _ = cplus_entry(-8, 4, 5 ** M)
            chi = kronecker(-8, 5)
            direct = (-4) * mod_inverse(5 ** M, 23) * (
                e.b_power(M) - e.b_power(M - 1) * chi
            ) % 23
            assert got * factor % 23 == direct


def test_predict_c_validation():
    # only c(p^M) with M >= 1 can be asked for; p must pass the p rule and
    # must not divide delta
    setting = CongruenceSetting(23, 1, 2)
    params = TwistParams(-8, 4)
    e = EigenData(setting, 5, 0)
    with pytest.raises(ValueError, match="M must be"):
        predict_coefficient(params, 0, e)
    for p in (10, 25, 1, 2, 3, 23):     # not prime, or in {2, 3, ell}
        with pytest.raises(ValueError, match="must be a prime outside"):
            EigenData(setting, p, 0)
        with pytest.raises(ValueError, match="must be a prime outside"):
            check_prime(p, 23)
    check_prime(7, 23)
    with pytest.raises(ValueError, match="must not divide delta"):
        predict_coefficient(TwistParams(-20, 2), 1, e)


def test_predict_omega_table():
    setting = CongruenceSetting(23, 1, 2)
    e = EigenData(setting, 5, 0)
    got = [predict_coefficient(TwistParams(-8, 4), M, e) for M in (1, 2, 3, 4)]
    assert got == [("omega", 16, 9), ("omega", 416, 9),
                   ("omega", 10416, 12), ("omega", 260416, 12)]


def test_predict_f_index():
    params = TwistParams(-23, 1)
    e = EigenData(CongruenceSetting(5, 1, 2), 7, 0)
    assert predict_coefficient(params, 1, e)[:2] == ("f", (23 * 49 + 1) // 24)
    setting23 = CongruenceSetting(23, 1, 2)
    e5 = EigenData(setting23, 5, 0)
    assert predict_coefficient(params, 1, e5)[:2] == ("f", 24)
    with pytest.raises(ValueError):     # p = ell = 23: no eigen data
        EigenData(setting23, 23, 0)
    e23 = EigenData(CongruenceSetting(5, 1, 2), 23, 0)
    with pytest.raises(ValueError, match="must not divide delta"):
        predict_coefficient(params, 1, e23)     # p = 23 divides delta
    with pytest.raises(ValueError):
        predict_coefficient(params, 0, e5)


def test_predict_f_odd_case_sign():
    # at lambda = 0 and odd M the residue carries (delta/p) and the
    # dictionary sign for key p^M mod 12
    from qcong.ntheory import kronecker, mod_inverse
    from qcong.mocktheta import CPLUS_DISPATCH

    setting = CongruenceSetting(23, 1, 2)
    for p in (5, 7, 11, 13):
        e = EigenData(setting, p, 0)
        _, idx, res = predict_coefficient(TwistParams(-23, 1), 1, e)
        _, sign = CPLUS_DISPATCH[p % 12]
        expect = sign * mod_inverse(p, 23) * (-e.b_power(0)) * kronecker(-23, p) % 23
        assert res == expect


def test_predict_coefficient_kind(tables_exact):
    setting = CongruenceSetting(23, 1, 2)
    e = EigenData(setting, 5, 0)
    kind, idx, _ = predict_coefficient(TwistParams(-8, 4), 1, e)
    assert (kind, idx) == ("omega", 16)
    kind, idx, _ = predict_coefficient(TwistParams(-23, 1), 1, e)
    assert (kind, idx) == ("f", 24)


def test_predict_coefficient_never_vanishes():
    # c(p^M) is never a zero dictionary key once c(1) != 0: that forces
    # 3 not dividing r, and the p rule keeps 3 out of p
    from qcong.mocktheta import cplus_entry

    setting = CongruenceSetting(23, 1, 2)
    with pytest.raises(ZeroNormalizer):         # 3 | r: c(1) = 0
        predict_coefficient(TwistParams(-15, 3), 1, EigenData(setting, 5, 0))
    for delta, r in ((-8, 4), (-23, 1), (-20, 2), (-47, 1), (-71, 1)):
        assert exact_c1(TwistParams(delta, r)) != 0
        for p in (5, 7, 11, 13, 17, 19, 29):
            for M in (1, 2, 3):
                assert cplus_entry(delta, r, p ** M) is not None
                if delta % p:
                    kind, _, _ = predict_coefficient(
                        TwistParams(delta, r), M, EigenData(setting, p, 0))
                    assert kind in ("f", "omega")
