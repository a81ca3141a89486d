import random

import pytest

import qcong.hecke as hecke_mod
from qcong.borcherds import TwistParams, phi_star
from qcong.hecke import (
    LEVEL,
    CongruenceSetting,
    InsufficientPrecision,
    SmallPrime,
    density_scan,
    eigencheck,
    hasse_weight,
    hecke_operator,
    index_gamma0,
    multiplicativity_check,
    sturm_bound,
)
from qcong import mocktheta
from qcong.mocktheta import (
    MAX_TABLE_D,
    MAX_TABLE_INDEX,
    MockTables,
    omega_coeffs,
    required_depth,
)
from qcong.ntheory import is_fundamental_discriminant, primes_up_to
from qcong.series import EXACT, Ring, Series, eisenstein

PARAMS_84 = TwistParams(-8, 4)
SETTING_23 = CongruenceSetting(23, 1, 2)


def test_hecke_operator_formula():
    g = Series(EXACT, [n for n in range(12)])
    out = hecke_operator(g, 2, 2)
    # out[n] = a(2n) + 2 a(n/2)
    assert out.coeffs[0] == 0
    assert out.coeffs[1] == 2          # a(2) + 0
    assert out.coeffs[2] == 4 + 2 * 1  # a(4) + 2 a(1)
    assert out.prec == 6


def test_hecke_operator_constant_term():
    g = Series(EXACT, [0, 5, 7, 1, 2, 9])
    assert hecke_operator(g, 3, 4).coeffs[0] == 0


def test_hecke_operator_errors():
    with pytest.raises(InsufficientPrecision):
        hecke_operator(Series(EXACT, [1, 2]), 3, 2)


def test_hecke_operator_linear():
    rng = random.Random(61)
    ring = Ring(23)
    for _ in range(20):
        a = Series(ring, [rng.randrange(23) for _ in range(40)])
        b = Series(ring, [rng.randrange(23) for _ in range(40)])
        lhs = hecke_operator(a.add(b), 3, 46)
        rhs = hecke_operator(a, 3, 46).add(hecke_operator(b, 3, 46))
        assert lhs.coeffs == rhs.coeffs


def test_hecke_operators_commute():
    rng = random.Random(67)
    ring = Ring(23)
    p, q = 2, 3
    for _ in range(10):
        g = Series(ring, [rng.randrange(23) for _ in range(p * q * 8)])
        pq = hecke_operator(hecke_operator(g, p, 46), q, 46)
        qp = hecke_operator(hecke_operator(g, q, 46), p, 46)
        n = min(pq.prec, qp.prec)
        assert pq.coeffs[:n] == qp.coeffs[:n]


def test_index_gamma0():
    assert index_gamma0(6) == 12
    assert index_gamma0(1) == 1
    assert index_gamma0(4) == 6


def test_sturm_bound():
    assert sturm_bound(46, 6) == 46
    assert sturm_bound(10, 6) == 10
    assert sturm_bound(24, 1) == 2


def test_sturm_bound_covers_the_dimension():
    # Gamma0(6) has genus 0, 4 cusps and no elliptic points, so for even k
    # dim M_k(Gamma0(6)) = k + 1: a bound below k checks q^0..q^bound, fewer
    # coefficients than the dimension, and cannot force a form to vanish
    for k in range(2, 61, 2):
        assert sturm_bound(k, 6) >= k, k
    # Delta = q - 24q^2 + ... is a nonzero level-1 form of weight 12
    assert sturm_bound(12, 1) >= 1


def test_level_is_six_for_every_twist(tables_mod23):
    # the products live on Gamma0(6) whatever (delta, r); the report's Sturm
    # bound is k * [SL2(Z) : Gamma0(6)] / 12 = 46 * 12 / 12 for both twists
    assert LEVEL == 6 and index_gamma0(LEVEL) == 12
    for params in (PARAMS_84, TwistParams(-23, 1)):
        rep = eigencheck(params, SETTING_23, 5, 0, 1, tables_mod23)
        assert rep["sturm_bound"] == sturm_bound(46, 6) == 46, params


def test_sturm_bound_monotone():
    for N in (1, 2, 6, 12):
        values = [sturm_bound(k, N) for k in range(1, 60)]
        assert values == sorted(values)
    for k in (10, 24, 46):
        assert sturm_bound(k, 6) <= sturm_bound(k, 12)
        assert sturm_bound(k, 2) <= sturm_bound(k, 6)


def test_hasse_weight():
    assert hasse_weight(23, 2, 1) == 46
    assert hasse_weight(5, 2, 1) == 10
    assert hasse_weight(7, 0, 3) == 2
    assert hasse_weight(23, 2, 2) == 1014      # 2 + 22 * 23 * 2
    assert hasse_weight(5, 1, 3) == 102        # 2 + 4 * 25 * 1
    with pytest.raises(SmallPrime):
        hasse_weight(3, 2, 1)
    with pytest.raises(ValueError):
        hasse_weight(9, 2, 1)
    with pytest.raises(ValueError, match="primality is decided only below"):
        hasse_weight(10 ** 25 + 13, 2, 1)   # past exact Miller-Rabin


def test_hasse_weight_refuses_an_unprintable_weight():
    # bounded by bit lengths, so even R = 10**100 is refused before ell**R
    assert len(str(hasse_weight(23, 2, 2856))) < 4300
    for ell, B, R in ((23, 2, 2857), (23, 10 ** 4299, 1), (5, 1, 10 ** 100)):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            hasse_weight(ell, B, R)


def test_hasse_lift_power_is_one_mod_ell_squared():
    # E_(ell-1) = 1 (mod ell), so its ell^(R-1)-th power is 1 mod ell^R; the
    # R-th power is not, so the weight is 2 + (ell-1)*ell^(R-1)*B
    for ell in (5, 7, 23):
        ring = Ring(ell ** 2)
        e = eisenstein(ell - 1, 61, ring)
        one = [1] + [0] * 60
        assert e.pow(ell).coeffs == one, ell
        assert e.pow(2).coeffs != one, ell


def test_congruence_setting():
    s = CongruenceSetting(23, 1, 2)
    assert s.k == 46 and s.modulus == 23
    assert CongruenceSetting(5, 1, 2).k == 10
    assert CongruenceSetting(23, 2, 2).k == 1014
    with pytest.raises(TypeError):  # the weight is derived, never given
        CongruenceSetting(23, 1, 2, k=46)


@pytest.mark.parametrize("B, R", [(0, 1), (2, 0), (-1, 1), (2, -3)])
def test_congruence_setting_refuses_B_or_R_below_one(B, R):
    # B = 0 gives weight 2, and R = 0 the modulus ell^0 = 1: neither proves a
    # congruence, so the setting is refused before any table is read
    with pytest.raises(ValueError, match=f"B = {B} and R = {R} must both be at least 1"):
        CongruenceSetting(23, R, B)


def test_eigencheck_certifies(tables_mod23):
    rep = eigencheck(PARAMS_84, SETTING_23, 5, 0, 46, tables_mod23)
    assert rep["certified"] and rep["first_failure"] is None
    assert rep["sturm_bound"] == 46 and rep["sturm_met"]
    assert rep["verified_prec"] == 46
    # depth 5 * 47 - 1 = 234 reads no table (3 divides its key); 233 reads omega
    assert rep["table_depth"]["omega"] >= (8 * (5 * 47 - 2) ** 2 - 8) // 12
    assert rep["table_depth"]["f"] == 0


def test_eigencheck_without_a_store_honours_also_reads(monkeypatch):
    # a request without tables gets its own store, ensured once and also to
    # the depth its caller reads afterwards
    needs = []
    ensure_all = MockTables.ensure_all

    def recording(self, need):
        needs.append((self.ring, dict(need)))
        return ensure_all(self, need)

    monkeypatch.setattr(MockTables, "ensure_all", recording)
    rep = eigencheck(PARAMS_84, SETTING_23, 5, 0, 5, also_reads={"omega": 1000})
    assert rep["certified"] and rep["table_depth"]["omega"] < 1000
    assert (Ring(23), {"f": 0, "omega": 1000}) in needs


def test_eigencheck_wrong_lambda(tables_mod23):
    rep = eigencheck(PARAMS_84, SETTING_23, 5, 1, 23, tables_mod23)
    assert not rep["certified"]
    assert rep["first_failure"] == 1  # b(5) = 0 != 1 * b(1)
    assert rep["verified_prec"] == 0


def test_eigencheck_self_lambda(tables_mod23):
    # with lambda set to the actual coefficient b(p), index 1 cannot fail
    phi = phi_star(PARAMS_84, 200, Ring(23), tables_mod23)
    bp = phi.coeffs[7]
    rep = eigencheck(PARAMS_84, SETTING_23, 7, bp, 10, tables_mod23)
    assert rep["first_failure"] != 1


def test_eigencheck_validation(tables_mod23):
    with pytest.raises(ValueError):
        eigencheck(PARAMS_84, SETTING_23, 3, 0, 5, tables_mod23)
    with pytest.raises(ValueError):
        eigencheck(PARAMS_84, SETTING_23, 23, 0, 5, tables_mod23)
    with pytest.raises(ValueError):     # a check through q^0 proves nothing
        eigencheck(PARAMS_84, SETTING_23, 5, 0, 0, tables_mod23)
    with pytest.raises(ValueError):
        # 5 is inert for -8 but 2 splits for -23? use a split pair: (23, -15)?
        # kronecker(-23, 2) = 1, so ell = 2 would split, but ell >= 5 anyway;
        # use ell = 13 which splits for -23: 13 | (r^2 - delta) check first
        eigencheck(TwistParams(-23, 1), CongruenceSetting(13, 1, 2), 5, 0, 5)


def test_eigencheck_sensitivity(tables_mod23, monkeypatch):
    # corrupting a coefficient the transform reads breaks certification;
    # with lambda = 0 and T_p those are the multiples of p up to p*prec and
    # the indices up to prec // p (read back through the p^(k-1) term)
    prec = 20
    depth = 5 * (prec + 1) - 1
    phi = phi_star(PARAMS_84, depth, Ring(23), tables_mod23)

    def flipped(idx):
        coeffs = list(phi.coeffs)
        coeffs[idx] = (coeffs[idx] + 1) % 23
        doctored = Series(Ring(23), coeffs)

        def doctored_phi_star(params, upto, ring, tables=None):
            assert (params, upto, ring) == (PARAMS_84, depth, Ring(23))
            return doctored

        monkeypatch.setattr(hecke_mod, "phi_star", doctored_phi_star)
        return eigencheck(PARAMS_84, SETTING_23, 5, 0, prec, tables_mod23)

    for idx in (5, 10, 50, 100, 2, 3, 4):
        assert not flipped(idx)["certified"], idx
    # an index the weight-k action never consults is invisible to T_5
    assert flipped(7)["certified"]


def test_multiplicativity_mod5(tables_mod5):
    phi = phi_star(PARAMS_84, 201, Ring(5), tables_mod5)
    ok, witness = multiplicativity_check(phi, 60, k=10, recursion_bound=200)
    assert ok, witness


def test_multiplicativity_detects_corruption(tables_mod5):
    phi = phi_star(PARAMS_84, 201, Ring(5), tables_mod5)
    coeffs = list(phi.coeffs)
    coeffs[6] = (coeffs[6] + 1) % 5
    bad = Series(Ring(5), coeffs)
    ok, witness = multiplicativity_check(bad, 60, k=10)
    assert not ok and witness[0] == "multiplicativity"


@pytest.mark.parametrize("recursion_bound", [None, 20])
def test_multiplicativity_rejects_exact_series(recursion_bound):
    # the identities are checked mod ell^R, so an exact series is refused
    phi = phi_star(PARAMS_84, 30, EXACT)
    with pytest.raises(ValueError, match="exact"):
        multiplicativity_check(phi, 10, k=46, recursion_bound=recursion_bound)


def test_recursion_lambda_zero(tables_mod23):
    # lambda = 0 forces b(p^2) = -p^(k-1)
    phi = phi_star(PARAMS_84, 30, Ring(23), tables_mod23)
    assert phi.coeffs[25] == (-pow(5, 45, 23)) % 23


def test_density_scan(tables_mod23):
    rows = density_scan(PARAMS_84, SETTING_23, 30, 10, tables_mod23)
    assert rows == [
        (5, "0", 0, None), (7, "other", 7, 2), (11, "other", 18, 2),
        (13, "other", 12, 2), (17, "other", 18, 2), (19, "2", 2, None),
        (29, "other", 7, 2),
    ]
    assert density_scan(PARAMS_84, SETTING_23, 4, 10, tables_mod23) == []


class Built(Exception):
    """A stubbed builder was reached: the request passed every check."""


def test_density_scan_refuses_exactly_past_the_table_limit(monkeypatch):
    # at prec 10 the expansion for p needs indices through 11p - 1; for (-8, 4)
    # p = 1113 is the last to fit MAX_TABLE_INDEX, and 1117 the next prime
    def fits(p):
        return max(required_depth(-8, 4, 11 * p - 1).values()) <= MAX_TABLE_INDEX

    assert fits(1113) and not fits(1114)

    def builder(N, ring):  # the exact table to 0 serves c(1)
        if ring.modulus:
            raise Built(N)
        return omega_coeffs(N, ring)

    monkeypatch.setitem(mocktheta._BUILDERS, "omega", builder)

    def scan(ell, bound):
        density_scan(PARAMS_84, CongruenceSetting(ell, 1, 2), bound, 10,
                     MockTables(Ring(ell)))

    with pytest.raises(Built):
        scan(23, 1116)  # no prime in 1114..1116
    with pytest.raises(Built):
        scan(1117, 1117)  # ell is never scanned
    with pytest.raises(ValueError, match="table index 100630530 is above the limit"):
        scan(23, 1117)


def test_density_scan_sieves_to_the_table_limit_at_most(monkeypatch):
    # the request is refused for its prec without a sieve past MAX_TABLE_D
    def sieve(n):
        assert n <= MAX_TABLE_D, f"sieving to {n}"
        return primes_up_to(n)

    monkeypatch.setattr(hecke_mod, "primes_up_to", sieve)
    with pytest.raises(ValueError, match="prec = -3 must be at least 1"):
        density_scan(PARAMS_84, SETTING_23, 10 ** 11, -3)


def test_no_c_of_d_past_max_table_d_is_within_the_table_limit():
    # c(d) reads a_f((|delta| d^2 + 1)/24) or a_omega((|delta| d^2 - 8)/12)
    # with |delta| >= 8, so every d past MAX_TABLE_D reads past the limit
    assert (8 * (MAX_TABLE_D + 1) ** 2 + 1) // 24 > MAX_TABLE_INDEX
    twists = [(delta, r) for delta in range(-3, -400, -1)
              if is_fundamental_discriminant(delta)
              for r in range(12) if (r * r - delta) % 24 == 0 and r % 3]
    assert len(twists) > 80  # r divisible by 3 reads no table: c(d) = 0
    for delta, r in twists:
        need = required_depth(delta, r, MAX_TABLE_D + 12)
        assert max(need.values()) > MAX_TABLE_INDEX, (delta, r)


def test_density_scan_mod5_eigenform(tables_mod5):
    # mod 5 the expansion behaves like an eigenform: no prime is 'other'
    setting = CongruenceSetting(5, 1, 2)
    rows = density_scan(PARAMS_84, setting, 30, 8, tables_mod5)
    assert rows == [
        (7, "b(p)", 1, None), (11, "0", 0, None), (13, "2", 2, None),
        (17, "b(p)", 1, None), (19, "b(p)", 1, None), (23, "0", 0, None),
        (29, "b(p)", 4, None),
    ]

