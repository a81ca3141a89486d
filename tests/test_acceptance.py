"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated tolerance and runtime budget (run with -s to see the
lines).  The shared session tables make later criteria reuse the deep
coefficient arrays computed by earlier ones."""

import cmath
import json
import time
from fractions import Fraction

import pytest

from qcong import cache
from qcong.borcherds import (
    TwistParams,
    b_from_c,
    c_from_b,
    phi_raw_numeric,
    phi_star,
)
from qcong.cli import main as cli_main
from qcong.hecke import (
    CongruenceSetting,
    density_scan,
    eigencheck,
    hasse_weight,
    multiplicativity_check,
)
from qcong.mocktheta import c_series, f_coeffs, omega_coeffs
from qcong.ntheory import gauss_sum_numeric
from qcong.series import EXACT, Ring, eisenstein

PARAMS_84 = TwistParams(-8, 4)
PARAMS_231 = TwistParams(-23, 1)

OMEGA_GOLDEN = [1, 2, 3, 4, 6, 8, 10, 14, 18, 22, 29, 36]
F_GOLDEN = [1, 1, -1, 1, 0, 0, -1, 1, 0, 1, -2, 1, -1, 2, -2, 2, -1]


def _report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_criterion_01_golden_expansions():
    t0 = time.perf_counter()
    omega = omega_coeffs(11)
    f = f_coeffs(16)
    elapsed = time.perf_counter() - t0
    assert omega == OMEGA_GOLDEN
    assert f == F_GOLDEN
    assert elapsed < 1.0
    _report(1, f"a_omega(0..11) and a_f(0..16) exact in {elapsed:.3f}s")


def test_criterion_02_exact_table_values():
    t0 = time.perf_counter()
    values = omega_coeffs(416)
    elapsed = time.perf_counter() - t0
    assert values[16] == 101
    assert values[416] == 147019574355949
    assert elapsed < 5.0
    _report(2, f"a_omega(16) = 101, a_omega(416) = 147019574355949 in {elapsed:.2f}s")


def test_criterion_03_residues_mod_23(tables_mod23):
    t0 = time.perf_counter()
    tables_mod23.ensure("omega", 260416)
    elapsed = time.perf_counter() - t0
    values = tables_mod23.values("omega")
    expected = {16: 9, 416: 9, 10416: 12, 260416: 12}
    for idx, residue in expected.items():
        assert values[idx] == residue, idx
    assert elapsed < 60.0
    _report(3, f"a_omega residues (9, 9, 12, 12) mod 23 in {elapsed:.1f}s")


def test_criterion_04_eigencheck_prec_50(tables_mod23):
    setting = CongruenceSetting(23, 1, 2)
    assert setting.k == 46
    t0 = time.perf_counter()
    report = eigencheck(PARAMS_84, setting, 5, 0, 50, tables_mod23)
    elapsed = time.perf_counter() - t0
    assert report["certified"]
    assert report["verified_prec"] == 50
    assert report["sturm_bound"] == 46 and report["sturm_met"]
    assert elapsed < 300.0
    _report(4, f"T_5 eigencheck mod 23 certified to q^50 in {elapsed:.1f}s")


def test_criterion_05_certify_end_to_end(tables_mod23, tmp_path):
    # warm the command's cache with the session table so both the predictor
    # and the direct computation read the same mod-23 array
    tables_mod23.ensure("omega", 260416)
    values = tables_mod23.values("omega")
    cache.save_coeffs(tmp_path, "omega", values, 23, prec=len(values) - 1)
    code = None
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main([
            "certify", "--delta", "-8", "--r", "4", "--p", "5",
            "--ell", "23", "--R", "1", "--B", "2",
            "--M", "1", "2", "3", "4",
            "--cache-dir", str(tmp_path), "--json",
        ])
    assert code == 0
    doc = json.loads(buf.getvalue())
    assert doc["all_match"] is True
    got = [(row["M"], row["index"], row["predicted"], row["actual"])
           for row in doc["rows"]]
    assert got == [
        (1, 16, "9", "9"),
        (2, 416, "9", "9"),
        (3, 10416, "12", "12"),
        (4, 260416, "12", "12"),
    ]
    _report(5, "predicted = computed residues 9, 9, 12, 12 mod 23 for M = 1..4")


def test_criterion_06_hasse_weights():
    assert hasse_weight(23, 2, 1) == 46
    assert hasse_weight(5, 2, 1) == 10
    _report(6, "pole-clearing weights 46 and 10")


def test_criterion_07_oracle_equivalence(tables_exact):
    tol = Fraction(1, 10 ** 6)
    t0 = time.perf_counter()
    for params in (PARAMS_84, PARAMS_231):
        phi = phi_star(params, 100, EXACT, tables_exact)
        oracle = phi_raw_numeric(params, 100, tables_exact)
        for n in range(1, 101):
            re, im = oracle[n]
            assert abs(im) < tol, (params.delta, n)
            assert abs(re - phi.coeffs[n]) < tol
            assert round(re) == phi.coeffs[n]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, f"expansion matches the complex-exponential oracle to n = 100 "
               f"in {elapsed:.1f}s")


def test_criterion_08_inversion_round_trip(tables_exact):
    t0 = time.perf_counter()
    for delta, r in ((-8, 4), (-23, 1)):
        c = c_series(delta, r, 500, EXACT, tables_exact)
        b = [0] * 501
        for n in range(1, 501):
            b[n] = b_from_c(c, n, delta, EXACT)
        for n in range(1, 501):
            assert c_from_b(b, n, delta, c[1], EXACT) == c[n], (delta, n)
    elapsed = time.perf_counter() - t0
    _report(8, f"c -> b -> c identity for n <= 500, both twists, in {elapsed:.1f}s")


def test_criterion_09_mod5_eigenform_properties(tables_mod5):
    phi = phi_star(PARAMS_84, 201, Ring(5), tables_mod5)
    ok, witness = multiplicativity_check(phi, 60, k=10, recursion_bound=200)
    assert ok, witness
    _report(9, "mod-5 multiplicativity (mn <= 60) and weight-10 power "
               "recursion (indices <= 200)")


def test_criterion_10_gauss_sum_table():
    root = cmath.sqrt(-8)
    for a in range(1, 17):
        g = gauss_sum_numeric(a, -8)
        if a % 2 == 0:
            assert abs(g) < 1e-9, a
        elif a % 8 in (1, 3):
            assert abs(g - (-root)) < 1e-9, a
        else:
            assert abs(g - root) < 1e-9, a
    _report(10, "G(a, -8) matches the three-case table within 1e-9 for a = 1..16")


@pytest.mark.parametrize("ell", [5, 23])
def test_criterion_11_eisenstein_congruence(ell):
    e = eisenstein(ell - 1, 200, Ring(ell))
    assert e.coeffs[0] == 1
    assert all(c == 0 for c in e.coeffs[1:])
    _report(11, f"E_{ell - 1} = 1 (mod {ell}) to precision 200")


def test_criterion_12_density_scan(tables_mod23):
    setting = CongruenceSetting(23, 1, 2)
    rows = density_scan(PARAMS_84, setting, 30, 10, tables_mod23)
    by_p = {p: (label, lam) for p, label, lam, _ in rows}
    assert by_p[5] == ("0", 0)
    _report(12, "prime scan to 30 classifies p = 5 with eigenvalue 0 mod 23")
