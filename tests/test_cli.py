import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qcong
from qcong import cache, hecke, mocktheta, ntheory
from qcong.cli import main
from qcong.mocktheta import omega_coeffs
from qcong.series import Ring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_omega_golden(capsys):
    code, out, _ = run(capsys, "coeffs", "--function", "omega", "--upto", "11")
    assert code == 0
    values = [line.split(",")[1] for line in out.strip().splitlines()]
    assert values == "1 2 3 4 6 8 10 14 18 22 29 36".split()


def test_coeffs_f_golden(capsys):
    code, out, _ = run(capsys, "coeffs", "--function", "f", "--upto", "16")
    assert code == 0
    values = [line.split(",")[1] for line in out.strip().splitlines()]
    assert values == "1 1 -1 1 0 0 -1 1 0 1 -2 1 -1 2 -2 2 -1".split()


def test_coeffs_exact_416(capsys):
    # exact integers are the default: no flag selects them
    code, out, _ = run(capsys, "coeffs", "--function", "omega", "--upto", "416")
    assert code == 0
    assert out.strip().splitlines()[-1] == "416,147019574355949"


def test_coeffs_json_round_trip(capsys):
    code, out, _ = run(capsys, "coeffs", "--function", "omega",
                       "--upto", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "coeffs"
    assert doc["values"] == ["1", "2", "3", "4", "6", "8"]
    assert json.loads(json.dumps(doc)) == doc


def test_exact_flag_is_unknown(capsys):
    for extra in ((), ("--modulus", "23")):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--function", "omega", "--upto", "5", "--exact", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--exact" in captured.err and captured.out == ""


def test_coeffs_negative_upto_exit_2(capsys, tmp_path):
    for function in ("omega", "f"):
        for extra in ((), ("--json",), ("--modulus", "23"),
                      ("--cache-dir", str(tmp_path))):
            code, out, err = run(capsys, "coeffs", "--function", function,
                                 "--upto", "-1", *extra)
            assert code == 2 and out == "", (function, extra)
            assert err.startswith("error:") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(capsys, "coeffs", "--function", "omega", "--upto", "0")
    assert code == 0 and out == "0,1\n"


def test_coeffs_cache_identical_stdout(capsys, tmp_path):
    args = ("coeffs", "--function", "omega", "--upto", "50",
            "--modulus", "23", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    files = list(tmp_path.glob("*.qser"))
    assert code1 == 0 and len(files) == 1
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out2 == out1


def test_cold_cache_files_are_byte_identical(capsys, tmp_path):
    # a file depends only on its table, so two cold writers write the same bytes
    for argv in (("coeffs", "--function", "omega", "--modulus", "23", "--upto", "500"),
                 ("coeffs", "--function", "f", "--upto", "100")):
        written = []
        for side in ("first", "second"):
            directory = tmp_path / side / argv[2]
            assert run(capsys, *argv, "--cache-dir", str(directory))[0] == 0
            written.append({p.name: p.read_bytes() for p in directory.iterdir()})
        assert len(written[0]) == 1 and written[0] == written[1], argv


def test_coeffs_cache_corruption_exit_3(capsys, tmp_path):
    args = ("coeffs", "--function", "omega", "--upto", "20",
            "--cache-dir", str(tmp_path))
    assert run(capsys, *args)[0] == 0
    path = next(tmp_path.glob("*.qser"))
    head = path.read_bytes().split(b"\n", 1)[0]
    path.write_bytes(head + b"\nnot a number\n")
    code, _, err = run(capsys, *args)
    assert code == 3 and "cache" in err


@pytest.mark.parametrize("command", [
    ("coeffs", "--function", "omega", "--upto", "20"),
    ("phi", "--delta", "-8", "--r", "4", "--prec", "3"),
    ("certify", "--delta", "-8", "--r", "4", "--p", "5", "--ell", "23",
     "--R", "1", "--B", "2", "--prec", "5", "--M", "1"),
])
def test_cache_dir_is_a_file_exit_3(capsys, tmp_path, command):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    code, out, err = run(capsys, *command, "--cache-dir", str(not_a_dir))
    assert code == 3 and out == ""
    assert err.startswith("cache error:") and len(err.splitlines()) == 1


TWIST = ("--delta", "-8", "--r", "4", "--ell", "23", "--R", "1", "--B", "2")
WARM_COMMANDS = {
    "heckecheck": ("heckecheck", *TWIST, "--p", "5", "--prec", "5"),
    "scan": ("scan", *TWIST, "--bound", "7", "--prec", "3"),
    "certify": ("certify", *TWIST, "--p", "5", "--prec", "5", "--M", "1", "2"),
}


@pytest.mark.parametrize("name", sorted(WARM_COMMANDS))
def test_warm_command_decodes_omega_once(capsys, tmp_path, monkeypatch, name):
    cold_code, cold_out, _ = run(capsys, *WARM_COMMANDS[name],
                                 "--cache-dir", str(tmp_path / "own"))
    (own,) = (tmp_path / "own").glob("omega_*.qser")
    built = cache.load_coeffs(own)[0]["prec"] + 1  # entries the cold run built
    assert run(capsys, *WARM_COMMANDS["certify"],
               "--cache-dir", str(tmp_path))[0] == 0
    assert [p.name for p in tmp_path.glob("*.qser")] == ["omega_mod23_p560.qser"]
    decoded = []  # lengths of the omega tables the cache decodes
    load = cache.load_coeffs

    def counting_load(path, *a, **kw):
        header, values = load(path, *a, **kw)
        if header["function"] == "omega":
            decoded.append(len(values))
        return header, values

    monkeypatch.setattr(cache, "load_coeffs", counting_load)
    code, out, _ = run(capsys, *WARM_COMMANDS[name], "--cache-dir", str(tmp_path))
    assert decoded == [built]
    assert [p.name for p in tmp_path.glob("*.qser")] == ["omega_mod23_p560.qser"]
    assert code == cold_code == 0
    if name == "heckecheck":  # the one field that says where the table came from
        cold_doc, doc = json.loads(cold_out), json.loads(out)
        assert cold_doc.pop("table_source") == {"f": None, "omega": "built"}
        assert doc.pop("table_source") == {"f": None, "omega": "loaded"}
        assert doc == cold_doc
    else:
        assert out == cold_out


def test_cold_certify_cache_files(capsys, tmp_path):
    # one table, to the deeper of the eigencheck depth (36192) and the rows
    code, out, _ = run(capsys, "certify", *TWIST, "--p", "5", "--M", "1", "2", "3",
                       "--cache-dir", str(tmp_path))
    assert code == 0 and out.strip().splitlines()[-1] == "3,10416,12,12,true"
    assert sorted(p.name for p in tmp_path.glob("*.qser")) == [
        "omega_mod23_p36192.qser"]


@pytest.mark.parametrize("argv", [
    ("coeffs", "--function", "omega", "--upto", str(10 ** 23)),
    ("certify", *TWIST, "--p", "5", "--M", "40"),
    ("certify", *TWIST, "--p", "5", "--M", "1", "100000"),
    ("certify", *TWIST, "--p", "5", "--M", "1", "100000000"),
    ("heckecheck", *TWIST, "--p", "5", "--prec", str(10 ** 3000)),
    ("phi", "--delta", "-8", "--r", "4", "--prec", str(10 ** 3000)),
], ids=["coeffs", "certify", "certify-M1e5", "certify-M1e8", "heckecheck-prec3001",
        "phi-prec3001"])
def test_table_index_above_limit_exit_2(capsys, tmp_path, argv):
    # refused at once, before any table is built or any cache dir is made;
    # an index of thousands of digits is shown by its size, never by str()
    cache_dir = tmp_path / "cache"
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ValueError: table index") and "above the limit" in err
    assert not cache_dir.exists()


def test_memory_error_exit_2(capsys, monkeypatch):
    # running out of memory is one stderr line and exit 2, not a traceback
    def builder(N, ring):
        raise MemoryError("no room")

    monkeypatch.setitem(mocktheta._BUILDERS, "omega", builder)
    code, out, err = run(capsys, "coeffs", "--function", "omega", "--upto", "5")
    assert code == 2 and out == "" and err == "error: MemoryError: no room\n"


def test_phi_checks_every_table_before_building(capsys, tmp_path, monkeypatch):
    # f to 61318001 is within the limit and omega to 122666666 is not: the
    # request is refused before the deep f table is built (c(1) reads a_f(1))
    def builder(N, ring):
        assert N < 10 ** 6, f"the f table was built to {N}"
        return mocktheta.f_coeffs(N, ring)

    monkeypatch.setitem(mocktheta._BUILDERS, "f", builder)
    cache_dir = tmp_path / "cache"
    start = time.perf_counter()
    code, out, err = run(capsys, "phi", "--delta", "-23", "--r", "1", "--prec", "8000",
                         "--modulus", "23", "--cache-dir", str(cache_dir))
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == ("error: ValueError: table index 122666666 is above the limit "
                   "100000000\n")
    assert not cache_dir.exists()


def test_scan_bound_above_limit_exit_2(capsys, tmp_path, monkeypatch):
    # no prime past MAX_TABLE_D is within the table limit: the sieve stops there
    sieved = []

    def primes_up_to(n):
        assert n <= mocktheta.MAX_TABLE_D, f"sieving to {n}"
        sieved.append(n)
        return ntheory.primes_up_to(n)

    monkeypatch.setattr(hecke, "primes_up_to", primes_up_to)
    cache_dir = tmp_path / "cache"
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", *TWIST, "--bound", str(10 ** 11), "--prec", "10",
                         "--cache-dir", str(cache_dir))
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and sieved == [mocktheta.MAX_TABLE_D]
    assert err == ("error: ValueError: table index 24189944130 is above the limit "
                   "100000000\n")
    assert not cache_dir.exists()


@pytest.mark.parametrize("name", sorted(WARM_COMMANDS))
def test_legacy_text_cache_is_read(capsys, tmp_path, write_legacy_text, name):
    # a mod-23 omega file in the older text encoding (a JSON array) is read
    # and skipped: the table is rebuilt and rewritten under the same name
    cold_code, cold_out, _ = run(capsys, *WARM_COMMANDS[name])
    assert run(capsys, *WARM_COMMANDS[name], "--cache-dir", str(tmp_path / "own"))[0] == 0
    (own,) = (tmp_path / "own").glob("*.qser")
    prec = cache.load_coeffs(own)[0]["prec"]
    legacy = write_legacy_text(tmp_path, "omega", omega_coeffs(prec, Ring(23)), 23, prec)
    assert legacy.name == own.name
    code, out, _ = run(capsys, *WARM_COMMANDS[name], "--cache-dir", str(tmp_path))
    assert code == cold_code == 0
    assert list(tmp_path.glob("*.qser")) == [legacy]
    assert legacy.read_bytes() == own.read_bytes()
    if name == "heckecheck":
        assert json.loads(out)["table_source"] == {"f": None, "omega": "built"}
    assert out == cold_out


HUGE_PRIME = "1000000000000000003"


@pytest.mark.parametrize("argv, message", [
    (("heckecheck", *TWIST, "--p", HUGE_PRIME, "--prec", "5"),
     "error: ValueError: p above 17320 reads c(p) past the table limit\n"),
    (("scan", "--delta", "-8", "--r", "4", "--ell", HUGE_PRIME, "--R", "1",
      "--B", "2", "--bound", "30", "--prec", "5"),
     f"error: ValueError: ell = {HUGE_PRIME} splits for delta = -8\n"),
], ids=["heckecheck-p", "scan-ell"])
def test_huge_prime_exits_2_at_once(capsys, argv, message):
    # p is refused by size before any primality test, and ell's primality
    # test is Miller-Rabin
    assert_exits_2_at_once(capsys, argv, message)


def run_child(argv, timeout):
    """(exit code, stdout, stderr) of the CLI in a child process, which
    raises subprocess.TimeoutExpired past `timeout` seconds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(qcong.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-m", "qcong.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=timeout)
    return child.returncode, child.stdout, child.stderr


def assert_exits_2_at_once(capsys, argv, message):
    # a child process with a timeout pins the exit, so an unbounded request
    # fails the test rather than hanging it; then it is timed in process
    assert run_child(argv, 10) == (2, "", message)
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", message)
    assert time.perf_counter() - start < 1


WIDE_REQUEST = ("--delta", "-8", "--r", "4", "--p", "5", "--ell", "23",
                "--R", "2856", "--B", "2", "--prec", "5", "--json")


def test_wide_modulus_requests_finish_at_once(tmp_path):
    # mod 23^2856: p^(k-1) with its exponent reduced mod (ell-1) ell^(R-1),
    # and the omega table from Horner, as a Kronecker slot would have about
    # 7800 digits; with the unreduced pows and the Watson build these two
    # requests took 8 and 30 s
    code, out, err = run_child(("heckecheck", *WIDE_REQUEST,
                                "--cache-dir", str(tmp_path)), 5)
    doc = json.loads(out)
    assert (code, err) == (5, "")
    assert doc["weight"] == hecke.hasse_weight(23, 2, 2856)
    assert (doc["first_failure"], doc["verified_prec"]) == (1, 0)
    assert doc["table_depth"] == {"f": 0, "omega": 560}
    assert run_child(("certify", *WIDE_REQUEST, "--M", "1", "2",
                      "--cache-dir", str(tmp_path)), 5) == (
        5, "", "eigencheck failed at q^1; certification prerequisites not met\n")


WEIGHT_REFUSED = ("error: ValueError: the weight 2 + (ell-1)*ell^(R-1)*B may have "
                  "more than 4300 digits, too many to print\n")
EVAL_WORK_REFUSED = ("error: ValueError: the coefficient operations are above "
                     "the limit 200000000\n")
EVAL_LENGTH_REFUSED = "error: ValueError: the padded length is above the limit 100000000\n"


@pytest.mark.parametrize("argv, message", [
    (("heckecheck", *TWIST[:6], "--R", "1000000", "--B", "2", "--p", "5",
      "--prec", "5"), WEIGHT_REFUSED),
    (("heckecheck", *TWIST[:6], "--R", "1", "--B", str(10 ** 4299), "--p", "5",
      "--prec", "5"), WEIGHT_REFUSED),
    (("eval", "eta(q)^24", "--prec", "4000000"), EVAL_WORK_REFUSED),
    (("eval", "eta(q)^240000", "--prec", "3"), EVAL_WORK_REFUSED),
    (("eval", "(1-q)^-100000000", "--prec", "3"), EVAL_LENGTH_REFUSED),
    (("eval", "q^100000000", "--prec", "3"), EVAL_LENGTH_REFUSED),
], ids=["heckecheck-R1e6", "heckecheck-B1e4299", "eval-eta-long",
        "eval-eta-power", "eval-padded-power", "eval-padded-monomial"])
def test_unbounded_request_exits_2_at_once(capsys, tmp_path, argv, message):
    # refused from the request alone: neither ell^R nor the weight is formed,
    # no table is built and no cache file written, and eval builds no series
    if argv[0] != "eval":
        argv += ("--cache-dir", str(tmp_path))
    assert_exits_2_at_once(capsys, argv, message)
    assert list(tmp_path.iterdir()) == []


def test_certify_rejects_bad_prime_before_building(capsys, tmp_path):
    # p is checked before any table is built for the rows
    code, out, err = run(capsys, "certify", *TWIST, "--p", "25", "--M", "4",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "p = 25 must be a prime outside {2, 3, ell}" in err
    assert list(tmp_path.iterdir()) == []
    # p = 23 divides delta = -23: the lambda = 0 power rule does not hold
    code, out, err = run(capsys, "certify", "--delta", "-23", "--r", "1",
                         "--p", "23", "--ell", "5", "--R", "1", "--B", "2",
                         "--M", "1", "2", "--cache-dir", str(tmp_path))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "p = 23 must not divide delta = -23" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["coeffs", *sorted(WARM_COMMANDS)])
def test_undecodable_cache_header_is_skipped(capsys, tmp_path, name):
    # a first line that is not UTF-8 is not a qser header: lookups skip it
    argv = {"coeffs": ("coeffs", "--function", "omega", "--modulus", "23",
                       "--upto", "3"), **WARM_COMMANDS}[name]
    expect = run(capsys, *argv)
    (tmp_path / "omega_x.qser").write_bytes(b"\xff\xfe\n")
    assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == expect
    assert expect[0] == 0 and expect[2] == ""


def test_scan_rejects_split_ell_before_building(capsys, tmp_path):
    # 13 splits for -23: the request is refused before any table is built
    code, out, err = run(capsys, "scan", "--delta", "-23", "--r", "1",
                         "--ell", "13", "--R", "1", "--B", "2", "--bound", "30",
                         "--prec", "10", "--cache-dir", str(tmp_path / "cache"))
    assert code == 2 and out == "" and "splits" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "cache").exists()


def test_heckecheck_table_source_without_cache(capsys):
    code, out, _ = run(capsys, *WARM_COMMANDS["heckecheck"])
    assert code == 0
    doc = json.loads(out)
    assert doc["table_source"] == {"f": None, "omega": "built"}
    assert doc["table_depth"] == {"f": 0, "omega": 560}


@pytest.mark.parametrize("name", ["heckecheck", "certify"])
def test_corrupt_omega_file_exit_3(capsys, tmp_path, name):
    assert run(capsys, *WARM_COMMANDS["certify"], "--cache-dir", str(tmp_path))[0] == 0
    path = next(tmp_path.glob("omega_*.qser"))
    head = path.read_bytes().split(b"\n", 1)[0]
    path.write_bytes(head + b"\n[1,2,3]\n")
    code, out, err = run(capsys, *WARM_COMMANDS[name], "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("cache error:") and len(err.splitlines()) == 1


def test_phi_values(capsys):
    code, out, _ = run(capsys, "phi", "--delta", "-8", "--r", "4", "--prec", "3")
    assert code == 0
    assert out.strip().splitlines() == ["1,1", "2,-6", "3,1"]


def test_phi_delta_minus23(capsys):
    code, out, _ = run(capsys, "phi", "--delta", "-23", "--r", "1", "--prec", "1")
    assert code == 0 and out.strip() == "1,1"


def test_phi_invalid_twist_exit_2(capsys):
    code, _, err = run(capsys, "phi", "--delta", "-7", "--r", "1", "--prec", "3")
    assert code == 2 and "twist" in err


def test_phi_cache_identical_stdout(capsys, tmp_path):
    args = ("phi", "--delta", "-8", "--r", "4", "--prec", "10",
            "--modulus", "23", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    assert any(p.name.startswith("phi_star") for p in tmp_path.glob("*.qser"))
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out2 == out1


def test_warm_phi_decodes_once(capsys, tmp_path, monkeypatch):
    # a warm phi reads its prec entries from a deeper file and writes nothing
    argv = ("phi", "--delta", "-8", "--r", "4", "--modulus", "23")
    cold_code, cold_out, _ = run(capsys, *argv, "--prec", "30")
    assert run(capsys, *argv, "--prec", "60", "--cache-dir", str(tmp_path))[0] == 0
    files = sorted(tmp_path.iterdir())
    calls, decoded = [], []
    for name in ("find_coeffs", "load_coeffs", "save_coeffs"):
        original = getattr(cache, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            result = _original(*args, **kwargs)
            if _name == "load_coeffs":
                decoded.append(len(result[1]))
            return result

        monkeypatch.setattr(cache, name, counted)
    code, out, _ = run(capsys, *argv, "--prec", "30", "--cache-dir", str(tmp_path))
    assert calls == ["find_coeffs", "load_coeffs"] and decoded == [30]
    assert sorted(tmp_path.iterdir()) == files
    assert code == cold_code == 0 and out == cold_out


def test_heckecheck_certified(capsys):
    code, out, _ = run(capsys, "heckecheck", "--delta", "-8", "--r", "4",
                       "--p", "5", "--ell", "23", "--R", "1", "--B", "2",
                       "--prec", "46", "--lambda", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["sturm_bound"] == 46 and doc["sturm_met"] is True
    assert doc["weight"] == 46
    assert doc["table_depth"]["omega"] > 0


def test_heckecheck_failure_exit_5(capsys):
    code, out, _ = run(capsys, "heckecheck", "--delta", "-8", "--r", "4",
                       "--p", "5", "--ell", "23", "--R", "1", "--B", "2",
                       "--prec", "23", "--lambda", "1")
    assert code == 5
    doc = json.loads(out)  # the report is still emitted
    assert doc["certified"] is False and doc["first_failure"] == 1


def test_certify_small(capsys):
    code, out, _ = run(capsys, "certify", "--delta", "-8", "--r", "4",
                       "--p", "5", "--ell", "23", "--R", "1", "--B", "2",
                       "--M", "1", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["1", "16", "9", "9", "true"]
    assert rows[1] == ["2", "416", "9", "9", "true"]


def test_certify_empty_M(capsys, tmp_path):
    # a certify with no rows would certify nothing: --M is required and
    # needs a value, whatever the twist, and no table is cached
    for twist in (("--delta", "-15", "--r", "3"), ("--delta", "-8", "--r", "4")):
        for rows in (("--M",), ()):
            with pytest.raises(SystemExit) as exc:
                main(["certify", *twist, "--p", "11", "--ell", "7", "--R", "1",
                      "--B", "2", "--json", *rows, "--cache-dir", str(tmp_path)])
            assert exc.value.code == 2, (twist, rows)
            captured = capsys.readouterr()
            assert captured.out == "" and "--M" in captured.err, (twist, rows)
            assert list(tmp_path.iterdir()) == [], (twist, rows)


def test_certify_eigenfail_exit_5(capsys):
    code, _, err = run(capsys, "certify", "--delta", "-8", "--r", "4",
                       "--p", "5", "--ell", "23", "--R", "1", "--B", "2",
                       "--M", "1", "--lambda", "1")
    assert code == 5 and "eigencheck failed" in err


def test_certify_mismatch_exit_6(capsys):
    # prec 1 falsely certifies lambda = b(7) = 7, and the M = 2 prediction
    # then disagrees with the directly computed value
    code, out, _ = run(capsys, "certify", "--delta", "-8", "--r", "4",
                       "--p", "7", "--ell", "23", "--R", "1", "--B", "2",
                       "--M", "2", "--lambda", "7", "--prec", "1", "--json")
    assert code == 6
    doc = json.loads(out)
    assert doc["all_match"] is False
    assert doc["rows"][0]["match"] is False


def test_certify_f_variant(capsys):
    # predictor vs direct table for the (-23, 1) twist; lambda = b(5) makes
    # the depth-1 eigencheck trivially consistent and M = 1 is an exact
    # inversion identity, so the row must match
    code, out, _ = run(capsys, "phi", "--delta", "-23", "--r", "1",
                       "--prec", "5", "--modulus", "7")
    assert code == 0
    b5 = int(out.strip().splitlines()[-1].split(",")[1])
    code, out, _ = run(capsys, "certify", "--delta", "-23", "--r", "1",
                       "--p", "5", "--ell", "7", "--R", "1", "--B", "2",
                       "--M", "1", "--lambda", str(b5), "--prec", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["function"] == "f"
    assert doc["rows"][0]["index"] == 24
    assert doc["rows"][0]["match"] is True


def test_eval_eta24(capsys):
    code, out, _ = run(capsys, "eval", "eta(q)^24", "--prec", "4")
    assert code == 0
    assert out.strip().splitlines() == ["0,0", "1,1", "2,-24", "3,252"]


def test_eval_eisenstein(capsys):
    code, out, _ = run(capsys, "eval", "E4(q)", "--prec", "2")
    assert code == 0
    assert out.strip().splitlines() == ["0,1", "1,240"]


def test_eval_errors_exit_2(capsys):
    code, _, err = run(capsys, "eval", "eta(q)^2", "--prec", "4")
    assert code == 2 and "NonIntegralExponent" in err
    code, _, err = run(capsys, "eval", "eta(q^0)", "--prec", "4")
    assert code == 2 and "ExprSyntaxError" in err
    code, out, err = run(capsys, "eval", "eta(q) + 1", "--prec", "5")
    assert code == 2 and out == "" and "ExponentMismatch" in err
    # a factor admits a single caret: q^2^3 is not read as (q^2)^3
    code, out, err = run(capsys, "eval", "q^2^3", "--prec", "10")
    assert code == 2 and out == "" and "ExprSyntaxError" in err


def test_scan(capsys):
    code, out, _ = run(capsys, "scan", "--delta", "-8", "--r", "4",
                       "--ell", "23", "--R", "1", "--B", "2",
                       "--bound", "30", "--prec", "8")
    assert code == 0
    rows = {int(line.split(",")[0]): line.split(",")[1]
            for line in out.strip().splitlines()}
    assert rows[5] == "0"
    assert 2 not in rows and 3 not in rows and 23 not in rows


def test_scan_empty(capsys):
    code, out, _ = run(capsys, "scan", "--delta", "-8", "--r", "4",
                       "--ell", "23", "--R", "1", "--B", "2",
                       "--bound", "4", "--prec", "8")
    assert code == 0 and out.strip() == ""
    for ell, bound in (("23", "4"), ("5", "6")):
        code, out, err = run(capsys, "scan", "--delta", "-8", "--r", "4", "--ell", ell,
                             "--R", "1", "--B", "2", "--bound", bound, "--prec", "8",
                             "--json")
        assert code == 0 and err == "" and json.loads(out)["rows"] == []


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--delta", "-8", "--r", "4",
                       "--ell", "5", "--R", "1", "--B", "2",
                       "--bound", "15", "--prec", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(row["class"] in ("0", "2", "b(p)") for row in doc["rows"])


# r*d is a multiple of 3 for every d, so every c(d) vanishes, c(1) included;
# 7 is inert for -15, so the requests pass every other check
ZERO_TWIST = ("--delta", "-15", "--r", "3")
ZERO_SETTING = ("--ell", "7", "--R", "1", "--B", "2")


def test_phi_zero_normalizer_exit_4(capsys, tmp_path):
    # every command that needs c(1) exits 4, before any table is cached
    for argv in [
        ("phi", *ZERO_TWIST, "--prec", "3"),
        ("heckecheck", *ZERO_TWIST, *ZERO_SETTING, "--p", "11", "--prec", "5"),
        ("scan", *ZERO_TWIST, *ZERO_SETTING, "--bound", "30", "--prec", "5"),
        ("certify", *ZERO_TWIST, *ZERO_SETTING, "--p", "11", "--M", "1", "2"),
        ("certify", *ZERO_TWIST, *ZERO_SETTING, "--p", "11", "--M", "1", "10000"),
    ]:
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 4 and out == "" and "normalizer" in err, argv
        assert err.startswith("error: ZeroNormalizer:"), argv
        assert len(err.splitlines()) == 1, argv
        assert list(tmp_path.iterdir()) == [], argv


# scan requests whose bound leaves no prime to check (4, or 6 with ell = 5):
# (argv without --bound, that bound, the exit code at any bound)
NO_PRIME_SCANS = [
    (("--delta", "-15", "--r", "3", "--ell", "17", "--R", "1", "--B", "2",
      "--prec", "5"), "4", 2),                          # 17 splits for -15
    (("--delta", "-71", "--r", "1", "--ell", "5", "--R", "1", "--B", "2",
      "--prec", "5"), "6", 2),                          # 5 splits for -71
    ((*ZERO_TWIST, *ZERO_SETTING, "--prec", "5"), "4", 4),
    ((*ZERO_TWIST, "--ell", "5", "--R", "1", "--B", "2", "--prec", "5"), "6", 4),
    ((*TWIST, "--prec", "0"), "4", 2),
]


@pytest.mark.parametrize("argv, bound, expect", NO_PRIME_SCANS)
def test_scan_with_no_prime_is_checked_as_at_any_bound(capsys, tmp_path, argv,
                                                       bound, expect):
    # a bound below the first scanned prime does not skip the request check,
    # and one past the table limit does not come first or sieve that far
    results = []
    for b in (bound, "30", str(10 ** 11)):
        cache_dir = tmp_path / b
        start = time.perf_counter()
        results.append(run(capsys, "scan", *argv, "--bound", b,
                           "--cache-dir", str(cache_dir)))
        assert time.perf_counter() - start < 5
        assert not cache_dir.exists()
    code, out, err = results[0]
    assert results[0] == results[1] == results[2]
    assert code == expect and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("expression", ["+".join(["1"] * 1000),
                                        "(" * 300 + "1" + ")" * 300],
                         ids=["chain", "nesting"])
def test_eval_too_deep_exit_2(capsys, expression):
    # a chain or a nesting past the recursion limit is an input error
    code, out, err = run(capsys, "eval", expression, "--prec", "3")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and "too deeply" in err


def test_phi_rational_expansion_exit_2(capsys, tmp_path):
    # c(1) = -24 for the twist (-56, 4), and b(2) is not an integer
    code, out, err = run(capsys, "phi", "--delta", "-56", "--r", "4", "--prec", "3",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err == "error: NonDivisible: b(2) = 1168/-24 is not an integer\n"
    assert list(tmp_path.iterdir()) == []


def test_env_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QCONG_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "coeffs", "--function", "f", "--upto", "10")
    assert code == 0
    assert list(tmp_path.glob("f_*.qser"))


def test_binary_cache_flag_is_unknown(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--function", "omega", "--upto", "30", "--modulus", "23",
              "--cache-dir", str(tmp_path), "--binary-cache"])
    assert exc.value.code == 2
    assert "--binary-cache" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_coeffs_cache_bad_header_exit_3(capsys, tmp_path, write_legacy_text):
    # a matching file whose header prec is not an integer is a cache error
    write_legacy_text(tmp_path, "omega", [1, 2, 3], 23, prec="5")
    code, out, err = run(capsys, "coeffs", "--function", "omega", "--modulus", "23",
                         "--upto", "3", "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("cache error:") and len(err.splitlines()) == 1


BIG = 23 ** 15  # residues past a u64 word (2**64): the cache falls back to text
BIG_COMMANDS = {
    "coeffs": ("coeffs", "--function", "omega", "--upto", "40",
               "--modulus", str(BIG)),
    "phi": ("phi", "--delta", "-8", "--r", "4", "--prec", "20",
            "--modulus", str(BIG)),
    "heckecheck": ("heckecheck", "--delta", "-8", "--r", "4", "--p", "5",
                   "--ell", "23", "--R", "15", "--B", "2", "--prec", "4"),
}


@pytest.mark.parametrize("name", sorted(BIG_COMMANDS))
def test_modulus_above_u64_caches_as_text(capsys, tmp_path, name):
    argv = BIG_COMMANDS[name] + ("--cache-dir", str(tmp_path))
    cold_code, cold_out, cold_err = run(capsys, *argv)
    assert cold_err == ""
    (path,) = tmp_path.glob("*.qser")
    assert cache.load_coeffs(path)[0]["encoding"] == "text"
    code, out, _ = run(capsys, *argv)
    assert list(tmp_path.glob("*.qser")) == [path]
    if name == "heckecheck":
        cold_doc, doc = json.loads(cold_out), json.loads(out)
        assert cold_doc.pop("table_source")["omega"] == "built"
        assert doc.pop("table_source")["omega"] == "loaded"
        assert doc == cold_doc
    else:
        assert out == cold_out
    assert code == cold_code == (5 if name == "heckecheck" else 0)  # 5: not eigen


@pytest.mark.parametrize("R", [150, 160])
def test_modulus_of_any_size_caches(capsys, tmp_path, R):
    # a name keeps its decimal modulus up to 233 bytes, NAME_MAX less the 22
    # of its temporary name: R = 150 gives 224 bytes; R = 160 would give 237,
    # so its modulus is spelled by a digest, and lookup matches the header
    argv = ("heckecheck", "--delta", "-8", "--r", "4", "--p", "5", "--ell", "23",
            "--R", str(R), "--B", "2", "--prec", "5", "--json",
            "--cache-dir", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (5, "")  # 5: not eigen mod 23^R
    (path,) = tmp_path.glob("omega_*.qser")
    digest = hashlib.sha256(str(23 ** R).encode()).hexdigest()
    assert path.name == {150: f"omega_mod{23 ** 150}_p560.qser",
                         160: f"omega_modsha256-{digest}_p560.qser"}[R]
    assert len(path.name.encode()) <= cache.MAX_NAME_BYTES == 233
    assert cache.load_coeffs(path)[0]["modulus"] == 23 ** R
    code, out, err = run(capsys, *argv)
    assert (code, err) == (5, "")
    assert json.loads(out)["table_source"]["omega"] == "loaded"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("modulus", [23, BIG], ids=["23", "23**15"])
def test_json_array_cache_file_is_rebuilt(capsys, tmp_path, write_legacy_text, modulus):
    # a file from before the two codecs is skipped, then replaced by the
    # current encoding: binary below 2**64, decimal lines above
    argv = ("coeffs", "--function", "omega", "--upto", "40", "--modulus", str(modulus))
    _, expect, _ = run(capsys, *argv)
    values = omega_coeffs(40, Ring(modulus))
    legacy = write_legacy_text(tmp_path, "omega", values, modulus, 40)
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0 and out == expect and err == ""
    assert list(tmp_path.glob("*.qser")) == [legacy]
    header, got = cache.load_coeffs(legacy)
    assert header["encoding"] == ("binary" if modulus == 23 else "text")
    assert got == values and not legacy.read_bytes().split(b"\n", 1)[1].startswith(b"[")
    assert run(capsys, *argv, "--cache-dir", str(tmp_path))[1] == expect


def test_phi_reads_prefix_of_deeper_text_file(capsys, tmp_path):
    # a text file decodes whole, so phi must print only the entries asked for
    argv = BIG_COMMANDS["phi"][:-4] + ("--modulus", str(BIG))
    _, expect, _ = run(capsys, *argv, "--prec", "8")
    assert run(capsys, *argv, "--prec", "20", "--cache-dir", str(tmp_path))[0] == 0
    code, out, _ = run(capsys, *argv, "--prec", "8", "--cache-dir", str(tmp_path))
    assert code == 0 and out == expect and len(out.splitlines()) == 8
    assert [p.name for p in tmp_path.glob("*.qser")] == [f"phi_star_d-8_r4_mod{BIG}_p20.qser"]


@pytest.mark.parametrize("flag", ["--B", "--R"])
@pytest.mark.parametrize("name", sorted(WARM_COMMANDS))
def test_B_or_R_below_one_exit_2(capsys, tmp_path, name, flag):
    # B = 0 (weight 2) or R = 0 (modulus 1) proves nothing: refused before
    # any table is read or any cache dir is made
    argv = list(WARM_COMMANDS[name])
    argv[argv.index(flag) + 1] = "0"
    cache_dir = tmp_path / "cache"
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "must both be at least 1" in err
    assert not cache_dir.exists()


@pytest.mark.parametrize("command", [
    ("heckecheck", "--delta", "-8", "--r", "4", "--p", "5", "--ell", "23",
     "--R", "1", "--B", "2"),
    ("certify", "--delta", "-8", "--r", "4", "--p", "5", "--ell", "23",
     "--R", "1", "--B", "2", "--M", "1"),
    ("scan", "--delta", "-8", "--r", "4", "--ell", "23", "--R", "1", "--B", "2",
     "--bound", "30"),
    ("phi", "--delta", "-8", "--r", "4"),
])
@pytest.mark.parametrize("prec", ["0", "-3"])
def test_prec_below_one_exit_2(capsys, command, prec):
    code, out, err = run(capsys, *command, "--prec", prec)
    assert code == 2 and out == ""
    assert "--prec" in err and len(err.splitlines()) == 1


def test_threads_flag_is_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--function", "omega", "--upto", "20", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
