import json

import pytest

from qcong import cache
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
    code, out, _ = run(capsys, "coeffs", "--function", "omega",
                       "--upto", "416", "--exact")
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


def test_coeffs_exact_modulus_conflict(capsys):
    code, _, err = run(capsys, "coeffs", "--function", "omega",
                       "--upto", "5", "--exact", "--modulus", "23")
    assert code == 2 and "exclusive" in err


def test_coeffs_cache_identical_stdout(capsys, tmp_path):
    args = ("coeffs", "--function", "omega", "--upto", "50",
            "--modulus", "23", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    files = list(tmp_path.glob("*.qser"))
    assert code1 == 0 and len(files) == 1
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out2 == out1


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
    # one table, to the deeper of the eigencheck depth (9440) and the rows
    code, out, _ = run(capsys, "certify", *TWIST, "--p", "5", "--M", "1", "2", "3",
                       "--cache-dir", str(tmp_path))
    assert code == 0 and out.strip().splitlines()[-1] == "3,10416,12,12,true"
    assert sorted(p.name for p in tmp_path.glob("*.qser")) == [
        "omega_mod23_p10416.qser"]


@pytest.mark.parametrize("name", sorted(WARM_COMMANDS))
def test_legacy_text_cache_is_read(capsys, tmp_path, write_legacy_text, name):
    # a mod-23 omega file in the older text encoding still serves every command
    cold_code, cold_out, _ = run(capsys, *WARM_COMMANDS[name])
    values = omega_coeffs(600, Ring(23)).values
    legacy = write_legacy_text(tmp_path, "omega", values, 23, 600)
    code, out, _ = run(capsys, *WARM_COMMANDS[name], "--cache-dir", str(tmp_path))
    assert code == cold_code == 0
    assert list(tmp_path.glob("*.qser")) == [legacy]
    if name == "heckecheck":
        cold_doc, doc = json.loads(cold_out), json.loads(out)
        assert doc.pop("table_source") == {"f": None, "omega": "loaded"}
        cold_doc.pop("table_source")
        assert doc == cold_doc
    else:
        assert out == cold_out


def test_certify_rejects_bad_prime_before_building(capsys, tmp_path):
    # p is checked before any table is built for the rows
    code, out, err = run(capsys, "certify", *TWIST, "--p", "25", "--M", "4",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == "" and "invalid certification request" in err
    assert list(tmp_path.iterdir()) == []


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


def test_heckecheck_certified(capsys):
    code, out, _ = run(capsys, "heckecheck", "--delta", "-8", "--r", "4",
                       "--p", "5", "--ell", "23", "--R", "1", "--B", "2",
                       "--prec", "23", "--lambda", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["sturm_bound"] == 23 and doc["sturm_met"] is True
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


def test_certify_empty_M(capsys):
    code, out, _ = run(capsys, "certify", "--delta", "-8", "--r", "4",
                       "--p", "5", "--ell", "23", "--R", "1", "--B", "2", "--M")
    assert code == 0 and out.strip() == ""


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


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--delta", "-8", "--r", "4",
                       "--ell", "5", "--R", "1", "--B", "2",
                       "--bound", "15", "--prec", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(row["class"] in ("0", "2", "b(p)") for row in doc["rows"])


def test_phi_zero_normalizer_exit_4(capsys, monkeypatch):
    import qcong.cli as cli_mod

    monkeypatch.setattr(cli_mod, "exact_c1", lambda params: 0)
    code, _, err = run(capsys, "phi", "--delta", "-8", "--r", "4", "--prec", "3")
    assert code == 4 and "normalizer" in err


def test_env_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QCONG_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "coeffs", "--function", "f", "--upto", "10")
    assert code == 0
    assert list(tmp_path.glob("f_*.qser"))


def test_binary_cache_round_trip(capsys, tmp_path):
    code, out1, _ = run(capsys, "coeffs", "--function", "omega", "--upto", "30",
                        "--modulus", "23", "--cache-dir", str(tmp_path),
                        "--binary-cache")
    assert code == 0
    path = next(tmp_path.glob("omega_*.qser"))
    header, values = cache.load_coeffs(path)
    assert header["encoding"] == "binary"
    assert len(values) == 31
    code, out2, _ = run(capsys, "coeffs", "--function", "omega", "--upto", "30",
                        "--modulus", "23", "--cache-dir", str(tmp_path))
    assert out2 == out1


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
