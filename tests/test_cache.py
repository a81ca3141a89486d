import struct

import pytest

from qcong.cache import MAGIC, CacheError, find_coeffs, load_coeffs, save_coeffs


def test_text_exact_round_trip(tmp_path):
    values = [1, -24, 252, 10 ** 80]
    path = save_coeffs(tmp_path, "omega", values, 0, prec=3)
    header, got = load_coeffs(path)
    assert got == values
    assert header["function"] == "omega" and header["modulus"] == 0


def test_text_modular_round_trip(tmp_path):
    values = [1, 17, 1]
    path = save_coeffs(tmp_path, "phi_star", values, 23, prec=3,
                       delta=-8, r=4)
    header, got = load_coeffs(path)
    assert got == values and header["delta"] == -8 and header["r"] == 4


def test_binary_round_trip(tmp_path):
    values = list(range(23)) * 3
    path = save_coeffs(tmp_path, "omega", values, 23, prec=68,
                       encoding="binary")
    raw = path.read_bytes()
    assert MAGIC in raw
    header, got = load_coeffs(path)
    assert got == values and header["encoding"] == "binary"


def test_failed_write_keeps_old_file(tmp_path, monkeypatch):
    path = save_coeffs(tmp_path, "omega", [1, 2, 3], 23, prec=2)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("qcong.cache.os.replace", interrupted)
    with pytest.raises(CacheError):
        save_coeffs(tmp_path, "omega", [1, 2, 4], 23, prec=2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_unwritable_directory_is_cache_error(tmp_path):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    with pytest.raises(CacheError):
        save_coeffs(not_a_dir, "omega", [1, 2, 3], 23, prec=2)
    with pytest.raises(CacheError):
        save_coeffs(not_a_dir / "sub", "omega", [1, 2, 3], 23, prec=2)


def test_binary_requires_modular(tmp_path):
    with pytest.raises(ValueError):
        save_coeffs(tmp_path, "omega", [1, 2], 0, prec=1, encoding="binary")


def test_payload_length_validation(tmp_path):
    with pytest.raises(ValueError):
        save_coeffs(tmp_path, "omega", [1, 2, 3], 0, prec=3)  # needs prec+1
    save_coeffs(tmp_path, "phi_star", [1, 2, 3], 0, prec=3)   # b(1..3)


def test_corruption_detection(tmp_path):
    path = save_coeffs(tmp_path, "omega", [1, 2, 3], 23, prec=2)
    head, _ = path.read_bytes().split(b"\n", 1)

    path.write_bytes(b"garbage\n[1,2,3]\n")
    with pytest.raises(CacheError):
        load_coeffs(path)

    path.write_bytes(head + b"\n[1,2]\n")  # wrong length
    with pytest.raises(CacheError):
        load_coeffs(path)

    path.write_bytes(head + b"\n[1,2,99]\n")  # out of range mod 23
    with pytest.raises(CacheError):
        load_coeffs(path)

    for payload in (b"[1,-2,3]", b"[1,2,23]", b"[-1,0,22]"):  # each out of range
        path.write_bytes(head + b"\n" + payload + b"\n")
        with pytest.raises(CacheError):
            load_coeffs(path)
    path.write_bytes(head + b"\n[0,1,22]\n")  # the range edges are accepted
    assert load_coeffs(path)[1] == [0, 1, 22]
    empty = save_coeffs(tmp_path, "phi_star", [], 23, prec=0)  # no values to range-check
    assert load_coeffs(empty)[1] == []

    binary = save_coeffs(tmp_path, "f", [1, 2, 3], 23, prec=2,
                         encoding="binary")
    head2, _ = binary.read_bytes().split(b"\n", 1)
    words = MAGIC + struct.pack("<QQQQ", 3, 1, 23, 3)  # a word equal to m
    binary.write_bytes(head2 + b"\n" + words)
    with pytest.raises(CacheError):
        load_coeffs(binary)
    binary.write_bytes(head2 + b"\nWRONG" + b"\x00" * 20)
    with pytest.raises(CacheError):
        load_coeffs(binary)


def test_find_coeffs_picks_deepest(tmp_path):
    save_coeffs(tmp_path, "omega", list(range(11)), 23, prec=10)
    save_coeffs(tmp_path, "omega", list(range(21)), 23, prec=20)
    hit = find_coeffs(tmp_path, "omega", 23, min_prec=5)
    assert hit is not None and hit[0]["prec"] == 20
    assert find_coeffs(tmp_path, "omega", 23, min_prec=50) is None
    assert find_coeffs(tmp_path, "omega", 5, min_prec=5) is None
    assert find_coeffs(tmp_path, "f", 23, min_prec=5) is None


def test_find_coeffs_twist_keys(tmp_path):
    save_coeffs(tmp_path, "phi_star", [1, 2], 23, prec=2, delta=-8, r=4)
    assert find_coeffs(tmp_path, "phi_star", 23, 2, delta=-8, r=4) is not None
    assert find_coeffs(tmp_path, "phi_star", 23, 2, delta=-23, r=1) is None
