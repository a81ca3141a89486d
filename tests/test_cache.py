import struct

import pytest

from qcong.cache import MAGIC, CacheError, find_coeffs, load_coeffs, save_coeffs
from qcong.cli import main


def test_text_exact_round_trip(tmp_path):
    values = [1, -24, 252, 10 ** 80]
    path = save_coeffs(tmp_path, "omega", values, 0, prec=3)
    header, got = load_coeffs(path)
    assert got == values
    assert header["function"] == "omega" and header["modulus"] == 0


def test_text_modular_round_trip(tmp_path):
    # residues of a modulus above 2**64 do not fit a binary word
    values = [1, 2 ** 64 + 17, 2 ** 65 - 1]
    path = save_coeffs(tmp_path, "phi_star", values, 2 ** 65, prec=3,
                       delta=-8, r=4)
    header, got = load_coeffs(path)
    assert got == values and header["delta"] == -8 and header["r"] == 4
    assert header["encoding"] == "text"
    assert load_coeffs(path, 1)[1] == values  # a text file decodes whole


def test_binary_round_trip(tmp_path):
    values = list(range(23)) * 3
    path = save_coeffs(tmp_path, "omega", values, 23, prec=68)
    raw = path.read_bytes()
    assert MAGIC in raw
    header, got = load_coeffs(path)
    assert got == values and header["encoding"] == "binary"


def test_binary_golden_bytes(tmp_path):
    # the little-endian layout: MAGIC, <Q count>, then one <Q word> per value
    values = [0, 1, 22, 255, 256, 2 ** 32, 2 ** 64 - 1]
    path = save_coeffs(tmp_path, "phi_star", values, 2 ** 64, prec=7,
                       delta=-8, r=4)
    body = path.read_bytes().split(b"\n", 1)[1]
    assert body == MAGIC + struct.pack("<Q", 7) + b"".join(
        struct.pack("<Q", v) for v in values)
    assert load_coeffs(path)[1] == values


@pytest.mark.parametrize("word", [-1, 2 ** 64, 2 ** 70])
def test_binary_word_out_of_range(tmp_path, word):
    with pytest.raises(ValueError):
        save_coeffs(tmp_path, "f", [1, word], 23, prec=1)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("change", ["truncate", "extend"])
def test_binary_size_mismatch(capsys, tmp_path, change):
    args = ("coeffs", "--function", "omega", "--upto", "30",
            "--modulus", "23", "--cache-dir", str(tmp_path))
    assert main(list(args)) == 0
    capsys.readouterr()
    path = next(tmp_path.glob("omega_*.qser"))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] if change == "truncate" else raw + bytes(8))
    for count in (None, 1):
        with pytest.raises(CacheError):
            load_coeffs(path, count)
    assert main(list(args[:4]) + ["5"] + list(args[5:])) == 3
    assert capsys.readouterr().err.startswith("cache error:")


def test_binary_prefix_read(tmp_path):
    values = [n % 23 for n in range(40)]
    path = save_coeffs(tmp_path, "omega", values, 23, prec=39)
    assert load_coeffs(path, 0)[1] == []
    assert load_coeffs(path, 10)[1] == values[:10]
    assert load_coeffs(path, 99)[1] == values
    head, body = path.read_bytes().split(b"\n", 1)
    k = 17  # a word equal to the modulus at index k
    bad = bytearray(body)
    struct.pack_into("<Q", bad, len(MAGIC) + 8 + 8 * k, 23)
    path.write_bytes(head + b"\n" + bytes(bad))
    assert load_coeffs(path, k - 1)[1] == values[: k - 1]
    assert load_coeffs(path, k)[1] == values[:k]  # indices 0..k-1
    for count in (k + 1, None):
        with pytest.raises(CacheError):
            load_coeffs(path, count)
    # the header prec is checked against the word count without the payload
    path.write_bytes(head.replace(b'"prec": 39', b'"prec": 38') + b"\n" + body)
    with pytest.raises(CacheError):
        load_coeffs(path, 1)


def test_text_files_decode_whole(tmp_path, write_legacy_text):
    # a legacy text mod-m file and an exact file ignore the prefix count
    legacy = write_legacy_text(tmp_path, "omega", [3, 1, 4], 23, prec=2)
    assert load_coeffs(legacy, 1)[1] == [3, 1, 4]
    assert find_coeffs(tmp_path, "omega", 23, min_prec=0)[1] == [3, 1, 4]
    exact = save_coeffs(tmp_path, "f", [1, 1, -1], 0, prec=2)
    assert load_coeffs(exact, 1)[1] == [1, 1, -1]


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
    # binary exactly when the ring is modular and its residues fit a u64 word
    for modulus, encoding in ((23, "binary"), (2 ** 64, "binary"),
                              (2 ** 64 + 1, "text"), (0, "text")):
        path = save_coeffs(tmp_path, "f", [1, 2], modulus, prec=1)
        assert load_coeffs(path)[0]["encoding"] == encoding


def test_payload_length_validation(tmp_path):
    with pytest.raises(ValueError):
        save_coeffs(tmp_path, "omega", [1, 2, 3], 0, prec=3)  # needs prec+1
    save_coeffs(tmp_path, "phi_star", [1, 2, 3], 0, prec=3)   # b(1..3)


def test_corruption_detection(tmp_path, write_legacy_text):
    path = write_legacy_text(tmp_path, "omega", [1, 2, 3], 23, prec=2)
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
    for payload in (b"[1.5,2,3]", b'["1",2,3]', b"[null,2,3]", b"[[1],2,3]",
                    b'["1","2","3"]', b"[[1],[2],[3]]", b"[1,2,3.0]",
                    b"[NaN,2,3]", b"[1,Infinity,3]", b"[1,2,-Infinity]",
                    b'{"a":1}'):  # not an integer array
        path.write_bytes(head + b"\n" + payload + b"\n")
        with pytest.raises(CacheError):
            load_coeffs(path)
    path.write_bytes(head + b"\n[0,1,22]\n")  # the range edges are accepted
    assert load_coeffs(path)[1] == [0, 1, 22]
    empty = save_coeffs(tmp_path, "phi_star", [], 23, prec=0)  # no values to range-check
    assert load_coeffs(empty)[1] == []

    binary = save_coeffs(tmp_path, "f", [1, 2, 3], 23, prec=2)
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
    assert hit[1] == list(range(6))  # binary: decoded through index min_prec
    assert find_coeffs(tmp_path, "omega", 23, min_prec=50) is None
    assert find_coeffs(tmp_path, "omega", 5, min_prec=5) is None
    assert find_coeffs(tmp_path, "f", 23, min_prec=5) is None


def test_find_coeffs_twist_keys(tmp_path):
    save_coeffs(tmp_path, "phi_star", [1, 2], 23, prec=2, delta=-8, r=4)
    assert find_coeffs(tmp_path, "phi_star", 23, 2, delta=-8, r=4) is not None
    assert find_coeffs(tmp_path, "phi_star", 23, 2, delta=-23, r=1) is None
