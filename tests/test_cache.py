import json
import struct

import pytest

from qcong.cache import MAGIC, CacheError, find_coeffs, load_coeffs, save_coeffs
from qcong.cli import main

BIG = 23 ** 15  # a modulus past a u64 word (2**64): text payload


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


def test_text_modular_payload_is_decimal_lines(tmp_path):
    # a modulus above 2**64 is written exactly like the exact ring
    values = [0, 7, BIG - 1]
    big = save_coeffs(tmp_path, "f", values, BIG, prec=2)
    exact = save_coeffs(tmp_path, "f", values, 0, prec=2)
    assert big.read_bytes().split(b"\n", 1)[1] == b"0\n7\n%d\n" % (BIG - 1)
    assert exact.read_bytes().split(b"\n", 1)[1] == big.read_bytes().split(b"\n", 1)[1]


def test_json_array_payload_is_skipped(tmp_path, write_legacy_text):
    # earlier versions wrote mod-m text files as one JSON array: a lookup
    # skips them (their table is rebuilt), a direct load refuses them
    for modulus in (23, BIG):
        legacy = write_legacy_text(tmp_path, "omega", [3, 1, 4], modulus, prec=2)
        with pytest.raises(CacheError, match="bad payload"):
            load_coeffs(legacy)
        assert find_coeffs(tmp_path, "omega", modulus, min_prec=0) is None
        # a shallower current file is found in its place
        current = save_coeffs(tmp_path, "omega", [3, 1], modulus, prec=1)
        assert find_coeffs(tmp_path, "omega", modulus, min_prec=1) == load_coeffs(current)


def test_text_files_decode_whole(tmp_path):
    # a text file over a modulus above 2**64 and an exact file ignore the
    # prefix count
    big = save_coeffs(tmp_path, "omega", [3, 1, 4], BIG, prec=2)
    assert load_coeffs(big, 1)[1] == [3, 1, 4]
    assert find_coeffs(tmp_path, "omega", BIG, min_prec=0)[1] == [3, 1, 4]
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


def test_corruption_detection(tmp_path):
    m = BIG  # a modular text file: one decimal integer per line
    path = save_coeffs(tmp_path, "omega", [1, 2, 3], m, prec=2)
    head, _ = path.read_bytes().split(b"\n", 1)

    path.write_bytes(b"garbage\n1\n2\n3\n")
    with pytest.raises(CacheError):
        load_coeffs(path)

    for payload in (b"1\n2\n", b"1\n2\n3\n4\n"):  # wrong count
        path.write_bytes(head + b"\n" + payload)
        with pytest.raises(CacheError):
            load_coeffs(path)
    for payload in (b"1\n-2\n3\n", b"1\n2\n%d\n" % m, b"-1\n0\n%d\n" % (m - 1)):
        path.write_bytes(head + b"\n" + payload)  # each out of range
        with pytest.raises(CacheError):
            load_coeffs(path)
    for payload in (b"1.5\n2\n3\n", b"1\n2\n3.0\n", b"NaN\n2\n3\n",
                    b"1\nx\n3\n"):  # not an integer
        path.write_bytes(head + b"\n" + payload)
        with pytest.raises(CacheError):
            load_coeffs(path)
    path.write_bytes(head + b"\n0\n1\n%d\n" % (m - 1))  # the range edges are accepted
    assert load_coeffs(path)[1] == [0, 1, m - 1]
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

    # header prec and modulus must be integers; find_coeffs raises on a
    # matching file whose prec is not, instead of skipping or comparing it
    for field, value in (("prec", "2"), ("prec", 2.0), ("prec", None),
                         ("modulus", "23"), ("modulus", 23.0), ("modulus", None)):
        header = json.loads(head)
        header[field] = value
        if value is None:
            del header[field]
        path.write_bytes(json.dumps(header).encode() + b"\n0\n1\n22\n")
        with pytest.raises(CacheError):
            load_coeffs(path)
        if field == "prec":
            with pytest.raises(CacheError):
                find_coeffs(tmp_path, "omega", m, min_prec=1)


def _rewrite_header(path, **fields):
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.dumps({**json.loads(head), **fields}).encode()
    return header + b"\n" + body


STRUCTURAL_DAMAGE = {
    # name: (rewrite of a binary omega file, message)
    "no-header-newline": (lambda path: path.read_bytes().split(b"\n", 1)[0],
                          "missing header line"),
    "wrong-format-tag": (lambda path: _rewrite_header(path, format="qser0"),
                         "unrecognized format tag"),
    "unknown-encoding": (lambda path: _rewrite_header(path, encoding="zip"),
                         "unknown encoding 'zip'"),
    "truncated-length-field": (
        lambda path: path.read_bytes().split(MAGIC, 1)[0] + MAGIC + b"\x03\x00",
        "truncated length field"),
}


@pytest.mark.parametrize("damage", sorted(STRUCTURAL_DAMAGE))
def test_load_coeffs_structural_damage(capsys, tmp_path, damage):
    args = ["coeffs", "--function", "omega", "--modulus", "23", "--upto", "2"]
    assert main(args) == 0
    expect = capsys.readouterr().out
    path = save_coeffs(tmp_path, "omega", [1, 2, 3], 23, prec=2)
    rewrite, message = STRUCTURAL_DAMAGE[damage]
    path.write_bytes(rewrite(path))
    for count in (None, 1):
        with pytest.raises(CacheError, match=message):
            load_coeffs(path, count)
    # a lookup skips a file of another format; any other damage is exit 3
    code = main(args + ["--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    if damage == "wrong-format-tag":
        assert code == 0 and captured.out == expect
    else:
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("cache error:") and message in captured.err


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
