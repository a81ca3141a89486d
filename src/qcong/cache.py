"""Coefficient cache persistence.

A cache file is a JSON header line followed by the payload:

  - binary encoding (0 < modulus <= 2**64): magic bytes ``QSER1``, a
    little-endian u64 word count, then fixed-width little-endian u64 words.
    A reader can decode any prefix of it;
  - text encoding (the exact ring and moduli above 2**64): one decimal
    integer per line.  A lookup skips a text file whose payload is a JSON
    array, as earlier versions wrote, so that table is rebuilt once.

Header fields: format, encoding, function (f | omega | phi_star), delta, r,
modulus, prec.  For the index-0 functions f and omega the payload has
prec + 1 entries (indices 0..prec); for phi_star it has prec entries
(indices 1..prec).  A file depends only on its table, so every writer of
one table writes the same bytes.

Files are written under a temporary name in the target directory and then
renamed into place, so a reader never sees a partly written file.
`load_or_build` is the one load-or-build policy over these files.
"""

import json
import os
import struct
import sys
from array import array
from pathlib import Path

MAGIC = b"QSER1"
FORMAT_TAG = "qser1"

# NAME_MAX (255 bytes on common file systems) less the 22 bytes that
# _write_atomic's ".{name}.{16 hex}.tmp" adds; a longer name spells its
# modulus by the SHA-256 of its decimal string, and lookup reads the header.
MAX_NAME_BYTES = 233


class CacheError(Exception):
    """Unreadable, corrupt, or mismatched cache file, or a cache directory
    that cannot be written."""


def _payload_len(function: str, prec: int) -> int:
    return prec + 1 if function in ("f", "omega") else prec


def _file_name(function: str, modulus: int, prec: int, delta, r) -> str:
    twist = "" if delta is None else f"d{delta}_r{r}_"
    name = f"{function}_{twist}{f'mod{modulus}' if modulus else 'exact'}_p{prec}.qser"
    if len(name.encode()) <= MAX_NAME_BYTES:
        return name
    import hashlib  # 3 ms to import, paid only by a name this long
    digest = hashlib.sha256(str(modulus).encode()).hexdigest()
    return f"{function}_{twist}modsha256-{digest}_p{prec}.qser"


def save_coeffs(directory, function: str, values: list, modulus: int,
                prec: int, delta: int = None, r: int = None) -> Path:
    """Write a coefficient array to the cache directory; returns the path.

    A modular ring whose residues fit a u64 word is written binary; any
    other ring as decimal lines."""
    encoding = "binary" if 0 < modulus <= 1 << 64 else "text"
    if len(values) != _payload_len(function, prec):
        raise ValueError(
            f"payload length {len(values)} does not match prec {prec} for {function}"
        )
    directory = Path(directory)
    header = {
        "format": FORMAT_TAG,
        "encoding": encoding,
        "function": function,
        "delta": delta,
        "r": r,
        "modulus": modulus,
        "prec": prec,
    }
    path = directory / _file_name(function, modulus, prec, delta, r)
    head = json.dumps(header, sort_keys=True).encode() + b"\n"
    if encoding == "text":
        parts = ["\n".join(str(v) for v in values).encode() + b"\n"]
    else:
        try:
            words = array("Q", values)
        except (OverflowError, TypeError) as exc:
            raise ValueError("binary words must fit an unsigned 64-bit integer") from exc
        if sys.byteorder == "big":
            words.byteswap()
        parts = [MAGIC + struct.pack("<Q", len(words)), words]
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, [head] + parts)
    except OSError as exc:
        raise CacheError(f"cannot write {path}: {exc}") from exc
    return path


def _write_atomic(path: Path, parts: list):
    """Write `parts` (bytes-like) to a new file next to `path` and rename it
    into place, so that a concurrent reader sees either the old file or the
    whole new one."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def load_coeffs(path, count: int = None) -> tuple:
    """Read a cache file; returns (header dict, values list).

    A binary file decodes only its first `count` entries (all of them when
    `count` is None), but its magic bytes, its word count against the file
    size and its header prec are always checked; a text file always decodes
    whole.  Every returned value is range-checked.  Raises CacheError on any
    structural problem.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise CacheError(f"{path}: missing header line")
            try:
                header = json.loads(line)
            except ValueError as exc:
                raise CacheError(f"{path}: bad header JSON: {exc}") from exc
            if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
                raise CacheError(f"{path}: unrecognized format tag")
            for key in ("prec", "modulus"):
                _require_int(path, header, key)
            expected = _payload_len(header.get("function", ""), header["prec"])
            encoding = header.get("encoding")
            if encoding == "text":
                values = _decode_text(path, fh.read(), expected)
            elif encoding == "binary":
                values = _decode_words(path, fh, expected, count)
            else:
                raise CacheError(f"{path}: unknown encoding {encoding!r}")
    except OSError as exc:
        raise CacheError(f"cannot read {path}: {exc}") from exc
    m = header["modulus"]
    if m and values and (min(values) < 0 or max(values) >= m):
        raise CacheError(f"{path}: values out of range for modulus {m}")
    return header, values


def _require_int(path, header: dict, key: str) -> int:
    value = header.get(key)
    if type(value) is not int:
        raise CacheError(f"{path}: header {key} {value!r} is not an integer")
    return value


def _decode_text(path, body: bytes, expected: int) -> list:
    try:
        values = [int(line) for line in body.split()]
    except ValueError as exc:
        raise CacheError(f"{path}: bad payload: {exc}") from exc
    if len(values) != expected:
        raise CacheError(
            f"{path}: payload length {len(values)} does not match header prec"
        )
    return values


def _decode_words(path, fh, expected: int, count) -> list:
    """The first `count` words of a binary payload, `fh` positioned at it."""
    lead = fh.read(len(MAGIC) + 8)
    if lead[: len(MAGIC)] != MAGIC:
        raise CacheError(f"{path}: bad magic bytes")
    if len(lead) < len(MAGIC) + 8:
        raise CacheError(f"{path}: truncated length field")
    (total,) = struct.unpack_from("<Q", lead, len(MAGIC))
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != 8 * total:
        raise CacheError(f"{path}: expected {total} words, found {size // 8}")
    if total != expected:
        raise CacheError(
            f"{path}: payload length {total} does not match header prec"
        )
    n = total if count is None else min(count, total)
    words = array("Q")
    try:
        words.fromfile(fh, n)
    except EOFError as exc:
        raise CacheError(f"{path}: {exc}") from exc
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def find_coeffs(directory, function: str, modulus: int, min_prec: int,
                delta: int = None, r: int = None) -> tuple:
    """Best cached array covering min_prec, or None.

    Scans the directory for matching function/modulus/twist headers and
    returns the deepest match as (header, values).  A binary file decodes
    only the entries through index min_prec; a text file decodes whole.  A
    matching header whose prec is not an integer raises CacheError; a
    matching text file whose payload is a JSON array (written by earlier
    versions) is skipped, so its table is rebuilt.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best = None
    for path in sorted(directory.glob(f"{function}_*.qser")):
        try:
            with path.open("rb") as fh:
                header = json.loads(fh.readline())
                lead = fh.read(1)
        except (OSError, ValueError):  # unreadable, or not JSON text
            continue
        if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
            continue
        if (
            header.get("function") != function
            or header.get("modulus") != modulus
            or header.get("delta") != delta
            or header.get("r") != r
            or _require_int(path, header, "prec") < min_prec
            or header.get("encoding") == "text" and lead == b"["  # a JSON array
        ):
            continue
        if best is None or header["prec"] > best[1]["prec"]:
            best = (path, header)
    if best is None:
        return None
    return load_coeffs(best[0], _payload_len(function, min_prec))


def load_or_build(directory, function: str, modulus: int, prec: int, build,
                  delta: int = None, r: int = None) -> tuple:
    """(values, "loaded" | "built") for a table through `prec`.

    With a directory, the deepest cached file covering `prec` is decoded
    (a binary file only through `prec`); otherwise `build()` makes the
    values, which are then saved there.  Without a directory it just builds.
    """
    hit = directory and find_coeffs(directory, function, modulus, prec, delta, r)
    if hit:
        return hit[1], "loaded"
    values = build()
    if directory:
        save_coeffs(directory, function, values, modulus, prec, delta, r)
    return values, "built"


__all__ = ["CacheError", "FORMAT_TAG", "MAGIC", "find_coeffs", "load_coeffs",
           "load_or_build", "save_coeffs"]
