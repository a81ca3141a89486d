"""Coefficient cache persistence.

A cache file is a JSON header line followed by the payload:

  - text encoding, exact ring: one decimal integer per line (values can run
    to hundreds of digits, so decimal strings are mandatory);
  - text encoding, modular ring: a single line holding a JSON array;
  - binary encoding (modular rings only): magic bytes ``QSER1``, a
    little-endian u64 word count, then fixed-width little-endian u64 words.

Header fields: format, encoding, function (f | omega | phi_star), delta, r,
modulus, prec, created.  For the index-0 functions f and omega the payload
has prec + 1 entries (indices 0..prec); for phi_star it has prec entries
(indices 1..prec).

Files are written under a temporary name in the target directory and then
renamed into place, so a reader never sees a partly written file.
"""

import json
import os
import struct
from datetime import datetime, timezone
from pathlib import Path

MAGIC = b"QSER1"
FORMAT_TAG = "qser1"


class CacheError(Exception):
    """Unreadable, corrupt, or mismatched cache file, or a cache directory
    that cannot be written."""


def _payload_len(function: str, prec: int) -> int:
    return prec + 1 if function in ("f", "omega") else prec


def _file_name(function: str, modulus: int, prec: int, delta, r) -> str:
    parts = [function]
    if delta is not None:
        parts.append(f"d{delta}_r{r}")
    parts.append("exact" if modulus == 0 else f"mod{modulus}")
    parts.append(f"p{prec}")
    return "_".join(parts) + ".qser"


def save_coeffs(directory, function: str, values: list, modulus: int,
                prec: int, delta: int = None, r: int = None,
                encoding: str = "text") -> Path:
    """Write a coefficient array to the cache directory; returns the path."""
    if encoding not in ("text", "binary"):
        raise ValueError("encoding must be 'text' or 'binary'")
    if encoding == "binary" and modulus == 0:
        raise ValueError("binary encoding is for modular rings only")
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
        "created": datetime.now(timezone.utc).isoformat(),
    }
    path = directory / _file_name(function, modulus, prec, delta, r)
    head = json.dumps(header, sort_keys=True).encode() + b"\n"
    if encoding == "text":
        if modulus == 0:
            body = "\n".join(str(v) for v in values).encode() + b"\n"
        else:
            body = json.dumps(values).encode() + b"\n"
    else:
        if any(v < 0 or v >= 1 << 64 for v in values):
            raise ValueError("binary words must fit an unsigned 64-bit integer")
        body = MAGIC + struct.pack("<Q", len(values))
        body += b"".join(struct.pack("<Q", v) for v in values)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, head + body)
    except OSError as exc:
        raise CacheError(f"cannot write {path}: {exc}") from exc
    return path


def _write_atomic(path: Path, data: bytes):
    """Write a new file next to `path` and rename it into place, so that a
    concurrent reader sees either the old file or the whole new one."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def load_coeffs(path) -> tuple:
    """Read a cache file; returns (header dict, values list).

    Raises CacheError on any structural problem.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read {path}: {exc}") from exc
    nl = raw.find(b"\n")
    if nl < 0:
        raise CacheError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl])
    except json.JSONDecodeError as exc:
        raise CacheError(f"{path}: bad header JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
        raise CacheError(f"{path}: unrecognized format tag")
    body = raw[nl + 1 :]
    expected = _payload_len(header.get("function", ""), header.get("prec", -1))
    encoding = header.get("encoding")
    if encoding == "text":
        try:
            if header["modulus"] == 0:
                values = [int(line) for line in body.split() if line]
            else:
                values = json.loads(body)
                if not isinstance(values, list) or not all(
                    isinstance(v, int) for v in values
                ):
                    raise ValueError("payload is not an integer array")
        except ValueError as exc:
            raise CacheError(f"{path}: bad payload: {exc}") from exc
    elif encoding == "binary":
        if body[: len(MAGIC)] != MAGIC:
            raise CacheError(f"{path}: bad magic bytes")
        if len(body) < len(MAGIC) + 8:
            raise CacheError(f"{path}: truncated length field")
        (count,) = struct.unpack_from("<Q", body, len(MAGIC))
        words = body[len(MAGIC) + 8 :]
        if len(words) != 8 * count:
            raise CacheError(f"{path}: expected {count} words, found {len(words) // 8}")
        values = list(struct.unpack(f"<{count}Q", words))
    else:
        raise CacheError(f"{path}: unknown encoding {encoding!r}")
    if len(values) != expected:
        raise CacheError(
            f"{path}: payload length {len(values)} does not match header prec"
        )
    m = header["modulus"]
    if m and values and (min(values) < 0 or max(values) >= m):
        raise CacheError(f"{path}: values out of range for modulus {m}")
    return header, values


def find_coeffs(directory, function: str, modulus: int, min_prec: int,
                delta: int = None, r: int = None) -> tuple:
    """Best cached array covering min_prec, or None.

    Scans the directory for matching function/modulus/twist headers and
    returns the deepest match as (header, values).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best = None
    for path in sorted(directory.glob(f"{function}_*.qser")):
        try:
            with path.open("rb") as fh:
                header = json.loads(fh.readline())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
            continue
        if (
            header.get("function") != function
            or header.get("modulus") != modulus
            or header.get("delta") != delta
            or header.get("r") != r
            or header.get("prec", -1) < min_prec
        ):
            continue
        if best is None or header["prec"] > best[1].get("prec", -1):
            best = (path, header)
    if best is None:
        return None
    header, values = load_coeffs(best[0])
    return header, values


__all__ = ["CacheError", "FORMAT_TAG", "MAGIC", "find_coeffs", "load_coeffs", "save_coeffs"]
