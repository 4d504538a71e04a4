"""Binary file formats: LFTR tensors, LFTC checkpoint containers, PGM/PPM images.

LFTR tensor layout (little-endian throughout):

    magic   4 bytes  b"LFTR"
    version u32      1
    dtype   u8       0 = float32, 1 = float64
    rank    u32      0..5
    dims    u32 * rank
    payload row-major scalars

An LFTC container is a named collection of LFTR blobs: magic b"LFTC",
u32 version 1, u32 entry count, then per entry a u16 name length, the
UTF-8 name, u8 dtype, u32 rank and u32 dims; the header is followed by
the raw LFTR records in header order. Round-trips are bit-exact.

PGM (P5) and PPM (P6) support the 8-bit maxval-255 form only; masks use
255 as the ignore label.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Mapping

import numpy as np

LFTR_MAGIC = b"LFTR"
LFTC_MAGIC = b"LFTC"
FORMAT_VERSION = 1
MAX_RANK = 5

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class FormatError(ValueError):
    """Malformed or unsupported file content."""


def _dtype_code(arr: np.ndarray) -> int:
    try:
        return _CODE_FOR[arr.dtype]
    except KeyError:
        raise FormatError(f"unsupported dtype {arr.dtype}; only float32/float64 are stored") from None


def _shape_bytes(arr: np.ndarray, what: str = "") -> bytes:
    """The ``<B I I*rank>`` shape header both formats share: dtype code, rank, dims."""
    if arr.ndim > MAX_RANK:
        raise FormatError(f"{what}rank {arr.ndim} exceeds the supported maximum of {MAX_RANK}")
    return struct.pack(f"<BI{arr.ndim}I", _dtype_code(arr), arr.ndim, *arr.shape)


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    head = LFTR_MAGIC + struct.pack("<I", FORMAT_VERSION) + _shape_bytes(arr)
    payload = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return head + payload


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def _read_head(fh, magic: bytes) -> None:
    """The magic and version that open both formats."""
    got = _read_exact(fh, 4, "magic")
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}")


def _read_shape(fh, what: str = ""):
    code, rank = struct.unpack("<BI", _read_exact(fh, 5, f"{what}shape header"))
    if code not in _DTYPE_CODES:
        raise FormatError(f"{what}unknown dtype code {code}")
    if rank > MAX_RANK:
        raise FormatError(f"{what}rank {rank} exceeds the supported maximum of {MAX_RANK}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"{what}dims"))
    return _DTYPE_CODES[code], dims


def _read_payload(fh, dtype, dims) -> np.ndarray:
    """The declared payload, refused before any read if the file is too short for it."""
    n = math.prod(dims) * dtype.itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"payload of {n} bytes declared, but only {left} remain in the file")
    return np.frombuffer(_read_exact(fh, n, "payload"), dtype=dtype).reshape(dims).copy()


def _read_tensor_header(fh) -> tuple:
    _read_head(fh, LFTR_MAGIC)
    return _read_shape(fh)


def write_tensor(path, arr: np.ndarray) -> None:
    blob = tensor_to_bytes(arr)  # validate before the open truncates the target
    with open(path, "wb") as fh:
        fh.write(blob)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        arr = _read_payload(fh, *_read_tensor_header(fh))
        if fh.read(1):
            raise FormatError("trailing bytes after tensor payload")
    return arr


def write_container(path, tensors: Mapping[str, np.ndarray]) -> None:
    """Write named arrays as an LFTC container; iteration order is preserved."""
    names = list(tensors)
    head = [LFTC_MAGIC, struct.pack("<II", FORMAT_VERSION, len(names))]
    for name in names:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"entry name too long ({len(encoded)} bytes)")
        head += [struct.pack("<H", len(encoded)), encoded,
                 _shape_bytes(tensors[name], f"entry {name!r}: ")]
    with open(path, "wb") as fh:
        fh.write(b"".join(head))
        for name in names:
            fh.write(tensor_to_bytes(np.asarray(tensors[name])))


def read_container(path) -> dict:
    """Read an LFTC container into an ordered name -> array dict."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        _read_head(fh, LFTC_MAGIC)
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "entry count"))
        entries = []
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("entry name is not valid UTF-8") from None
            shape = _read_shape(fh, f"entry {name!r}: ")
            if name in out:
                raise FormatError(f"duplicate entry name {name!r}")
            out[name] = None
            entries.append((name, shape))
        for name, shape in entries:
            if _read_tensor_header(fh) != shape:
                raise FormatError(f"entry {name!r}: blob header disagrees with container header")
            out[name] = _read_payload(fh, *shape)
        if fh.read(1):
            raise FormatError("trailing bytes after last entry")
    return out


# ---------------------------------------------------------------------------
# netpbm images


def write_pgm(path, img: np.ndarray) -> None:
    """8-bit binary PGM (P5); input is [H,W] uint8 or castable integers 0..255."""
    arr = _as_u8(img, channels=1)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    """8-bit binary PPM (P6); input is [H,W,3] uint8 or castable integers 0..255."""
    arr = _as_u8(img, channels=3)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def _as_u8(img: np.ndarray, channels: int) -> np.ndarray:
    arr = np.asarray(img)
    want = 2 if channels == 1 else 3
    if arr.ndim != want or (channels == 3 and arr.shape[2] != 3):
        kind = "grayscale [H,W]" if channels == 1 else "[H,W,3]"
        raise FormatError(f"expected {kind} image, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise FormatError(f"pixel values outside 0..255 (min {arr.min()}, max {arr.max()})")
        arr = arr.astype(np.uint8)
    return np.ascontiguousarray(arr)


def _read_netpbm(path, magic: str):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(magic.encode("ascii")):
        raise FormatError(f"not a {magic} file: {path}")
    # Header = magic, width, height, maxval as whitespace/comment-separated tokens.
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"truncated header in {path}")
        token = data[start:pos]
        if not token.isdigit() or len(token) > 10:
            raise FormatError(f"header field {token[:16]!r} is not an integer of at most 10 digits in {path}")
        tokens.append(int(token))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if width == 0 or height == 0:
        raise FormatError(f"empty image ({width}x{height}) in {path}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 is supported, got {maxval}")
    return data[pos:], width, height


def read_pgm(path) -> np.ndarray:
    payload, width, height = _read_netpbm(path, "P5")
    if len(payload) != width * height:
        raise FormatError(f"PGM payload is {len(payload)} bytes, expected {width * height}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def read_ppm(path) -> np.ndarray:
    payload, width, height = _read_netpbm(path, "P6")
    if len(payload) != width * height * 3:
        raise FormatError(f"PPM payload is {len(payload)} bytes, expected {width * height * 3}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()
