"""Binary tensor ("TNSR") and checkpoint ("OTCK") file formats.

TNSR record: magic b"TNSR", u32 version=1, u32 ndim, ndim x u64 dims,
u32 dtype code (0=f32, 1=f64), little-endian row-major payload.

OTCK checkpoint: magic b"OTCK", u32 version=1, u32 tensor count, then per
tensor: u32 name length, UTF-8 name, embedded TNSR record.

Both round-trip bit-exactly.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .autograd import Tensor

TNSR_MAGIC = b"TNSR"
OTCK_MAGIC = b"OTCK"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype("float32"): 0, np.dtype("float64"): 1}


class FormatError(Exception):
    pass


def write_tensor(stream, tensor) -> None:
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    if arr.dtype not in _CODE_FOR:
        raise FormatError(f"unsupported dtype {arr.dtype}")
    stream.write(TNSR_MAGIC)
    stream.write(struct.pack("<II", 1, arr.ndim))
    for dim in arr.shape:
        stream.write(struct.pack("<Q", dim))
    stream.write(struct.pack("<I", _CODE_FOR[arr.dtype]))
    stream.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def _unpack(fmt, stream):
    """``struct.unpack`` of the next bytes of ``stream``; FormatError if short."""
    size = struct.calcsize(fmt)
    raw = stream.read(size)
    if len(raw) != size:
        raise FormatError("truncated header")
    return struct.unpack(fmt, raw)


def read_tensor(stream) -> np.ndarray:
    magic = stream.read(4)
    if magic != TNSR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    version, ndim = _unpack("<II", stream)
    if version != 1:
        raise FormatError(f"unsupported tensor version {version}")
    dims = [_unpack("<Q", stream)[0] for _ in range(ndim)]
    (code,) = _unpack("<I", stream)
    if code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    count = int(np.prod(dims)) if dims else 1
    payload = stream.read(count * dtype.itemsize)
    if len(payload) != count * dtype.itemsize:
        raise FormatError("truncated tensor payload")
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
    return np.ascontiguousarray(arr).astype(dtype.newbyteorder("="))


def save_tensor(path, tensor) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, tensor)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor(fh)


def tensor_bytes(tensor) -> bytes:
    buf = io.BytesIO()
    write_tensor(buf, tensor)
    return buf.getvalue()


def save_checkpoint(path, named_tensors) -> None:
    """Write an ordered {name: tensor} mapping as an OTCK file."""
    with open(path, "wb") as fh:
        fh.write(OTCK_MAGIC)
        fh.write(struct.pack("<II", 1, len(named_tensors)))
        for name, tensor in named_tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            write_tensor(fh, tensor)


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != OTCK_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        version, count = _unpack("<II", fh)
        if version != 1:
            raise FormatError(f"unsupported checkpoint version {version}")
        out = {}
        for _ in range(count):
            (nlen,) = _unpack("<I", fh)
            raw = fh.read(nlen)
            if len(raw) != nlen:
                raise FormatError("truncated tensor name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"bad tensor name {raw[:32]!r}") from exc
            out[name] = read_tensor(fh)
        return out


# ---- images ------------------------------------------------------------


def read_ppm(path) -> np.ndarray:
    """Binary P6 PPM to a [H, W, 3] float array in [0, 1].

    Samples are bytes when maxval is below 256 and big-endian 16-bit
    words otherwise, as the format specifies.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise FormatError("not a binary PPM (P6) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise FormatError(f"bad PPM header field {token[:16]!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FormatError(f"bad PPM header: {width}x{height}, maxval {maxval}")
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    count = width * height * 3
    if len(data) - pos < count * dtype.itemsize:
        raise FormatError(f"truncated PPM payload: {max(len(data) - pos, 0)} of "
                          f"{count * dtype.itemsize} bytes")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return raw.reshape(height, width, 3).astype(np.float32) / maxval


def write_ppm(path, image) -> None:
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    h, w, _ = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write((np.clip(arr, 0, 1) * 255).round().astype(np.uint8).tobytes())


def load_image(path) -> np.ndarray:
    """Read a [H, W, 3] image in [0, 1] from a TNSR or PPM file."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == TNSR_MAGIC:
        arr = load_tensor(path)
    elif magic[:2] == b"P6":
        arr = read_ppm(path)
    else:
        raise FormatError(f"unrecognized image format in {path}")
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FormatError(f"expected [H, W, 3] image, got {arr.shape}")
    arr = arr.astype(np.float32)
    if not np.isfinite(arr).all():
        raise FormatError(f"non-finite pixel values in {path}")
    return arr
