"""Binary tensor container: magic "UDET", version u16 LE, rank u8,
rank x u32 LE dims, then product(dims) x f32 LE values. Round-trips are
bit-exact for f32 input.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

MAGIC = b"UDET"
VERSION = 1


class TensorFormatError(ValueError):
    pass


def require_finite(arr: np.ndarray, name: str = "tensor") -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")


def tensor_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    require_finite(arr)
    if arr.ndim > 255:
        raise TensorFormatError("rank exceeds u8")
    header = MAGIC + struct.pack("<HB", VERSION, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    return header + dims + arr.tobytes()


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_bytes(arr))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise TensorFormatError("bad magic")
    if len(blob) < 7 or len(blob) < 7 + 4 * blob[6]:
        raise TensorFormatError("truncated header")
    version, rank = struct.unpack_from("<HB", blob, 4)
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}")
    off = 7
    dims = struct.unpack_from(f"<{rank}I", blob, off)
    off += 4 * rank
    count = math.prod(dims)
    if len(blob) != off + 4 * count:
        raise TensorFormatError("payload size mismatch")
    data = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
    return data.reshape(dims).astype(np.float32)


def tensor_digest(arr: np.ndarray) -> str:
    """sha256 of the persisted byte representation."""
    return hashlib.sha256(tensor_bytes(arr)).hexdigest()
