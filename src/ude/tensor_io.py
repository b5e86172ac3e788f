"""Binary tensor container: magic "UDET", version u16 LE, rank u8,
rank x u32 LE dims, then product(dims) x f32 LE values. Round-trips are
bit-exact for f32 input.

An artifact (a dataset, a head, an edit) is a directory of such tensors,
<name>.udet each, and provenance.json, written last: {"kind", "tensors":
{name: shape}, **meta}. Only save_artifact and load_artifact touch it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"UDET"
VERSION = 1
PROVENANCE = "provenance.json"


class TensorFormatError(ValueError):
    pass


def tensor_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
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


def save_artifact(dirpath, kind: str, tensors: dict, **meta) -> None:
    """One <name>.udet per tensor, then provenance.json naming the kind,
    each tensor's shape and the JSON-serialisable meta."""
    os.makedirs(dirpath, exist_ok=True)
    for name, arr in tensors.items():
        save_tensor(os.path.join(dirpath, f"{name}.udet"), arr)
    shapes = {name: list(np.shape(arr)) for name, arr in tensors.items()}
    with open(os.path.join(dirpath, PROVENANCE), "w") as fh:
        json.dump({"kind": kind, "tensors": shapes, **meta}, fh, indent=2)


def load_artifact(dirpath, kind: str) -> tuple[dict, dict]:
    """(tensors, meta) of the artifact save_artifact wrote. TensorFormatError
    unless provenance.json is a JSON object of this kind listing its tensors
    and each loads with its recorded shape; OSError for a missing file."""
    with open(os.path.join(dirpath, PROVENANCE), "rb") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise TensorFormatError(f"{PROVENANCE}: {exc}") from exc
    if not (isinstance(meta, dict) and meta.pop("kind", None) == kind
            and isinstance(meta.get("tensors"), dict)):
        raise TensorFormatError(f"{PROVENANCE} does not describe a {kind}")
    tensors = {}
    for name, shape in meta.pop("tensors").items():
        arr = load_tensor(os.path.join(dirpath, f"{name}.udet"))
        if list(arr.shape) != shape:
            raise TensorFormatError(f"{name}.udet has shape {list(arr.shape)}, "
                                    f"provenance records {shape}")
        tensors[name] = arr
    return tensors, meta
