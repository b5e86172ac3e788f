"""Binary tensor container: magic "UDET", version u16 LE, rank u8,
rank x u32 LE dims, then product(dims) x f32 LE values, all finite.
Round-trips are bit-exact for finite f32 input.

An artifact is a dataclass instance saved as a directory: each of its
array fields as <name>.udet, in field order, then provenance.json, written
last: {"kind", "tensors": {name: shape}, the other fields, the notes}.
Only save_artifact and load_artifact touch it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import fields
from typing import get_type_hints

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
    if not np.all(np.isfinite(data)):
        raise TensorFormatError("tensor contains non-finite values")
    return data.reshape(dims).astype(np.float32)


def tensor_digest(arr: np.ndarray) -> str:
    """sha256 of the persisted byte representation."""
    return hashlib.sha256(tensor_bytes(arr)).hexdigest()


def save_artifact(dirpath, kind: str, value, **notes) -> None:
    """`value`, a dataclass instance: one <name>.udet per array field, then
    provenance.json naming the kind, each tensor's shape, the other fields
    and the JSON-serialisable notes."""
    os.makedirs(dirpath, exist_ok=True)
    tensors, meta = {}, {}
    for f in fields(value):
        arr = getattr(value, f.name)
        (tensors if isinstance(arr, np.ndarray) else meta)[f.name] = arr
    for name, arr in tensors.items():
        save_tensor(os.path.join(dirpath, f"{name}.udet"), arr)
    shapes = {name: list(arr.shape) for name, arr in tensors.items()}
    with open(os.path.join(dirpath, PROVENANCE), "w") as fh:
        json.dump({"kind": kind, "tensors": shapes, **meta, **notes}, fh, indent=2)


def load_artifact(dirpath, kind: str, cls, notes=(), shapes=None):
    """The `cls` instance save_artifact wrote, its notes (keys named in
    `notes`) dropped. TensorFormatError unless provenance.json is a JSON
    object of this kind listing ndarray fields of `cls` alone as its tensors
    (checked before any file is opened), each loads with its recorded shape,
    and each tensor `shapes` names has that shape (None: any size); OSError
    for a missing file; TypeError or ValueError when `cls` refuses the
    fields."""
    with open(os.path.join(dirpath, PROVENANCE), "rb") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise TensorFormatError(f"{PROVENANCE}: {exc}") from exc
    hints = get_type_hints(cls)
    arrays = {f.name for f in fields(cls) if hints[f.name] is np.ndarray}
    if not (isinstance(meta, dict) and meta.pop("kind", None) == kind
            and isinstance(meta.get("tensors"), dict) and set(meta["tensors"]) <= arrays):
        raise TensorFormatError(f"{PROVENANCE} does not describe a {kind} of tensors "
                                f"{sorted(arrays)}")
    tensors = {}
    for name, shape in meta.pop("tensors").items():
        arr = load_tensor(os.path.join(dirpath, f"{name}.udet"))
        if list(arr.shape) != shape:
            raise TensorFormatError(f"{name}.udet has shape {list(arr.shape)}, "
                                    f"provenance records {shape}")
        tensors[name] = arr
    for name, want in (shapes or {}).items():
        got = np.shape(tensors.get(name))
        if len(got) != len(want) or any(w not in (None, g) for w, g in zip(want, got)):
            wanted = ", ".join("*" if w is None else str(w) for w in want)
            raise TensorFormatError(f"{name} has shape {list(got)}, not [{wanted}]")
    return cls(**tensors, **{key: v for key, v in meta.items() if key not in notes})
