"""Binary container for trained models: magic, version, JSON meta, named arrays.

Layout (little-endian):

    4s   magic ``MFC1``
    u32  format version
    u32  byte length of UTF-8 JSON metadata, then the bytes
    u32  array count, then per array:
         u16 name length, name bytes
         u16 dtype string length, dtype bytes (numpy dtype.str)
         u8  ndim, then ndim * u64 dims
         raw C-order array bytes

Arrays round-trip bit-exactly; metadata must be JSON-serializable. Any
truncated or malformed file raises ``ContainerError``.

``save_model``/``load_model`` persist every model the same way: the meta
holds the model's ``kind`` and constructor ``config()``, and the arrays are
its ``parameters()`` (``p0``, ``p1``, ...) then its ``buffers()`` (``b0``,
...), so a model class only declares its kind and config.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

MAGIC = b"MFC1"
# 2: models store {"kind", "config"} meta and p<i>/b<i> arrays
FORMAT_VERSION = 2


class ContainerError(ValueError):
    """Raised on a malformed or foreign model file."""


def save_container(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(meta_bytes))
    blob += meta_bytes
    blob += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr, order="C")  # ascontiguousarray would promote 0-d to 1-d
        name_b = name.encode("utf-8")
        dtype_b = arr.dtype.str.encode("ascii")
        blob += struct.pack("<H", len(name_b)) + name_b
        blob += struct.pack("<H", len(dtype_b)) + dtype_b
        blob += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<Q", dim)
        blob += arr.tobytes()
    Path(path).write_bytes(bytes(blob))


def load_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise ContainerError(f"{path}: truncated at byte {len(raw)}")
        off += n
        return raw[off - n : off]

    def unpack(fmt: str):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if raw[:4] != MAGIC:
        raise ContainerError(f"{path}: not a model container (bad magic)")
    take(4)
    (version,) = unpack("<I")
    if version != FORMAT_VERSION:
        raise ContainerError(f"{path}: unsupported container version {version}")
    try:
        meta = json.loads(take(*unpack("<I")).decode("utf-8"))
        (count,) = unpack("<I")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = take(*unpack("<H")).decode("utf-8")
            dtype = np.dtype(take(*unpack("<H")).decode("ascii"))
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}Q")
            nbytes = math.prod(shape) * dtype.itemsize
            arrays[name] = np.frombuffer(take(nbytes), dtype=dtype).reshape(shape).copy()
    except ContainerError:
        raise
    except (ValueError, TypeError) as exc:  # bad JSON, UTF-8 or dtype string
        raise ContainerError(f"{path}: malformed container ({exc})") from None
    if off != len(raw):
        raise ContainerError(f"{path}: {len(raw) - off} trailing bytes")
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}: metadata is not a JSON object")
    return meta, arrays


def save_model(path: str | Path, model) -> None:
    """Write ``model``'s kind, constructor config, parameters and buffers."""
    arrays = {f"p{i}": p.data for i, p in enumerate(model.parameters())}
    arrays.update({f"b{i}": b for i, b in enumerate(model.buffers())})
    # looked up on the package, so a wrapper installed there sees every write
    sys.modules[__package__].save_container(
        path, {"kind": model.kind, "config": model.config()}, arrays)


def load_model(path: str | Path, cls):
    """Rebuild a ``cls`` model from its config, then fill in its arrays."""
    meta, arrays = sys.modules[__package__].load_container(path)
    if meta.get("kind") != cls.kind:
        raise ContainerError(f"{path}: holds a {meta.get('kind')!r} model, "
                             f"not {cls.kind!r}")
    try:
        model = cls.from_config(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: bad {cls.kind} config ({exc!r})") from None
    params, buffers = model.parameters(), model.buffers()
    names = [f"p{i}" for i in range(len(params))] + [f"b{i}" for i in range(len(buffers))]
    if list(arrays) != names:
        raise ContainerError(f"{path}: arrays {list(arrays)} do not match "
                             f"the {cls.kind} model's {names}")
    for name, expected in zip(names, [p.data for p in params] + buffers):
        got = arrays[name]
        if got.shape != expected.shape or got.dtype != expected.dtype:
            raise ContainerError(f"{path}: array {name} is {got.dtype}{got.shape}, "
                                 f"the model needs {expected.dtype}{expected.shape}")
    for i, p in enumerate(params):
        p.data = arrays[f"p{i}"]
    for i, b in enumerate(buffers):
        b[...] = arrays[f"b{i}"]
    return model
