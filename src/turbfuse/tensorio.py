"""Binary tensor container and checkpoint bundles.

File layout: 4-byte magic ``FAT1``, a little-endian uint32 header length,
a UTF-8 JSON header ``{"dtype": "f32"|"f64", "shape": [...]}`` and the
little-endian row-major payload. Bundles are directories of ``.fat`` files
plus an ``index.json`` mapping logical names to file names.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ContractError

MAGIC = b"FAT1"

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def save_tensor(path, array):
    """Write one array as a FAT1 container."""
    arr = np.ascontiguousarray(getattr(array, "data", array))
    if arr.dtype not in _NAMES:
        raise ContractError(f"unsupported dtype {arr.dtype}; use float32/float64")
    header = json.dumps({"dtype": _NAMES[arr.dtype], "shape": list(arr.shape)}).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def load_tensor(path):
    """Read a FAT1 container back into a numpy array."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ContractError(f"{path}: bad magic {magic!r}")
        hlen = int.from_bytes(fh.read(4), "little")  # a cut length field reads short and fails below
        header = json.loads(fh.read(hlen).decode("utf-8"))
        dtype = _DTYPES.get(header.get("dtype"))
        if dtype is None:
            raise ContractError(f"{path}: unknown dtype {header.get('dtype')!r}")
        shape = tuple(int(s) for s in header["shape"])
        count = int(np.prod(shape)) if shape else 1
        payload = fh.read(count * dtype.itemsize)
        if len(payload) != count * dtype.itemsize:
            raise ContractError(f"{path}: truncated payload")
        arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return arr.astype(arr.dtype.newbyteorder("="), copy=True)


def save_bundle(directory, arrays):
    """Write a dict of named arrays as one checkpoint directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = {}
    for name, arr in arrays.items():
        fname = name.replace("/", "_").replace(".", "_") + ".fat"
        save_tensor(directory / fname, arr)
        index[name] = fname
    with open(directory / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(directory):
    """Read a checkpoint directory back into a dict of arrays."""
    directory = Path(directory)
    index_path = directory / "index.json"
    if not index_path.exists():
        raise ContractError(f"{directory}: missing index.json")
    with open(index_path, encoding="utf-8") as fh:
        index = json.load(fh)
    return {name: load_tensor(directory / fname) for name, fname in index.items()}
