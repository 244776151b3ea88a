"""The "VLCK" checkpoint container: named float64 parameter sections.

Metadata (config fingerprint, upstream content hashes) travels as
sections whose names start with "__"; their float values are the raw
bytes of a SHA-256 digest, one byte per float, which keeps every stored
value finite and the format uniform.

`read_checkpoint` records every section name it materializes in
`section_load_log` so tests can assert which parameters an inference
path actually touched.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import ShapeMismatch, ValidationError

CHECKPOINT_MAGIC = b"VLCK"
CHECKPOINT_VERSION = 1

#: (path, section name) pairs, appended by read_checkpoint.
section_load_log: list = []


def hash_to_floats(digest: bytes) -> np.ndarray:
    return np.array(list(digest), dtype=np.float64)


def floats_to_hash(arr: np.ndarray) -> bytes:
    return bytes(int(b) for b in arr)


def file_sha256(path) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.digest()


def write_checkpoint(path, sections: dict[str, np.ndarray]):
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(sections)))
        for name, arr in sections.items():
            data = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.astype("<f8").tobytes())


def read_checkpoint(path, names=None) -> dict[str, np.ndarray]:
    """Load sections from a checkpoint.

    `names`, when given, is a predicate on section names; sections it
    rejects are skipped without materializing and without logging.
    """
    out = {}
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise ValidationError(f"{path}: not a checkpoint file (bad magic)")
        version, count = struct.unpack("<II", f.read(8))
        if version != CHECKPOINT_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", f.read(4))
            name = f.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", f.read(4))
            shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
            nbytes = int(np.prod(shape, dtype=np.int64)) * 8
            if names is not None and not names(name):
                f.seek(nbytes, 1)
                continue
            arr = np.frombuffer(f.read(nbytes), dtype="<f8").reshape(shape)
            out[name] = arr.copy()
            section_load_log.append((str(path), name))
    return out


def load_params(params: dict, sections: dict):
    """Copy each checkpoint section into the parameter of the same name.

    Every parameter needs a section of exactly its shape: a missing
    section is a ValidationError, and a section of another shape (say, a
    run loaded under a different class count or embedding width) is a
    ShapeMismatch naming the section.
    """
    for name, p in params.items():
        if name not in sections:
            raise ValidationError(f"checkpoint missing section '{name}'")
        if sections[name].shape != p.data.shape:
            raise ShapeMismatch(
                f"checkpoint section '{name}': shape {sections[name].shape} "
                f"!= expected {p.data.shape}"
            )
        p.data = sections[name].copy()
