"""The "VLCK" checkpoint container: named float64 parameter sections.

`read_checkpoint` records every section name it materializes in
`section_load_log` so tests can assert which parameters an inference
path actually touched.

`read_exact` and `unpack` bound every read of a binary artifact (this
container, the dataset, the anchor cache) by the bytes left in the file,
`read_lf` and `read_text` read text artifacts as text mode does, the
latter naming the line of an undecodable byte, and every artifact is
written through `atomic_write`.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import secrets
import struct

import numpy as np

from .errors import ShapeMismatch, ValidationError

CHECKPOINT_MAGIC = b"VLCK"
CHECKPOINT_VERSION = 1

#: (path, section name) pairs, appended by read_checkpoint.
section_load_log: list = []


def file_sha256(path) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.digest()


def _require(f, n: int, path, what: str):
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise ValidationError(
            f"{path}: truncated file: {what} needs {n} bytes, {left} left")


def read_exact(f, n: int, path, what: str) -> bytes:
    """The next `n` bytes of binary file `f`, checked against the bytes
    left before reading, so a corrupt count never sizes an allocation. A
    short file is a ValidationError naming `path` and the field `what`."""
    _require(f, n, path, what)
    return f.read(n)


def unpack(f, fmt: str, path, what: str) -> tuple:
    """`struct.unpack(fmt, ...)` over the next bytes of `f`, read with
    `read_exact`."""
    return struct.unpack(fmt, read_exact(f, struct.calcsize(fmt), path, what))


def read_lf(path) -> bytes:
    """A file's bytes with its line ends read as text mode reads them:
    CR LF and lone CR become LF."""
    with open(path, "rb") as f:
        data = f.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def read_text(path) -> str:
    """`read_lf` decoded as UTF-8; an undecodable byte is a
    ValidationError naming path:line."""
    data = read_lf(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """A file opened for writing (UTF-8 text unless `binary`) that
    replaces `path` only when the block completes: it is a temporary file
    in the same directory, renamed over `path` at the end. If the block
    raises, the temporary file is removed and `path` keeps its bytes."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    try:
        with (open(tmp, "xb") if binary
              else open(tmp, "x", encoding="utf-8")) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_checkpoint(path, sections: dict[str, np.ndarray]):
    with atomic_write(path, binary=True) as f:
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
        version, count = unpack(f, "<II", path, "header")
        if version != CHECKPOINT_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        for _ in range(count):
            (name_len,) = unpack(f, "<I", path, "section name length")
            try:
                name = read_exact(f, name_len, path, "section name").decode()
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}: bad section name") from exc
            (ndim,) = unpack(f, "<I", path, f"section '{name}' rank")
            shape = unpack(f, f"<{ndim}I", path, f"section '{name}' shape")
            nbytes = 8 * math.prod(shape)
            if names is not None and not names(name):
                _require(f, nbytes, path, f"section '{name}'")
                f.seek(nbytes, 1)
                continue
            arr = np.frombuffer(
                read_exact(f, nbytes, path, f"section '{name}'"),
                dtype="<f8").reshape(shape)
            out[name] = arr.copy()
            section_load_log.append((str(path), name))
    return out


def load_params(params: dict, sections: dict, path):
    """Copy each section read from checkpoint `path` into the parameter of
    the same name.

    Every parameter needs a section of exactly its shape: a missing
    section is a ValidationError, and a section of another shape (say, a
    run loaded under a different class count or embedding width) is a
    ShapeMismatch; both name `path` and the section.
    """
    for name, p in params.items():
        if name not in sections:
            raise ValidationError(
                f"{path}: checkpoint missing section '{name}'")
        if sections[name].shape != p.data.shape:
            raise ShapeMismatch(
                f"{path}: checkpoint section '{name}': shape "
                f"{sections[name].shape} != expected {p.data.shape}")
        p.data = sections[name].copy()
