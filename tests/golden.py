"""Recorded outputs that a change meant to keep every byte must keep.

`golden.json` holds the SHA-256 of every artifact of
`run_all(small_config(seed=s))` for each s in SEEDS, the correct-image
count per shot band of each report of criterion 7's grid, and the numpy
version and OpenBLAS core they were made with. OpenBLAS picks its
kernels by CPU, so the records hold only where both match; elsewhere
the tests that read them skip.

Regenerate the file with

    python tests/golden.py --write

which prints each entry that differs from the file it replaces.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from vlltr import pipeline

GOLDEN = Path(__file__).with_name("golden.json")
WRITE = "python tests/golden.py --write"
SEEDS = (0, 1)


def _openblas(symbol: str):
    """Function `symbol` of numpy's bundled OpenBLAS, or None where numpy
    bundles no such library."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas*")):
        try:
            return getattr(ctypes.CDLL(str(lib)), symbol)
        except (OSError, AttributeError):
            continue
    return None


def blas_core() -> str:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU, or
    "unknown" where numpy bundles no such library."""
    corename = _openblas("scipy_openblas_get_corename64_")
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def blas_threads() -> int:
    """The threads numpy's bundled OpenBLAS runs on, 1 where numpy
    bundles no such library."""
    threads = _openblas("scipy_openblas_get_num_threads64_")
    if threads is None:
        return 1
    threads.argtypes, threads.restype = [], ctypes.c_int
    return threads()


def environment() -> dict:
    return {"numpy": np.__version__, "blas_core": blas_core()}


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def skip_reason(golden: dict) -> str | None:
    """Why the records cannot hold here, naming both environments, or
    None where they must."""
    here = environment()
    if golden["environment"] == here:
        return None
    made = golden["environment"]
    return (f"{GOLDEN.name} was made under numpy {made['numpy']} with "
            f"OpenBLAS core {made['blas_core']}; this is numpy "
            f"{here['numpy']} with core {here['blas_core']}")


def artifact_digests(run_dir) -> dict:
    """{file name: SHA-256 hex} of every artifact of a run."""
    return {name: hashlib.sha256((Path(run_dir) / name).read_bytes())
            .hexdigest() for name in sorted(pipeline.FILES.values())}


def band_correct(report) -> dict:
    """{shot band: correctly classified test images} of an EvalReport."""
    return {band: round(acc * report.band_counts[band])
            for band, acc in sorted(report.bands.items())}


def grid_counts(grids: dict) -> dict:
    """`band_correct` of each report of criterion 7's grid, keyed
    seed<s>-<row>."""
    return {f"seed{s}-{row}": band_correct(report)
            for s, rows in sorted(grids.items())
            for row, report in sorted(rows.items())}


def changed(want: dict, got: dict) -> list:
    """The keys whose values differ between `want` and `got`, sorted."""
    return sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))


def mismatch(what: str, want: dict, got: dict) -> str | None:
    """A message listing the keys whose values differ, or None."""
    differ = changed(want, got)
    if not differ:
        return None
    return (f"{what} differ from {GOLDEN.name} in {', '.join(differ)}; if the "
            f"change is meant, regenerate it with `{WRITE}`")


def write():
    from conftest import small_config
    from test_acceptance import GRID_SEEDS, _grid_for_seed

    with tempfile.TemporaryDirectory() as root:
        runs = {}
        for s in SEEDS:
            pipeline.run_all(small_config(seed=s), Path(root) / f"seed{s}")
            runs[f"seed{s}"] = artifact_digests(Path(root) / f"seed{s}")
        grid = grid_counts({s: _grid_for_seed(s, Path(root))
                            for s in GRID_SEEDS})
    old = load() if GOLDEN.exists() else {}
    new = {"environment": environment(), "runs": runs, "grid": grid}
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    groups = [("environment", old.get("environment", {}), new["environment"]),
              *((f"runs {s}", old.get("runs", {}).get(s, {}), digests)
                for s, digests in runs.items()),
              ("grid", old.get("grid", {}), grid)]
    lines = [f"{what}: {', '.join(keys)}" for what, want, got in groups
             if (keys := changed(want, got))]
    print("\n".join(lines) or f"{GOLDEN.name}: no entry changed")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help=f"regenerate {GOLDEN.name}")
    parser.parse_args()
    write()
