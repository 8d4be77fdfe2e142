"""Rewrite tests/golden_digests.json: the sha256 of every file that
`audioanom pipeline --n-per-class 10 --seed S` writes, for each S in SEEDS,
with the machine facts that move their bytes: the Python and numpy
versions and the SIMD targets numpy dispatches to at run time. With fewer
SIMD targets (NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR)
features.csv moves, while the WAVs and reports stay. The program calls no
BLAS on the path to features.csv, so the core OpenBLAS picks its kernels
for moves no byte.

A change that moves an output on purpose reruns this from the repository
root and lists the moved files in CHANGES.md:

    PYTHONPATH=src python tests/make_golden_digests.py
"""

import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

from audioanom.cli import main

try:
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
except ImportError:   # numpy 1.x
    from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                              __cpu_features__)

SEEDS = (14, 42)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.json")


def versions() -> dict:
    """What decides the bytes besides the code: the SIMD targets found, as
    np.show_runtime() lists them."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}


def pipeline_digests(seed: int, out) -> dict:
    """Path relative to `out` -> sha256 of each file that a pipeline run
    at `seed` writes under `out`."""
    argv = ["pipeline", "--n-per-class", "10", "--seed", str(seed),
            "--out", str(out)]
    if main(argv) != 0:
        raise RuntimeError(f"audioanom {' '.join(argv)} failed")
    digests = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {str(seed): pipeline_digests(seed, os.path.join(
            tmp, str(seed))) for seed in SEEDS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"versions": versions(), "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    write_golden()
