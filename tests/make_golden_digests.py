"""Rewrite tests/golden_digests.json: the sha256 of every file that
`audioanom pipeline --n-per-class 10 --seed S` writes, for each S in SEEDS,
with the machine facts that move their bytes: the Python and numpy
versions, the SIMD targets numpy dispatches to at run time and the core
OpenBLAS picked its kernels for. With fewer SIMD targets
(NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR) features.csv moves,
and under another OpenBLAS core (OPENBLAS_CORETYPE=Haswell) the models
too, while the WAVs and reports stay.

A change that moves an output on purpose reruns this from the repository
root and lists the moved files in CHANGES.md:

    PYTHONPATH=src python tests/make_golden_digests.py
"""

import ctypes
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

from audioanom.cli import main
from audioanom.pipeline import _BLAS_THREAD_SETTERS

try:
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
except ImportError:   # numpy 1.x
    from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                              __cpu_features__)

SEEDS = (14, 42)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.json")


def openblas_getters(what: str, restype=ctypes.c_int) -> list:
    """Per OpenBLAS library loaded in this process, its `get_<what>` export
    ("num_threads", "corename") under the names of pipeline's thread
    setters, or None where it has none of them."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return []
    names = [name.replace("set_num_threads", f"get_{what}")
             for name in _BLAS_THREAD_SETTERS]
    getters = []
    for lib in map(ctypes.CDLL, paths):
        getter = next((getattr(lib, n) for n in names if hasattr(lib, n)),
                      None)
        if getter is not None:
            getter.argtypes, getter.restype = [], restype
        getters.append(getter)
    return getters


def versions() -> dict:
    """What decides the bytes besides the code: the SIMD targets found, as
    np.show_runtime() lists them, and each OpenBLAS library's core."""
    cores = [get and get().decode()
             for get in openblas_getters("corename", ctypes.c_char_p)]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
            "openblas_cores": cores}


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
