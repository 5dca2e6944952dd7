import json
import os
import subprocess
import sys

import numpy as np
import pytest

import opmlab

# Runs in a fresh interpreter; reads the pools' thread counts without opmlab's help.
PROBE = r"""
import ctypes, json, os
import opmlab
getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads")
with open("/proc/self/maps") as fh:
    fields = [line.split(maxsplit=5) for line in fh]
paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
threads = {}
for path in paths:
    lib = ctypes.CDLL(path)
    getter = next(getattr(lib, name) for name in getters if hasattr(lib, name))
    getter.argtypes = []
    getter.restype = ctypes.c_int
    threads[os.path.basename(path)] = getter()
print(json.dumps(threads))
"""


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not built against OpenBLAS")
def test_import_pins_every_openblas_pool_to_one_thread():
    src = os.path.dirname(os.path.dirname(os.path.abspath(opmlab.__file__)))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="2",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    threads = json.loads(proc.stdout.splitlines()[-1])
    assert len(threads) >= 2, threads  # numpy's and scipy's own pools
    assert set(threads.values()) == {1}, threads
