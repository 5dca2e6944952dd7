import json
import os
import subprocess
import sys

import numpy as np
import pytest

import opmlab

# Runs in a fresh interpreter; reads the pools' thread counts without opmlab's help.
# The pools mapped after `import numpy` alone are numpy's own.
PROBE = r"""
import ctypes, json

def openblas_paths():
    with open("/proc/self/maps") as fh:
        fields = [line.split(maxsplit=5) for line in fh]
    return sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})

import numpy
numpy_pools = openblas_paths()
import opmlab
getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads")
threads = {}
for path in openblas_paths():
    lib = ctypes.CDLL(path)
    getter = next(getattr(lib, name) for name in getters if hasattr(lib, name))
    getter.argtypes = []
    getter.restype = ctypes.c_int
    threads[path] = getter()
print(json.dumps({"numpy": numpy_pools, "threads": threads}))
"""


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _run_fresh(code: str, **env) -> str:
    """Run `code` in a fresh interpreter that imports this checkout's opmlab; return stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(opmlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not built against OpenBLAS")
def test_import_pins_every_openblas_pool_to_one_thread():
    probe = json.loads(_run_fresh(PROBE, OPENBLAS_NUM_THREADS="2").splitlines()[-1])
    threads = probe["threads"]
    assert probe["numpy"], threads  # numpy's own pool is loaded ...
    assert set(probe["numpy"]) <= set(threads), probe
    assert set(threads.values()) == {1}, threads  # ... and every loaded pool runs one thread


def test_import_loads_no_scipy(tmp_path):
    """opmlab's start-up cost is numpy's: neither the package nor its CLI imports scipy,
    and an `opm` solve loads no numpy.ma (about 19 ms of imports per CLI process)."""
    out = _run_fresh(
        "import sys, opmlab, opmlab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "code = opmlab.cli.main(['opm', '--geometry', 'interval', '--z0', '2,0', '--degrees', '15',\n"
        f"                        '--grid', '400', '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "[]", out
    assert lines[-1] == "0 []", out
