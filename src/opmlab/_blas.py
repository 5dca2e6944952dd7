"""Pin the process's OpenBLAS thread pools to one thread.

opmlab's linear algebra is numpy's, and the numpy wheel bundles its own
OpenBLAS (its symbols carry the `scipy_openblas` prefix of that build), whose
pool starts one thread per core.  opmlab's matrices are small (a few
thousand rows by at most a few dozen columns): there BLAS threads only cost
time, and the threaded reductions make results depend on the thread count.
So `opmlab` caps every loaded pool at one thread when it is imported, which
also keeps outputs byte-identical whatever OPENBLAS_NUM_THREADS says.  A
pool loaded later, such as scipy's when scipy.linalg is imported after
opmlab, is not capped, but opmlab never calls it.

Loaded libraries are found through /proc/self/maps, so the cap applies on
Linux; where no OpenBLAS is found, nothing is done.
"""

from __future__ import annotations

import ctypes
import logging
import os

log = logging.getLogger(__name__)

_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def loaded_openblas() -> list[str]:
    """Sorted paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                f[5].strip()
                for f in (line.split(maxsplit=5) for line in fh if "openblas" in line)
                if len(f) == 6 and "openblas" in os.path.basename(f[5].strip())
            }
    except OSError:
        return []
    return sorted(paths)


def _export(path: str, names: tuple[str, ...]):
    """The first of `names` that the library at `path` exports, or None."""
    try:
        lib = ctypes.CDLL(path)  # already mapped: dlopen only takes another reference
    except OSError:
        return None
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def pin_single_thread() -> list[str]:
    """Cap every loaded OpenBLAS pool at one thread; return the capped paths."""
    capped = []
    for path in loaded_openblas():
        setter = _export(path, _SETTERS)
        if setter is None:
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
        capped.append(path)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("OpenBLAS pools pinned to one thread: %s", describe())
    return capped


def describe() -> str:
    """`file:threads` for each loaded OpenBLAS, space separated; `none` if there is none."""
    pools = []
    for path in loaded_openblas():
        getter = _export(path, _GETTERS)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            pools.append(f"{os.path.basename(path)}:{getter()}")
    return " ".join(pools) or "none"
