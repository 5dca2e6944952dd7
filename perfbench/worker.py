"""One benchmark pass: run a workload's ops in-process through `opmlab.cli.main`.

Started by run.py as its own process, so each pass gets a fresh interpreter
and whatever BLAS environment run.py hands it.  One closed-loop client: the
next op starts only after the previous one returned.  Whole rounds of the
workload's ops run while another round is predicted to end within
`--seconds` (at least one round), so every pass holds whole rounds.
Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --src SRC --work DIR --workload NAME \
        --seed N --seconds S [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import layertrace
import workloads

WARMUP_ARGV = ["opm", "--geometry", "circle", "--z0", "2", "--degrees", "3", "--grid", "80"]


def _blas_threads() -> int:
    """Threads OpenBLAS starts with: its environment variables, else every usable core."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        text = os.environ.get(var, "").strip()
        if text.isdigit() and int(text) > 0:
            return int(text)
    return len(os.sched_getaffinity(0))


def _blas_config(mod) -> dict:
    try:
        deps = mod.show_config(mode="dicts")["Build Dependencies"]
    except (AttributeError, KeyError, TypeError, ValueError):
        return {}
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit(root: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_config(numpy),
        "scipy_blas": _blas_config(scipy),
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPMLAB_THREADS")
            if k in os.environ
        },
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
    }


def _call(cli, argv: list[str]) -> int:
    """cli.main with its console output swallowed; an escaped exception counts as exit 1."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return int(cli.main(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes is a failed op, not a dead benchmark
            return 1


def run_ops(cli, ops, work: str, seconds: float) -> list[dict]:
    records = []
    start = time.perf_counter()
    rnd = 0
    while True:
        for i, op in enumerate(ops):
            out = os.path.join(work, f"r{rnd}_{i}")
            argv = list(op.argv) + ["--out", out]
            c0 = time.process_time()
            t0 = time.perf_counter()
            rc = _call(cli, argv)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            verdict = workloads.check_op(op, rc, out)
            records.append({
                "op": op.name,
                "round": rnd,
                "wall": wall,
                "cpu": cpu,
                "exit_code": rc,
                "failures": verdict.failures,
                "wrong": verdict.wrong,
                "digest": workloads.output_digest(op, out) if rnd == 0 else None,
            })
            shutil.rmtree(out, ignore_errors=True)
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rnd > seconds:
            return records


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, args.src)
    import opmlab
    from opmlab import cli

    ops = workloads.workload_ops(args.workload, args.seed)
    _call(cli, WARMUP_ARGV + ["--out", os.path.join(args.work, "warmup")])
    result = {"env": environment(os.path.dirname(args.src)), "trace": None}
    if args.trace:
        tracer = layertrace.Tracer()
        with tracer.patched(opmlab):
            result["ops"] = run_ops(cli, ops, args.work, args.seconds)
        result["trace"] = {
            "totals": dict(tracer.totals),
            "counts": dict(tracer.counts),
            "missing": tracer.missing,
        }
    else:
        result["ops"] = run_ops(cli, ops, args.work, args.seconds)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
