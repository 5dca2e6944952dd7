"""opmlab benchmark: time CLI workloads end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`, nothing is installed.  `--trace 0` reports the end-to-end metrics of
one untraced pass under the default BLAS environment.  `--trace 1` runs
three passes (untraced, traced, traced with one BLAS thread), each for a
third of `--seconds`, and reports the per-layer metrics.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import layertrace  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 175.0
SETUP_REPEATS = 7
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 1.0:
        raise BenchError(f"time budget of {DEADLINE_S:.0f} s used up")
    return left


def measure_setup(start: float) -> float:
    """Median wall time for a fresh interpreter to `import opmlab` (one warm-up run first)."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import opmlab"
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=_remaining(start),
        )
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"import opmlab failed:\n{proc.stderr.strip()}")
        if i > 0:
            times.append(dt)
    return median(times)


def run_pass(start, work, workload, seed, seconds, *, trace=False, one_thread=False) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--src", SRC, "--work", tempfile.mkdtemp(dir=work),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
    ]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, **ONE_THREAD_ENV) if one_thread else None
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=_remaining(start)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded the {DEADLINE_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples above it.  With 21 samples or fewer that percentile would not lie
    above the median, so the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n <= 21:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def walls(res: dict) -> list[float]:
    return [r["wall"] for r in res["ops"]]


def end_to_end(res: dict, setup_s: float) -> dict:
    w = walls(res)
    t_val, t_pct, t_n = tail(w)
    print(f"op_s.tail is p{t_pct:.1f} of {t_n} samples")
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (median(w), "s"),
        "op_s.tail": (t_val, "s"),
        "op_cpu_s.p50": (median([r["cpu"] for r in res["ops"]]), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }


def per_layer(untraced: dict, traced: dict, one_thread: dict) -> dict:
    tr = traced["trace"]
    n_ops = len(traced["ops"])
    out = layertrace.per_layer_metrics(tr["totals"], tr["counts"], n_ops)
    traced_p50 = median(walls(traced))
    one_p50 = median(walls(one_thread))

    def digests(res):
        return [r["digest"] for r in res["ops"] if r["round"] == 0]

    out["blas.threads"] = (traced["env"]["blas_threads"], "count")
    out["blas.thread_slowdown"] = (traced_p50 / one_p50, "ratio")
    out["blas.one_thread.op_s.p50"] = (one_p50, "s")
    out["cli.determinism_across_threads"] = (int(digests(traced) == digests(one_thread)), "bool")
    out["trace.op_s.p50"] = (traced_p50, "s")
    out["trace.overhead_frac"] = (traced_p50 / median(walls(untraced)) - 1.0, "ratio")

    total = sum(walls(traced))
    print(f"self time by layer, traced pass, {n_ops} ops, {total:.3f} s:")
    for layer, self_s, share in layertrace.self_time_shares(tr["totals"], total):
        print(f"  {layer:40s} {self_s / n_ops:10.4f} s/op  {100.0 * share:6.2f} % of op_s")
    if tr["missing"]:
        print(f"not traced (absent from the package): {tr['missing']}")
    return out


def tally(ops: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): an op fails on any gate; the run is
    incorrect only if some op's output contradicted its reference."""
    failed = sum(1 for r in ops if r["failures"])
    return len(ops), failed, not any(r["wrong"] for r in ops)


def summarize_ops(label: str, res: dict) -> None:
    by_op: dict[str, list] = {}
    for r in res["ops"]:
        by_op.setdefault(r["op"], []).append(r)
    for name, recs in by_op.items():
        failed = [r for r in recs if r["failures"]]
        print(
            f"{label} {name}: {len(recs)} ops, wall p50 {median([r['wall'] for r in recs]):.4f} s, "
            f"failed {len(failed)}"
        )
        for r in failed[:3]:
            print(f"  round {r['round']} exit {r['exit_code']}: {'; '.join(r['failures'])}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "opmlab", "__init__.py")):
        print(f"perfbench: no opmlab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        print(f"workload {args.workload}, seed {args.seed}, inputs {workloads.seed_inputs(args.seed)}")
        if args.trace:
            third = args.seconds / 3.0
            passes = {
                "untraced": run_pass(start, work, args.workload, args.seed, third),
                "traced": run_pass(start, work, args.workload, args.seed, third, trace=True),
                "one_thread": run_pass(
                    start, work, args.workload, args.seed, third, trace=True, one_thread=True
                ),
            }
            print("env " + json.dumps({**passes["traced"]["env"], "seed": args.seed,
                                       "inputs": workloads.seed_inputs(args.seed)}))
            metrics = per_layer(passes["untraced"], passes["traced"], passes["one_thread"])
        else:
            setup_s = measure_setup(start)
            passes = {"untraced": run_pass(start, work, args.workload, args.seed, args.seconds)}
            print("env " + json.dumps({**passes["untraced"]["env"], "seed": args.seed,
                                       "inputs": workloads.seed_inputs(args.seed)}))
            metrics = end_to_end(passes["untraced"], setup_s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    ops = [r for res in passes.values() for r in res["ops"]]
    for label, res in passes.items():
        summarize_ops(label, res)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    attempted, failed, correct = tally(ops)
    print(f"fail_frac = {failed / attempted!r} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
