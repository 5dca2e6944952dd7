"""Per-layer tracing of opmlab by wrapping module functions from outside.

`Tracer.patched()` replaces the functions named in `SPANS` (and every
`verify.check_*`) with timing wrappers and puts the originals back on exit.
Each wrapped call is a span on one stack; a span's self time is its duration
minus the time its child spans cover.  A call into a layer that is already
open on the stack (recursion, or `scores_state` calling `core_state`) joins
the open span instead of opening a second one, so times and counts are not
counted twice.  Targets missing from the package are skipped and listed in
`Tracer.missing`, so the benchmark keeps running when a layer is renamed.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# layer name -> (module, owner inside the module or None, function names)
SPANS = {
    "cli": ("cli", None, ("main",)),
    "cli.load_config": ("cli", None, ("load_config",)),
    "cli.write": ("cli", None, ("write_csv", "write_json", "_atomic_write_text")),
    "opm.solve": ("opm", None, ("solve_opm",)),
    "opm.iterate": ("opm", None, ("_iterate",)),
    "opm.basis_build": ("opm", "_Work", ("__init__",)),
    "opm.moment_matrix": ("opm", "_Work", ("moment_matrix",)),
    "opm.factor": ("opm", "_Work", ("core_state", "scores_state", "objective_only")),
    "opm.newton": ("opm", None, ("_newton_solve",)),
    "opm.mult": ("opm", None, ("_try_mult",)),
    "opm.fw": ("opm", None, ("_fw_step",)),
    "opm.pairwise": ("opm", None, ("_pairwise_step",)),
    "opm.finalize": ("opm", None, ("_finalize",)),
    "bergman.factorize": ("bergman", None, ("factorize",)),
    "bergman.features": ("bergman", None, ("_features",)),
    "szego.raw": ("szego", None, ("szego_function_raw",)),
    "geometry.exterior_map": ("geometry", None, ("exterior_map",)),
    "geometry.faber": ("geometry", None, ("faber_polynomials",)),
    "measure.discretize": ("measure", None, ("discretize_boundary",)),
    "measure.balayage": ("measure", None, ("balayage_point_mass",)),
    "measure.moment_discrepancy": ("measure", None, ("moment_discrepancy",)),
    "measure.save_csv": ("measure", None, ("save_csv",)),
}

# The checks `verify.run_all` runs today; each gets a `verify.check.<name>` span.
VERIFY_CHECKS = (
    "christinv_poisson",
    "christinv_random",
    "szego_scaling",
    "circle_optimality",
    "faber_decay",
    "tilde_monotonicity_circle",
    "tilde_monotonicity_interval",
    "transport_circle",
    "transport_ellipse",
)


def _gflop_moment_matrix(args, kwargs, result, counts):
    work = args[0]
    # (n+1) x m times m x (n+1), complex: 8 real flops per multiply-add
    counts["opm.moment_matrix.gflop_computed"] += 8.0 * work.m * (work.n + 1) ** 2 / 1e9


def _newton_steps(args, kwargs, result, counts):
    counts["opm.newton.steps_accepted"] += int(result[2])


def _accept(prefix):
    def hook(args, kwargs, result, counts):
        counts[prefix + ".attempts"] += 1
        counts[prefix + ".accepted"] += result is not None

    return hook


def _iterations(args, kwargs, result, counts):
    counts["opm.iterations"] += int(result.iterations)


def _points(args, kwargs, result, counts):
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    counts["bergman.features.points"] += int(getattr(zs, "size", 1))


def _text_bytes(args, kwargs, result, counts):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["cli.write.bytes"] += len(text.encode("utf-8"))


def _file_bytes(args, kwargs, result, counts):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["cli.write.bytes"] += os.path.getsize(path)


# (layer, function) -> hook(args, kwargs, result, counts), run on every return
RETURN_HOOKS = {
    ("opm.moment_matrix", "moment_matrix"): _gflop_moment_matrix,
    ("opm.newton", "_newton_solve"): _newton_steps,
    ("opm.mult", "_try_mult"): _accept("opm.mult"),
    ("opm.fw", "_fw_step"): _accept("opm.fw"),
    ("opm.pairwise", "_pairwise_step"): _accept("opm.pairwise"),
    ("opm.solve", "solve_opm"): _iterations,
    ("bergman.features", "_features"): _points,
    ("cli.write", "_atomic_write_text"): _text_bytes,
    ("measure.save_csv", "save_csv"): _file_bytes,
}

# layers whose raised exceptions are counted as `<layer>.fail`
FAIL_COUNTED = ("opm.factor", "bergman.factorize")


class Tracer:
    """Span stack plus per-layer totals: inclusive s, self_s, count."""

    def __init__(self):
        self.totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "count": 0})
        self.counts = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [layer, child seconds]
        self._open = defaultdict(int)  # layer -> open spans

    def _wrap(self, layer: str, fn):
        hook = RETURN_HOOKS.get((layer, fn.__name__))
        counts_fail = layer in FAIL_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[layer]:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result, self.counts)
                return result
            frame = [layer, 0.0]
            self._stack.append(frame)
            self._open[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if counts_fail:
                    self.counts[layer + ".fail"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self._open[layer] -= 1
                self._stack.pop()
                tot = self.totals[layer]
                tot["s"] += dt
                tot["self_s"] += dt - frame[1]
                tot["count"] += 1
                if self._stack:
                    self._stack[-1][1] += dt
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result

        return wrapper

    def _targets(self, package):
        spans = dict(SPANS)
        for name in VERIFY_CHECKS:
            spans["verify.check." + name] = ("verify", None, ("check_" + name,))
        for layer, (mod_name, owner_name, fn_names) in spans.items():
            owner = getattr(package, mod_name, None)
            if owner is not None and owner_name is not None:
                owner = getattr(owner, owner_name, None)
            for fn_name in fn_names:
                fn = vars(owner).get(fn_name) if owner is not None else None
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{owner_name + '.' if owner_name else ''}{fn_name}")
                    continue
                yield layer, owner, fn_name, fn

    @contextmanager
    def patched(self, package):
        """Wrap the layer functions of `package` (the imported opmlab) for the block."""
        saved = []
        try:
            for layer, owner, fn_name, fn in self._targets(package):
                saved.append((owner, fn_name, fn))
                setattr(owner, fn_name, self._wrap(layer, fn))
            yield self
        finally:
            for owner, fn_name, fn in reversed(saved):
                setattr(owner, fn_name, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(totals: dict, counts: dict, n_ops: int) -> dict:
    """Per-op layer metrics (name -> (value, unit)) from one traced pass."""
    per = 1.0 / n_ops
    out = {}

    def tot(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    for layer in SPANS:
        if layer == "cli":
            continue
        out[f"{layer}.s"] = (tot(layer, "s") * per, "s")
        out[f"{layer}.self_s"] = (tot(layer, "self_s") * per, "s")
        if layer == "opm.newton":
            out["opm.newton.rounds"] = (tot(layer, "count") * per, "count")
        else:
            out[f"{layer}.count"] = (tot(layer, "count") * per, "count")
    out["cli.self_s"] = (tot("cli", "self_s") * per, "s")
    # cli.write covers the package's file writers, measure.save_csv included
    out["cli.write.s"] = ((tot("cli.write", "s") + tot("measure.save_csv", "s")) * per, "s")
    out["cli.write.bytes"] = (counts.get("cli.write.bytes", 0.0) * per, "bytes")
    for name in VERIFY_CHECKS:
        out[f"verify.check.{name}.s"] = (tot("verify.check." + name, "s") * per, "s")
    out["opm.moment_matrix.gflop_computed"] = (
        counts.get("opm.moment_matrix.gflop_computed", 0.0) * per, "gflop")
    out["opm.factor.fail"] = (counts.get("opm.factor.fail", 0.0) * per, "count")
    out["bergman.factorize.fail"] = (counts.get("bergman.factorize.fail", 0.0) * per, "count")
    out["bergman.features.points"] = (counts.get("bergman.features.points", 0.0) * per, "count")
    steps = counts.get("opm.newton.steps_accepted", 0.0)
    out["opm.newton.steps_accepted"] = (steps * per, "count")
    out["opm.newton.steps_per_round"] = (_ratio(steps, tot("opm.newton", "count")), "count")
    out["opm.iterations"] = (counts.get("opm.iterations", 0.0) * per, "count")
    for step in ("mult", "fw", "pairwise"):
        out[f"opm.{step}.accept_ratio"] = (
            _ratio(counts.get(f"opm.{step}.accepted", 0.0), counts.get(f"opm.{step}.attempts", 0.0)),
            "ratio",
        )
    return out


def self_time_shares(totals: dict, op_s_total: float) -> list[tuple[str, float, float]]:
    """(layer, self seconds, share of op time) for every traced layer, largest first."""
    rows = [(layer, t["self_s"], _ratio(t["self_s"], op_s_total)) for layer, t in totals.items()]
    return sorted(rows, key=lambda r: -r[1])
