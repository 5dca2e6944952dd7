"""Tests of the benchmark itself: seeds, correctness gates, tracer hygiene.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import opmlab  # noqa: E402
from opmlab import cli  # noqa: E402

SMALL_SEGMENT = Op(
    "small",
    ("opm", "--geometry", "interval", "--z0", "2", "--degrees", "6", "--grid", "200",
     "--gap-tol", "1e-8"),
    {"gap_tol": 1e-8, "n": 6, "x0": 2.0},
)


def _run(op, out):
    return worker._call(cli, list(op.argv) + ["--out", str(out)])


def _edit_certificate(out, **changes):
    path = os.path.join(out, "certificate.json")
    with open(path) as fh:
        cert = json.load(fh)
    cert.update(changes)
    with open(path, "w") as fh:
        json.dump(cert, fh)


# ---------------------------------------------------------------------------
# seeds


def test_seed_zero_gives_the_acceptance_points():
    assert workloads.seed_inputs(0) == {"x0": 2.0, "a": 1.0, "z0": 3.0}
    seg = workloads.workload_ops("segment_endgame", 0)
    assert [op.argv[4] for op in seg] == ["2.0", "2.0", "0,1.0"]
    assert [op.argv[6] for op in seg] == ["15", "30", "30"]
    assert workloads.workload_ops("ellipse_sweep", 0)[0].argv[4] == "3.0"
    assert workloads.workload_ops("verify_suite", 0)[0].argv == ("verify", "--seed", "0")


def test_seed_mapping_is_deterministic_and_in_range():
    draws = [workloads.seed_inputs(s) for s in range(1, 40)]
    assert draws == [workloads.seed_inputs(s) for s in range(1, 40)]
    assert len({d["z0"] for d in draws}) > 30
    for d in draws:
        assert 1.8 <= d["x0"] <= 2.2
        assert 0.8 <= d["a"] <= 1.2
        assert 2.8 <= d["z0"] <= 3.2
    for name in workloads.WORKLOADS:
        assert workloads.workload_ops(name, 5) == workloads.workload_ops(name, 5)


# ---------------------------------------------------------------------------
# gates


def test_real_segment_output_passes(tmp_path):
    assert _run(SMALL_SEGMENT, tmp_path) == 0
    v = workloads.check_op(SMALL_SEGMENT, 0, str(tmp_path))
    assert v.ok, v.failures


def test_tampered_objective_is_a_failed_wrong_op(tmp_path):
    assert _run(SMALL_SEGMENT, tmp_path) == 0
    with open(tmp_path / "certificate.json") as fh:
        objective = json.load(fh)["objective"]
    _edit_certificate(tmp_path, objective=objective * 1.01)
    v = workloads.check_op(SMALL_SEGMENT, 0, str(tmp_path))
    assert not v.ok
    assert v.wrong and "T_n(x0)^2" in v.wrong[0]


def test_non_converged_status_is_a_failed_op(tmp_path):
    assert _run(SMALL_SEGMENT, tmp_path) == 0
    _edit_certificate(tmp_path, status="stalled")
    v = workloads.check_op(SMALL_SEGMENT, 0, str(tmp_path))
    assert v.failures == ["status stalled"]
    assert v.wrong == []


def test_gap_above_tolerance_is_a_failed_op(tmp_path):
    assert _run(SMALL_SEGMENT, tmp_path) == 0
    _edit_certificate(tmp_path, certificate_gap=2e-8)
    assert not workloads.check_op(SMALL_SEGMENT, 0, str(tmp_path)).ok


def test_nonzero_exit_code_is_a_failed_op(tmp_path):
    boundary = Op("boundary", ("opm", "--geometry", "interval", "--z0", "1", "--degrees", "4",
                               "--grid", "200"), {"gap_tol": 1e-6, "n": 4, "x0": 1.0})
    records = worker.run_ops(cli, [boundary], str(tmp_path), seconds=0.0)
    assert [r["exit_code"] for r in records] == [2]
    attempted, failed, correct = run.tally(records)
    assert (attempted, failed) == (1, 1)
    assert correct  # the program refused the input itself; no wrong number


def test_imaginary_point_checks_growth_ratio(tmp_path):
    op = Op("ia", ("opm", "--geometry", "interval", "--z0", "0,1", "--degrees", "30",
                   "--grid", "2000", "--gap-tol", "1e-8"), {"gap_tol": 1e-8, "n": 30, "a": 1.0})
    os.makedirs(tmp_path, exist_ok=True)
    limit = workloads.imaginary_growth_limit(1.0)
    good = (limit * (1.0 + 2**0.5) ** 30) ** 2
    cert = {"status": "converged", "certificate_gap": 1e-9, "objective": good}
    (tmp_path / "certificate.json").write_text(json.dumps(cert))
    assert workloads.check_op(op, 0, str(tmp_path)).ok
    cert["objective"] = good * 1.2
    (tmp_path / "certificate.json").write_text(json.dumps(cert))
    assert workloads.check_op(op, 0, str(tmp_path)).wrong


def _sweep_csv(path, statuses):
    header = "n,objective,tilde_B,growth_ratio,moment_discrepancy,gap,iterations,seconds,status"
    lines = [header]
    for i, n in enumerate(range(4, 33, 4)):
        tilde = 0.9 + 0.01 * i
        disc = 0.1 / (i + 1)
        lines.append(f"{n},1.0,{tilde!r},{tilde ** 0.5!r},{disc!r},5e-08,10,0.1,{statuses[i]}")
    path.write_text("\r\n".join(lines) + "\r\n")


def test_sweep_gates(tmp_path):
    op = workloads.workload_ops("ellipse_sweep", 0)[0]
    _sweep_csv(tmp_path / "convergence.csv", ["converged"] * 8)
    assert workloads.check_op(op, 0, str(tmp_path)).ok
    _sweep_csv(tmp_path / "convergence.csv", ["converged", "converged", "stalled"] + ["converged"] * 5)
    v = workloads.check_op(op, 0, str(tmp_path))
    assert v.failures == ["n=12 status stalled"]
    assert v.wrong == []


def test_verify_report_all_passed_false_is_wrong(tmp_path):
    op = workloads.workload_ops("verify_suite", 0)[0]
    report = {"all_passed": False, "checks": [{"name": "x", "asserted": True, "passed": False}]}
    (tmp_path / "verify_report.json").write_text(json.dumps(report))
    v = workloads.check_op(op, 0, str(tmp_path))
    assert not v.ok and v.wrong


def test_missing_output_after_success_is_wrong(tmp_path):
    v = workloads.check_op(SMALL_SEGMENT, 0, str(tmp_path))
    assert v.wrong


# ---------------------------------------------------------------------------
# tracer


def _traced_owners():
    return [opmlab.cli, opmlab.opm, opmlab.opm._Work, opmlab.bergman, opmlab.szego,
            opmlab.geometry, opmlab.measure, opmlab.verify]


def _snapshot():
    return {(id(o), k): v for o in _traced_owners() for k, v in vars(o).items() if callable(v)}


def test_wrappers_restore_the_package(tmp_path):
    before = _snapshot()
    tracer = layertrace.Tracer()
    with tracer.patched(opmlab):
        assert opmlab.opm._newton_solve is not before[(id(opmlab.opm), "_newton_solve")]
        assert _run(SMALL_SEGMENT, tmp_path) == 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.missing == []
    assert tracer.totals["cli"]["count"] == 1
    assert tracer.totals["opm.solve"]["count"] == 1
    assert tracer.counts["opm.iterations"] > 0
    # self times partition the op: they add up to the root span
    total_self = sum(t["self_s"] for t in tracer.totals.values())
    assert total_self == pytest.approx(tracer.totals["cli"]["s"], rel=1e-6)


def test_wrappers_restore_after_an_exception():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with layertrace.Tracer().patched(opmlab):
            raise RuntimeError("boom")
    assert all(_snapshot()[k] is before[k] for k in before)


def test_nested_factor_calls_count_once():
    tracer = layertrace.Tracer()
    with tracer.patched(opmlab):
        import numpy as np

        nodes = np.exp(2j * np.pi * np.arange(40) / 40)
        work = opmlab.opm._Work(nodes, 2.0, 4)
        work.scores_state(work.moment_matrix(np.full(40, 1.0 / 40)))
    assert tracer.totals["opm.factor"]["count"] == 1  # scores_state -> core_state


# ---------------------------------------------------------------------------
# metric names match BENCHMARK.json


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _fake_pass(trace):
    ops = [{"op": "x", "round": 0, "wall": 1.0, "cpu": 1.0, "exit_code": 0,
            "failures": [], "wrong": [], "digest": "d"}]
    return {"ops": ops, "maxrss_kb": 1024, "env": {"blas_threads": 2}, "trace": trace}


def test_metric_names_match_benchmark_json():
    spec = _bench_json()
    trace = {"totals": {}, "counts": {}, "missing": []}
    layer = run.per_layer(_fake_pass(None), _fake_pass(trace), _fake_pass(trace))
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    e2e = run.end_to_end(_fake_pass(None), 0.5)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        got = (e2e if m in spec["end_to_end"] else layer)[m["name"]]
        assert got[1] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
