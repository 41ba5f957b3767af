"""Checks of the benchmark itself: python3 -m pytest perfbench -q

The repeat tests run the benchmark end to end with a one-second
measuring window, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from residual import residual_rel  # noqa: E402


def _bench(workload, seed, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        key, _, rest = line[2:].partition(" ")
        info[key] = rest
    result = json.loads(lines[-1])
    counts = json.loads(info["counts"])
    inputs = info["workload"].split()[-1]
    return result, counts, inputs


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_exactly_and_seeds_differ(workload):
    first, counts1, inputs1 = _parse(_bench(workload, 11))
    second, counts2, inputs2 = _parse(_bench(workload, 11))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    assert counts1 == counts2
    assert set(counts1) == set(run.COUNTS)
    assert first["metrics"]["final_rank"] == second["metrics"]["final_rank"]
    assert inputs1 == inputs2
    _, _, inputs3 = _parse(_bench(workload, 12))
    assert inputs3 != inputs1


def test_refuses_to_run_without_the_solver(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("diffusion-inverse", 1, cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tail_leaves_ten_samples_above():
    for n in (11, 20, 30, 57, 100, 1000):
        xs = list(range(n))
        value, p = run.tail(xs)
        assert value == pytest.approx(np.percentile(xs, p))
        assert sum(x > value for x in xs) >= 10
        # the next whole percentile would leave fewer than ten above
        assert sum(x > np.percentile(xs, p + 1) for x in xs) < 10
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0)


def test_self_times_tile_the_root():
    spans = [
        {"name": "solver.solve", "parent": None, "solve": 7, "start": 0.0, "end": 10.0},
        {"name": "matrices.lanczos_topk", "parent": 0, "solve": 7, "start": 1.0, "end": 4.0,
         "info": {"steps": 5, "converged": False}},
        {"name": "solver.apply_a", "parent": 0, "solve": 7, "start": 5.0, "end": 7.0},
        {"name": "dae.schur_apply", "parent": 2, "solve": 7, "start": 5.5, "end": 6.5,
         "info": {"cols": 3}},
        {"name": "solver.solve", "parent": None, "solve": 8, "start": 20.0, "end": 21.0},
    ]
    metrics, covered = tracing.layer_metrics(spans, 7)
    assert covered == pytest.approx(10.0)
    assert metrics["solver.self_s"] == pytest.approx(5.0)
    assert metrics["matrices.lanczos_topk_s"] == pytest.approx(3.0)
    assert metrics["solver.apply_a_s"] == pytest.approx(1.0)
    assert metrics["dae.schur_apply_s"] == pytest.approx(1.0)
    assert metrics["dae.schur_apply_cols"] == 3
    assert metrics["matrices.lanczos_topk_unconverged"] == 1


def test_nesting_check_catches_spans_outside_their_parent():
    root = {"name": "solver.solve", "parent": None, "solve": 0, "start": 0.0, "end": 10.0}
    inner = {"name": "solver.apply_a", "parent": 0, "solve": 0, "start": 1.0, "end": 2.0}
    assert tracing.nesting_errors([root, inner], 0) == []
    late = dict(inner, start=9.0, end=11.0)
    assert tracing.nesting_errors([root, late], 0)
    overlapping = dict(inner, start=1.5, end=3.0)
    assert tracing.nesting_errors([root, inner, overlapping], 0)
    assert tracing.nesting_errors([root, dict(root, start=20.0, end=21.0)], 0)


def test_tracer_restores_the_library():
    import rails.dae
    import rails.solver

    before = (rails.solver.solve, rails.solver.LyapunovProblem.apply_a, rails.dae.schur_apply)
    tracer = tracing.Tracer()
    tracer.install()
    assert rails.solver.solve is not before[0]
    tracer.uninstall()
    after = (rails.solver.solve, rails.solver.LyapunovProblem.apply_a, rails.dae.schur_apply)
    assert after == before


def test_residual_check_rejects_a_wrong_answer():
    from rails import SolverOptions, solve_dae

    a, m, b = workloads.generate("dae-wide", 3)
    sol, report = solve_dae(a, m, b, SolverOptions(tol=1e-4, rng_seed=3))
    assert report.converged
    rho = residual_rel(a, m, b, sol.v, sol.t)
    assert rho <= 1e-4
    assert rho == pytest.approx(report.residual_history[-1][1], rel=0.05)
    assert residual_rel(a, m, b, sol.v, 1.01 * sol.t) > 1e-3
