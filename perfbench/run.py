"""Benchmark runner for the rails solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the solver is imported from its ``src``.
Each workload runs in fresh child processes, one at a time, with BLAS
pinned to one thread (the ``*_NUM_THREADS`` variables, and
``RAILS_THREADS=1`` for ``rails solve``). The inputs come from the seed. Every answer is checked: the solve must report convergence,
an independent residual check must meet the workload's tolerance, and
``rails solve`` reruns must write byte-identical outputs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, measured untraced; with
``--trace 1`` they are its per-layer ones, from alternating traced and
untraced solves. Lines before it, starting with ``#``, give the sample
counts, the environment and, for traced runs, each layer's share of the
solve time.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# every child must end before the run's own 180 s limit
RUN_LIMIT_S = 170.0
IMPORT_PROBE_REPS = 3
COVERAGE_TOLERANCE = 0.02
# report fields that must repeat exactly between runs of one seed
COUNTS = ("iterations", "mvps", "imvps", "max_space_dim", "final_rank")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "RAILS_THREADS")


class BenchError(Exception):
    pass


def child_env():
    """Environment for a child: the checkout's src first, one BLAS thread.

    ``rails solve`` also gets the BLAS variables, not only RAILS_THREADS:
    the package imports numpy before ``main`` applies that cap, so on its
    own it leaves BLAS on every core.
    """
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = SRC
    env.update({k: "1" for k in _THREAD_VARS})
    return env


class Clock:
    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def left(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left


def run_child(argv, clock):
    """Run child.py with ``argv`` and return the JSON of its last line."""
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *argv], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=clock.left(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[0]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def timed_process(argv, clock, log_path):
    """Run ``argv`` as a process; return (wall seconds, peak RSS MB, exit code).

    Wall time runs from just before spawn to the moment the process is
    reaped; the peak RSS is that process's own ``ru_maxrss``.
    """
    timeout = clock.left()
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=log, stderr=log)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed.is_set():
        raise BenchError(f"{argv[1:3]} killed at the run's time limit")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def tail(samples):
    """(value, percentile): the highest whole percentile with at least ten
    samples above it (linear interpolation).

    With ten samples or fewer no percentile has ten above; the minimum,
    with all the others above it, continues the rule. (The maximum would
    rest on one sample and jump as a run crosses ten samples, which the
    CLI workload's runs of about ten processes do.)
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[0], 0
    # the value at position p/100 * (n - 1) has ten samples above it
    # exactly when that position is below n - 10
    p = math.ceil(100 * (n - 10) / (n - 1)) - 1
    pos = p / 100 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo]), p


def _median_metrics(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def report_metrics(workload, report, residual_rel):
    n = workloads.reduced_dimension(workload)
    return {
        "solver.iterations": report["iterations"],
        "solver.mvps": report["mvps"],
        "solver.imvps": report["imvps"],
        "solver.max_space_dim": report["max_space_dim"],
        "solver.rho_final": report["residual_history"][-1][1],
        "solver.residual_rel": residual_rel,
        # computed, not measured: V, AV and MV at their largest
        "solver.vector_bytes": 8 * n * report["max_space_dim"] * 3,
    }


def import_probe(clock, work):
    """Wall time of fresh processes that only import what ``rails solve`` loads."""
    argv = [sys.executable, "-c", "import rails.cli, rails.mmio, rails.solver"]
    walls = []
    for _ in range(IMPORT_PROBE_REPS):
        wall, _, code = timed_process(argv, clock, os.path.join(work, "probe.log"))
        if code != 0:
            raise BenchError(f"import probe exited {code}")
        walls.append(wall)
    return statistics.median(walls)


def run_library(workload, seed, seconds, trace, clock, work):
    out = run_child(
        ["lib", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)], clock,
    )
    solves = out["solves"]
    timed = [s for s in solves if s["timed"]]
    res = {
        "env": out["env"],
        "input_digest": out["input_digest"],
        "attempted": len(solves),
        "failures": [s["failure"] for s in solves if s["failure"]],
        "samples": [s["wall"] for s in timed if not s["traced"]],
        "setup": out["gen_s"],
        "rss_mb": out["rss_mb"],
        "report": out["report"],
        "residual_rel": out["residual_rel"],
    }
    if trace:
        layers = out["layers"]
        if not layers:
            raise BenchError("no traced solve completed")
        metrics = _median_metrics([l["metrics"] for l in layers])
        metrics["trace.solve_s"] = statistics.median(l["wall"] for l in layers)
        coverage = statistics.median(l["covered"] / l["wall"] for l in layers)
        metrics["trace.coverage"] = coverage
        # the root span must hold the whole call, timed by the child's own clock
        res["trace_errors"] = sorted({e for l in layers for e in l["errors"]})
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            res["trace_errors"].append(
                f"layers cover {100 * coverage:.2f}% of the traced solve, not 100 +- "
                f"{100 * COVERAGE_TOLERANCE:.0f}%")
        metrics["cli.import_s"] = 0.0
        metrics["cli.outside_main_s"] = 0.0
        metrics["testproblems.gen_s"] = statistics.median(out["gen_s"])
        res["layers"] = metrics
    return res


def _file_digest(directory):
    h = hashlib.sha256()
    for name in ("V.mtx", "T.mtx", "report.json"):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_cli(seed, seconds, trace, clock, work):
    problem = os.path.join(work, "problem")
    out_dir = os.path.join(work, "out")
    first_dir = os.path.join(work, "first")
    spans_path = os.path.join(work, "spans.json")
    log = os.path.join(work, "rails.log")
    setup = run_child(["setup-cli", "--seed", str(seed), "--dir", problem], clock)
    args = workloads.cli_args({k: os.path.join(problem, f"{k}.mtx") for k in "AMB"}, out_dir)
    plain = [sys.executable, "-m", "rails.cli", *args]
    traced = [sys.executable, CHILD, "cli-traced", "--spans", spans_path, "--", *args]

    failures, samples, rss, layers, trace_errors = [], [], [], [], set()
    first_digest = report = None
    attempted = same = 0  # runs, and runs that wrote the first run's bytes
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        is_traced = bool(trace) and attempted % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        wall, peak, code = timed_process(traced if is_traced else plain, clock, log)
        attempted += 1
        if code != 0:
            failures.append(f"rails solve exited {code}")
            continue
        digest = _file_digest(out_dir)
        if first_digest is None:
            first_digest = digest
            shutil.copytree(out_dir, first_dir)
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
        if digest == first_digest:
            same += 1
        else:
            failures.append("outputs differ from the first run's")
        if is_traced:
            with open(spans_path) as fh:
                spans = json.load(fh)
            metrics, covered = tracing.layer_metrics(spans, 0)
            trace_errors.update(tracing.nesting_errors(spans, 0))
            if not spans or spans[0]["name"] != "cli.main":
                trace_errors.add("the root span is not cli.main")
            # what main does not hold: interpreter start, imports and exit
            metrics["cli.outside_main_s"] = wall - covered
            metrics["trace.coverage"] = covered / wall
            metrics["trace.solve_s"] = wall
            layers.append(metrics)
        else:
            samples.append(wall)
            rss.append(peak)
    residual = None
    if first_digest is not None:
        residual = run_child(["verify", "--problem", problem, "--solution", first_dir],
                             clock)["residual_rel"]
        # the verdict on the first run's outputs holds for every run that
        # wrote the same bytes
        if not report["converged"]:
            failures += ["not converged"] * same
        elif not residual <= workloads.TOL[workloads.CLI]:
            failures += [f"verified residual {residual:.3e} too large"] * same
    res = {
        "env": setup["env"],
        "input_digest": setup["input_digest"],
        "attempted": attempted,
        "failures": failures,
        "samples": samples,
        "setup": setup["setup_s"],
        "rss_mb": statistics.median(rss) if rss else 0.0,
        "report": report,
        "residual_rel": residual,
    }
    if trace:
        if not layers:
            raise BenchError("no traced rails solve completed")
        metrics = _median_metrics(layers)
        metrics["cli.import_s"] = import_probe(clock, work)
        metrics["testproblems.gen_s"] = statistics.median(setup["gen_s"])
        res["layers"] = metrics
        res["trace_errors"] = sorted(trace_errors)
    return res


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rails", "__init__.py")):
        print(f"error: no rails package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    clock = Clock()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload == workloads.CLI:
            res = run_cli(args.seed, args.seconds, args.trace, clock, work)
        else:
            res = run_library(args.workload, args.seed, args.seconds, args.trace, clock, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run's directory is still there
            pass

    attempted, failed = res["attempted"], len(res["failures"])
    correct = failed == 0 and res["report"] is not None
    report = res["report"]
    print(f"# workload {args.workload} seed {args.seed} inputs {res['input_digest'][:16]}")
    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    print(f"# attempted {attempted} failed {failed} fail_frac {failed / attempted:.4f}"
          + "".join(f"\n#   failure: {f}" for f in sorted(set(res["failures"]))))
    if report is not None:
        counts = {k: report[k] for k in COUNTS}
        print(f"# counts {json.dumps(counts, sort_keys=True)}")
        print(f"# residual_rel verified {res['residual_rel']:.6e} "
              f"reported {report['residual_history'][-1][1]:.6e}")

    if args.trace:
        if report is None:
            print("error: no solve succeeded, so there are no layers to report",
                  file=sys.stderr)
            return 1
        metrics = res["layers"]
        metrics.update(report_metrics(args.workload, report, res["residual_rel"]))
        untraced = statistics.median(res["samples"]) if res["samples"] else float("nan")
        metrics["trace.untraced_solve_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.solve_s"] - untraced
        errors = res["trace_errors"]
        correct = correct and not errors
        total = metrics["trace.solve_s"]
        print(f"# traced solve_s {total:.4f} untraced {untraced:.4f} "
              f"overhead {metrics['trace.overhead_s']:+.4f} s; the root span covers "
              f"{100 * metrics['trace.coverage']:.2f}% of the traced solve"
              + "".join(f"\n#   trace check failed: {e}" for e in errors))
        shares = {m: v for m, v in metrics.items()
                  if m in tracing.SELF_METRIC.values() or m == "cli.outside_main_s"}
        for m, v in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"#   {m:32s} {v:10.4f} s  {100 * v / total:6.2f}% of solve_s "
                  f"on {args.workload}")
    else:
        samples = res["samples"]
        if not samples:
            print("error: no timed solve completed", file=sys.stderr)
            return 1
        tail_value, pct = tail(samples)
        metrics = {
            "solve_s": statistics.median(samples),
            "solve_s_tail": tail_value,
            "setup_s": statistics.median(res["setup"]),
            "peak_rss_mb": res["rss_mb"],
            "final_rank": report["final_rank"] if report else 0,
            "ok_frac": (attempted - failed) / attempted,
        }
        print(f"# solve_s median of {len(samples)} samples; solve_s_tail is p{pct} "
              f"of {len(samples)} samples; setup_s median of {len(res['setup'])}")
        print(f"# solve_s samples {json.dumps(samples)}")

    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        print(f"error: metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
