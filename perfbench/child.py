"""Work done in fresh child processes of ``run.py``; each prints one JSON line.

    child.py lib --workload W --seed N --seconds S --trace 0|1
        Generate the inputs several times (set-up), solve once untimed,
        then solve repeatedly for S seconds; check every answer. With
        --trace 1 traced and untraced solves alternate.
    child.py setup-cli --seed N --dir D
        Generate the CLI workload several times, writing A/M/B.mtx into D.
    child.py verify --problem D --solution E
        Independent residual check of E/V.mtx, E/T.mtx against D/*.mtx.
    child.py cli-traced --spans F -- ARGS...
        ``rails`` ARGS with spans recorded around the library calls;
        the spans go to F when main returns.

BLAS threads are pinned by the parent through the environment.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import workloads

# Set-up repetitions, whose median is setup_s. Library generation takes
# tens of milliseconds, so many repetitions steady the median; the CLI
# problem takes about 3 s to generate and write.
SETUP_REPS = 60
CLI_SETUP_REPS = 5
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_rails():
    """Import the checkout's ``rails``; refuse any other copy."""
    sys.path.insert(0, SRC)
    import rails

    if os.path.dirname(os.path.dirname(os.path.abspath(rails.__file__))) != SRC:
        raise SystemExit(f"rails imported from {rails.__file__}, not from {SRC}")
    return rails


def _digest(*arrays):
    h = hashlib.sha256()
    for x in arrays:
        x = np.ascontiguousarray(x)
        h.update(str((x.dtype.str, x.shape)).encode())
        h.update(x.tobytes())
    return h.hexdigest()


def _input_digest(a, m, b):
    a, m = a.tocsr(), m.tocsr()
    return _digest(a.indptr, a.indices, a.data, m.indptr, m.indices, m.data, b)


def _environment():
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "RAILS_THREADS")
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "threads": {k: os.environ[k] for k in pins if k in os.environ},
    }


def _setup(workload, seed):
    """Generate SETUP_REPS times; every repetition must give the same inputs."""
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workloads.generate(workload, seed)
        times.append(time.perf_counter() - t0)
        digests.add(_input_digest(*inputs))
    if len(digests) != 1:
        raise SystemExit(f"{workload}: generation is not deterministic for seed {seed}")
    return inputs, times, digests.pop()


def cmd_lib(args):
    _import_rails()
    from residual import residual_rel
    from tracing import Tracer, layer_metrics, nesting_errors

    workload, seed = args.workload, args.seed
    inputs, gen_s, input_digest = _setup(workload, seed)
    call = workloads.library_call(workload, inputs)
    tracer = Tracer()

    solves = []  # dicts: wall, traced, failure, answer
    answers = {}  # answer digest -> (solution, report dict)

    def one(timed, traced):
        if traced:
            tracer.install()
            tracer.solve_id = len(solves)
        entry = {"timed": timed, "traced": traced, "failure": None}
        t0 = time.perf_counter()
        try:
            sol, report = call()
        except Exception as exc:  # a raising solve is a failed solve
            entry["failure"] = f"raised {type(exc).__name__}: {exc}"
        entry["wall"] = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if entry["failure"] is None:
            rep = report.to_json_dict()
            key = _digest(sol.v, sol.t) + hashlib.sha256(
                json.dumps(rep, sort_keys=True).encode()
            ).hexdigest()
            answers.setdefault(key, (sol, rep))
            entry["answer"] = key
            if not report.converged:
                entry["failure"] = f"not converged ({report.termination_reason})"
        solves.append(entry)

    one(timed=False, traced=False)  # warm-up
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        one(timed=True, traced=bool(args.trace) and i % 2 == 1)
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # independent check of every distinct answer, outside the timed region
    a, m, b = inputs
    verified = {}
    for key, (sol, _) in answers.items():
        verified[key] = residual_rel(a, m, b, sol.v, sol.t)
    tol = workloads.TOL[workload]
    for entry in solves:
        key = entry.get("answer")
        if key is not None and entry["failure"] is None and not verified[key] <= tol:
            entry["failure"] = f"verified residual {verified[key]:.3e} > tol {tol:.1e}"

    layers = []
    for sid, entry in enumerate(solves):
        if entry["traced"]:
            metrics, covered = layer_metrics(tracer.spans, sid)
            layers.append({
                "wall": entry["wall"], "covered": covered, "metrics": metrics,
                "errors": nesting_errors(tracer.spans, sid),
            })
    first = next((k for k in (e.get("answer") for e in solves) if k), None)
    out = {
        "input_digest": input_digest,
        "gen_s": gen_s,
        "rss_mb": rss_mb,
        "solves": [{k: e[k] for k in ("timed", "traced", "wall", "failure")} for e in solves],
        "report": answers[first][1] if first else None,
        "residual_rel": verified[first] if first else None,
        "layers": layers,
        "env": _environment(),
    }
    print(json.dumps(out))


def cmd_setup_cli(args):
    rails = _import_rails()
    os.makedirs(args.dir, exist_ok=True)
    gen_s, setup_s, digests = [], [], set()
    for _ in range(CLI_SETUP_REPS):
        t0 = time.perf_counter()
        a, m, b = workloads.generate(workloads.CLI, args.seed)
        t1 = time.perf_counter()
        rails.mmio.save_sparse(os.path.join(args.dir, "A.mtx"), a)
        rails.mmio.save_sparse(os.path.join(args.dir, "M.mtx"), m)
        rails.mmio.save_dense(os.path.join(args.dir, "B.mtx"), b)
        t2 = time.perf_counter()
        gen_s.append(t1 - t0)
        setup_s.append(t2 - t0)
        h = hashlib.sha256()
        for name in ("A.mtx", "M.mtx", "B.mtx"):
            with open(os.path.join(args.dir, name), "rb") as fh:
                h.update(fh.read())
        digests.add(h.hexdigest())
    if len(digests) != 1:
        raise SystemExit("CLI inputs are not byte-identical across set-ups")
    print(json.dumps({
        "gen_s": gen_s, "setup_s": setup_s, "input_digest": digests.pop(),
        "env": _environment(),
    }))


def cmd_verify(args):
    # scipy's reader, not rails.mmio: the check must not trust the code under test
    import scipy.io
    from residual import residual_rel

    def read(directory, name):
        x = scipy.io.mmread(os.path.join(directory, name))
        return x if not isinstance(x, np.ndarray) else np.atleast_2d(x)

    a, m, b = (read(args.problem, f"{k}.mtx") for k in "AMB")
    v, t = (read(args.solution, f"{k}.mtx") for k in "VT")
    print(json.dumps({"residual_rel": residual_rel(a, m, b, v, t)}))


def cmd_cli_traced(args):
    _import_rails()
    import rails.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(with_cli=True)
    tracer.solve_id = 0
    try:
        code = rails.cli.main(args.rails_args)
    finally:
        tracer.uninstall()
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("lib")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("setup-cli")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("verify")
    p.add_argument("--problem", required=True)
    p.add_argument("--solution", required=True)
    p = sub.add_parser("cli-traced")
    p.add_argument("--spans", required=True)
    p.add_argument("rails_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.cmd == "cli-traced" and args.rails_args[:1] == ["--"]:
        args.rails_args = args.rails_args[1:]
    handler = {
        "lib": cmd_lib, "setup-cli": cmd_setup_cli, "verify": cmd_verify,
        "cli-traced": cmd_cli_traced,
    }[args.cmd]
    return handler(args) or 0


if __name__ == "__main__":
    sys.exit(main())
