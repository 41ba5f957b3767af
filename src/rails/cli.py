"""Command line front end.

Four subcommands cover the round trip: ``generate`` writes a reproducible
test problem, ``solve`` produces a low-rank covariance factorization plus
a JSON report, ``validate`` replays the problem against the brute-force
oracles, and ``analyze`` extracts dominant directions. Every command that
writes files also writes a manifest.json capturing inputs, options and
outputs, and all randomness is seeded. Reruns are byte-identical at a
fixed RAILS_THREADS with the same NumPy, SciPy and BLAS build; across
thread counts they are not yet (BLAS may sum a product over the n rows in
another order, which moves V.mtx, T.mtx and report.json in the last
digits on large problems).

Exit codes: 0 success, 1 non-convergence or failed validation, 2 usage or
malformed input, 3 I/O failure, 4 structural solver error or numerical
breakdown, 5 oracle asked beyond its size cap, 6 out of memory.

The RAILS_THREADS environment variable caps BLAS threading (default: all
cores). The package ``__init__`` applies it on import, before numpy loads,
so it holds for every command.

Run as a program (``rails`` or ``python -m rails.cli``; ``main`` then reads
``sys.argv``), the front end calls ``gc.freeze()`` once before parsing. The
hundreds of thousands of objects the numpy and scipy imports leave behind
then stay out of every garbage collection, including the ones interpreter
shutdown runs, which otherwise took about 0.1 s of each process (2-core
VM). A call with an explicit argument list, as from a test or another
program, changes no collector state.
"""

import argparse
import dataclasses
import gc
import json
import math
import os
import sys

import numpy as np

from . import __version__, mmio, solver, testproblems
from .analysis import eofs, write_eigenvalue_csv, write_eof_csv
from .dae import partition
from .errors import OracleSizeError, RailsError
from .oracles import SimulationConfig, euler_maruyama_covariance, kron_solve_dae

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_STRUCTURAL = 4
EXIT_ORACLE_SCALE = 5
EXIT_MEMORY = 6

_PATTERNS = {
    "uncorrelated": "uncorrelated_columns",
    "row-sum": "row_sum_vector",
    "diagonal": "diagonal_surface",
}

_SPACES = {
    "random": "random",
    "b": "columns_of_b",
    "inverse-b": "inverse_applied_to_b",
}

def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, command, inputs, options, outputs):
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "inputs": inputs,
        "options": options,
        "outputs": sorted(outputs),
        "package_version": __version__,
    })


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rails",
        description="Low-rank stationary covariance solver for generalized "
        "Lyapunov equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a seeded test problem")
    g.add_argument("--kind", choices=["diffusion", "dae"], required=True)
    g.add_argument("--n", type=int, help="size (diffusion)")
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--n-diff", type=int, help="differential size (dae)")
    g.add_argument("--n-alg", type=int, help="algebraic size (dae)")
    g.add_argument("--coupling", type=float, default=0.3)
    g.add_argument("--shift", type=float, default=1.0)
    g.add_argument("--pattern", choices=sorted(_PATTERNS), default="uncorrelated")
    g.add_argument("--sigma", type=float, default=1.0, help="forcing magnitude")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", argument_default=argparse.SUPPRESS,
                       help="solve a problem given as Matrix Market files")
    s.add_argument("--a", required=True, help="A.mtx path")
    s.add_argument("--m", required=True, help="M.mtx path")
    s.add_argument("--b", required=True, help="B.mtx path")
    s.add_argument("--out", required=True)
    s.add_argument("--expand-m", type=int)
    s.add_argument("--tol", type=float)
    s.add_argument("--restart-period", type=int)
    s.add_argument("--restart-tol", type=float)
    s.add_argument("--restart-tol-growth", type=float)
    s.add_argument("--max-iters", type=int)
    s.add_argument("--variant", choices=["standard", "inverse"])
    s.add_argument("--initial-space", choices=sorted(_SPACES))
    s.add_argument("--seed", type=int, dest="rng_seed")

    v = sub.add_parser("validate", help="check a solution against the oracles")
    v.add_argument("--problem", required=True, help="directory with A/M/B.mtx")
    v.add_argument("--solution", required=True, help="directory with V/T.mtx")
    v.add_argument("--oracle", choices=["kron", "none"], default="kron")
    v.add_argument("--check-tol", type=float, default=1e-6)
    v.add_argument("--simulate", action="store_true")
    v.add_argument("--sim-tol", type=float, default=0.15)
    v.add_argument("--dt", type=float, default=1e-3)
    v.add_argument("--steps", type=int, default=1_000_000)
    v.add_argument("--burn-in", type=int, default=10_000)
    v.add_argument("--stride", type=int, default=10)
    v.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("analyze", help="dominant directions of a solution")
    a.add_argument("--solution", required=True)
    a.add_argument("-k", type=int, default=4)
    a.add_argument("--out", required=True)

    return parser


def _cmd_generate(args):
    if args.kind == "diffusion":
        if args.n is None:
            raise ValueError("--kind diffusion requires --n")
        a, m, sites = testproblems.gen_diffusion(args.n, args.scale)
        n = args.n
    else:
        if args.n_diff is None or args.n_alg is None:
            raise ValueError("--kind dae requires --n-diff and --n-alg")
        a, m, sites = testproblems.gen_dae(
            args.n_diff, args.n_alg, args.coupling, args.shift, args.seed
        )
        n = args.n_diff + args.n_alg
    forcing = testproblems.gen_forcing(sites, n, _PATTERNS[args.pattern], args.sigma)
    os.makedirs(args.out, exist_ok=True)
    mmio.save_sparse(os.path.join(args.out, "A.mtx"), a)
    mmio.save_sparse(os.path.join(args.out, "M.mtx"), m)
    mmio.save_dense(os.path.join(args.out, "B.mtx"), forcing.b)
    options = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    options["pattern"] = _PATTERNS[args.pattern]
    _write_manifest(
        args.out, "generate", {}, options, ["A.mtx", "M.mtx", "B.mtx", "manifest.json"]
    )
    print(f"wrote {args.kind} problem (n={n}, {forcing.b.shape[1]} forcing columns) to {args.out}")
    return EXIT_OK


def _cmd_solve(args):
    a, m, b = mmio.load_problem(args.a, args.m, args.b)
    inputs = {"a": args.a, "m": args.m, "b": args.b}
    given = {
        k: v for k, v in vars(args).items() if k not in ("command", "out", *inputs)
    }
    if "initial_space" in given:
        given["initial_space"] = _SPACES[given["initial_space"]]
    opts = solver.SolverOptions(**given)
    sol, report = solver.solve_dae(a, m, b, opts)
    os.makedirs(args.out, exist_ok=True)
    mmio.save_solution(args.out, sol)
    _write_json(os.path.join(args.out, "report.json"), report.to_json_dict())
    options = dataclasses.asdict(opts)
    del options["initial_v"]
    options["seed"] = options.pop("rng_seed")
    _write_manifest(
        args.out, "solve", inputs, options,
        ["V.mtx", "T.mtx", "report.json", "manifest.json"],
    )
    rho = report.residual_history[-1][1] if report.residual_history else float("nan")
    print(
        f"{'converged' if report.converged else 'NOT converged'} "
        f"rho={rho:.3e} iterations={report.iterations} rank={report.final_rank} "
        f"max_dim={report.max_space_dim} mvps={report.mvp_count} "
        f"imvps={report.imvp_count} ({report.termination_reason})"
    )
    return EXIT_OK if report.converged else EXIT_FAILED


def _cmd_validate(args):
    for flag, tol in (("--check-tol", args.check_tol), ("--sim-tol", args.sim_tol)):
        if not 0 <= tol < math.inf:
            raise ValueError(f"{flag} must be in [0, inf), got {tol}")
    if args.oracle == "none" and not args.simulate:
        raise ValueError("nothing to validate: oracle disabled and --simulate not set")
    if args.simulate:
        cfg = SimulationConfig(dt=args.dt, n_steps=args.steps, burn_in=args.burn_in,
                               sample_stride=args.stride, rng_seed=args.seed)
    a, m, b = mmio.load_problem(*(os.path.join(args.problem, f"{x}.mtx") for x in "AMB"))
    sol = mmio.load_solution(args.solution, a.shape[0])
    ok = True
    if args.oracle == "kron":
        # OracleSizeError propagates (exit 5) when n is past the cap
        c_ref = kron_solve_dae(a, m, b)
        err = np.linalg.norm(sol.to_dense() - c_ref, "fro") / max(
            np.linalg.norm(c_ref, "fro"), np.finfo(float).tiny
        )
        passed = err <= args.check_tol
        ok &= passed
        print(
            f"oracle check: relative error {err:.3e} "
            f"{'<=' if passed else '>'} {args.check_tol:.3e} "
            f"[{'pass' if passed else 'FAIL'}]"
        )
    if args.simulate:
        sys_ = partition(a, m, b)
        c_emp, used = euler_maruyama_covariance(sys_, cfg)
        v = sol.v[sys_.differential_rows]
        c22 = v @ sol.t @ v.T
        lam_emp = np.linalg.eigvalsh(c_emp).max()
        lam_sol = np.linalg.eigvalsh(c22).max()
        err = abs(lam_emp - lam_sol) / max(abs(lam_sol), np.finfo(float).tiny)
        passed = err <= args.sim_tol
        ok &= passed
        print(
            f"simulation check: leading eigenvalue {lam_emp:.6e} vs {lam_sol:.6e} "
            f"({used} samples), discrepancy {err:.3e} "
            f"{'<=' if passed else '>'} {args.sim_tol:.3e} "
            f"[{'pass' if passed else 'FAIL'}]"
        )
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_analyze(args):
    sol = mmio.load_solution(args.solution)
    eof_set = eofs(sol, args.k)
    os.makedirs(args.out, exist_ok=True)
    write_eof_csv(os.path.join(args.out, "eofs.csv"), eof_set)
    write_eigenvalue_csv(os.path.join(args.out, "eigenvalues.csv"), sol)
    _write_manifest(
        args.out,
        "analyze",
        {"solution": args.solution},
        {"k": args.k},
        ["eofs.csv", "eigenvalues.csv", "manifest.json"],
    )
    shares = " ".join(f"{w:.4f}" for w in eof_set.weights)
    print(f"leading {args.k} weighted eigenvalues: {shares}")
    return EXIT_OK


def main(argv=None):
    if argv is None:
        # a process of its own: the import-time heap lives until exit
        gc.freeze()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "validate": _cmd_validate,
        "analyze": _cmd_analyze,
    }
    try:
        return handlers[args.command](args)
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_SCALE
    except (RailsError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError: a numerical breakdown is not
        # a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
