import ctypes
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse

import rails.dae
import rails.solver
from rails import cli, errors, mmio, testproblems
from rails.cli import main


def _run(*argv):
    return main(list(argv))


def _generate_dae(tmp_path, n_diff=20, n_alg=6, pattern="uncorrelated",
                  seed=3):
    problem = tmp_path / "problem"
    code = _run(
        "generate", "--kind", "dae", "--n-diff", str(n_diff),
        "--n-alg", str(n_alg), "--pattern", pattern, "--sigma", "0.5",
        "--seed", str(seed), "--out", str(problem),
    )
    assert code == 0
    return problem


def _has_mallinfo2():
    try:
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except (OSError, TypeError):
        return False


class TestGenerate:
    def test_diffusion_outputs(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = _run("generate", "--kind", "diffusion", "--n", "12",
                    "--out", str(out))
        assert code == 0
        for name in ("A.mtx", "M.mtx", "B.mtx", "manifest.json"):
            assert (out / name).exists()
        a = mmio.load_sparse(out / "A.mtx")
        assert a.shape == (12, 12)
        b = mmio.load_dense(out / "B.mtx")
        assert b.shape == (12, 12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["options"]["pattern"] == "uncorrelated_columns"
        assert "wrote diffusion problem" in capsys.readouterr().out

    def test_dae_row_sum(self, tmp_path):
        problem = _generate_dae(tmp_path, pattern="row-sum")
        b = mmio.load_dense(problem / "B.mtx")
        assert b.shape[1] == 1
        m = mmio.load_sparse(problem / "M.mtx")
        diag = m.diagonal()
        assert (diag[:6] == 0).all()
        assert (diag[6:] == 1).all()

    def test_missing_size_is_usage_error(self, tmp_path):
        code = _run("generate", "--kind", "diffusion", "--out",
                    str(tmp_path / "x"))
        assert code == 2

    @pytest.mark.parametrize("sizes", [[], ["--n-diff", "5"], ["--n-alg", "2"]])
    def test_dae_without_sizes_is_usage_error(self, tmp_path, capsys, sizes):
        out = tmp_path / "x"
        assert _run("generate", "--kind", "dae", *sizes, "--out", str(out)) == 2
        assert "--n-diff and --n-alg" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sigma_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = _run("generate", "--kind", "diffusion", "--n", "10",
                    "--sigma", "nan", "--out", str(out))
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_pattern_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _run("generate", "--kind", "diffusion", "--n", "5",
                 "--pattern", "checkerboard", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2


class TestSolve:
    def test_pipeline_and_validation(self, tmp_path, capsys):
        problem = _generate_dae(tmp_path)
        solution = tmp_path / "solution"
        code = _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "1e-9", "--seed", "1", "--out", str(solution),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        report = json.loads((solution / "report.json").read_text())
        assert report["converged"] is True
        assert report["termination_reason"] == "converged"
        assert report["mvps"] > 0

        code = _run(
            "validate", "--problem", str(problem), "--solution",
            str(solution), "--check-tol", "1e-6",
        )
        assert code == 0
        assert "[pass]" in capsys.readouterr().out

        analysis = tmp_path / "analysis"
        code = _run("analyze", "--solution", str(solution), "-k", "3",
                    "--out", str(analysis))
        assert code == 0
        assert (analysis / "eofs.csv").exists()
        assert (analysis / "eigenvalues.csv").exists()
        lam = np.loadtxt(analysis / "eofs.csv", delimiter=",", max_rows=1)
        assert lam.shape == (3,)

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        problem = _generate_dae(tmp_path)
        solution = tmp_path / "solution"
        code = _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "1e-13", "--max-iters", "1", "--out", str(solution),
        )
        assert code == 1
        assert "NOT converged" in capsys.readouterr().out
        # Artifacts are still written for inspection.
        assert (solution / "V.mtx").exists()
        report = json.loads((solution / "report.json").read_text())
        assert report["converged"] is False

    def test_space_cap_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rails.solver, "DIMENSION_CAP", 10)
        problem = tmp_path / "problem"
        assert _run("generate", "--kind", "diffusion", "--n", "200",
                    "--pattern", "row-sum", "--out", str(problem)) == 0
        solution = tmp_path / "solution"
        code = _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "1e-12", "--out", str(solution),
        )
        assert code == 1
        report = json.loads((solution / "report.json").read_text())
        assert report["termination_reason"] == "space_cap"
        assert 0 < report["final_rank"] <= report["max_space_dim"] <= 10

    def test_initial_space_past_the_cap_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rails.solver, "DIMENSION_CAP", 10)
        a, m, _ = testproblems.gen_diffusion(200)
        mmio.save_sparse(tmp_path / "A.mtx", a)
        mmio.save_sparse(tmp_path / "M.mtx", m)
        mmio.save_dense(tmp_path / "B.mtx", np.eye(200)[:, :11])
        solution = tmp_path / "solution"
        code = _run(
            "solve", "--a", str(tmp_path / "A.mtx"), "--m",
            str(tmp_path / "M.mtx"), "--b", str(tmp_path / "B.mtx"),
            "--initial-space", "b", "--out", str(solution),
        )
        assert code == 1
        report = json.loads((solution / "report.json").read_text())
        assert report["termination_reason"] == "space_cap"
        assert report["final_rank"] == report["max_space_dim"] == 0

    def test_missing_input_is_io_error(self, tmp_path):
        code = _run(
            "solve", "--a", str(tmp_path / "no.mtx"), "--m",
            str(tmp_path / "no.mtx"), "--b", str(tmp_path / "no.mtx"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 3

    def test_forcing_on_constraint_is_structural_error(self, tmp_path):
        a = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        m = sparse.csr_matrix(np.diag([0.0, 1.0]))
        b = np.array([[1.0], [1.0]])
        mmio.save_sparse(tmp_path / "A.mtx", a)
        mmio.save_sparse(tmp_path / "M.mtx", m)
        mmio.save_dense(tmp_path / "B.mtx", b)
        code = _run(
            "solve", "--a", str(tmp_path / "A.mtx"), "--m",
            str(tmp_path / "M.mtx"), "--b", str(tmp_path / "B.mtx"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 4

    @pytest.mark.parametrize("scale, code", [("1", 0), ("1e140", 0), ("1e155", 4)])
    def test_scale_out_of_double_range_is_structural_error(self, tmp_path, capsys,
                                                           scale, code):
        # at scale 1e155 the squared norms of A's images overflow: dropped
        # as dependent, they would make the solve report a false convergence
        problem = tmp_path / "problem"
        assert _run("generate", "--kind", "diffusion", "--n", "40", "--scale", scale,
                    "--pattern", "row-sum", "--out", str(problem)) == 0
        capsys.readouterr()
        assert _run("solve", "--a", str(problem / "A.mtx"), "--m", str(problem / "M.mtx"),
                    "--b", str(problem / "B.mtx"), "--tol", "1e-6",
                    "--out", str(tmp_path / "solution")) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.endswith("rescale the problem\n")
            assert not (tmp_path / "solution").exists()
        else:
            assert "rank=8" in captured.out

    @pytest.mark.parametrize("name", ["A", "B"])
    def test_complex_input_is_usage_error(self, tmp_path, capsys, name):
        # the imaginary part used to be dropped with only a ComplexWarning
        problem = tmp_path / "problem"
        assert _run("generate", "--kind", "diffusion", "--n", "30",
                    "--out", str(problem)) == 0
        path = problem / f"{name}.mtx"
        data = scipy.io.mmread(path)
        scipy.io.mmwrite(path, data * (1.0 + 0.5j))
        solution = tmp_path / "solution"
        code = _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--out", str(solution),
        )
        assert code == 2
        assert "must be real" in capsys.readouterr().err
        assert not solution.exists()

    def test_rejected_lapack_argument_is_structural_error(self, tmp_path,
                                                          monkeypatch, capsys):
        def dgeqrf(a, lwork=None, overwrite_a=False):
            return a, np.zeros(1), np.ones(1), -1

        monkeypatch.setattr(rails.dae, "dgeqrf", dgeqrf)
        problem = _generate_dae(tmp_path)
        code = _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--out", str(tmp_path / "solution"),
        )
        assert code == 4
        assert "dgeqrf rejected argument 1" in capsys.readouterr().err

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 26.8 GiB", "error: Unable to allocate 26.8 GiB"),
        ("", "error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys,
                                     message, shown):
        def solve_dae(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(rails.solver, "solve_dae", solve_dae)
        problem = _generate_dae(tmp_path)
        capsys.readouterr()
        code = _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--out", str(tmp_path / "solution"),
        )
        assert code == cli.EXIT_MEMORY == 6
        assert capsys.readouterr().err == shown + "\n"

    def test_inverse_variant_defaults_to_inverse_start(self, tmp_path):
        problem = _generate_dae(tmp_path)
        solution = tmp_path / "solution"
        code = _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--variant", "inverse", "--tol", "1e-9", "--out", str(solution),
        )
        assert code == 0
        manifest = json.loads((solution / "manifest.json").read_text())
        assert manifest["options"]["initial_space"] == "inverse_applied_to_b"
        report = json.loads((solution / "report.json").read_text())
        assert report["imvps"] > 0

    def test_infinite_tol_is_usage_error(self, tmp_path, capsys):
        problem = _generate_dae(tmp_path)
        code = _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "inf", "--out", str(tmp_path / "solution"),
        )
        assert code == 2
        assert "tol must be positive and finite" in capsys.readouterr().err

    def test_no_options_records_solver_defaults(self, tmp_path):
        problem = _generate_dae(tmp_path)
        solution = tmp_path / "solution"
        assert _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--out", str(solution),
        ) == 0
        manifest = json.loads((solution / "manifest.json").read_text())
        opts = rails.solver.SolverOptions()
        assert manifest["options"] == {
            "expand_m": opts.expand_m,
            "max_iters": opts.max_iters,
            "tol": opts.tol,
            "restart_period": opts.restart_period,
            "restart_tol": opts.restart_tol,
            "restart_tol_growth": opts.restart_tol_growth,
            "variant": opts.variant,
            "initial_space": opts.initial_space,
            "seed": opts.rng_seed,
        }

    def test_reruns_byte_identical(self, tmp_path):
        problem = _generate_dae(tmp_path)
        outs = []
        for name in ("s1", "s2"):
            solution = tmp_path / name
            assert _run(
                "solve", "--a", str(problem / "A.mtx"), "--m",
                str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
                "--tol", "1e-8", "--seed", "7", "--out", str(solution),
            ) == 0
            outs.append(solution)
        for name in ("V.mtx", "T.mtx", "report.json", "manifest.json"):
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, name

    def test_solve_under_a_profiler(self, tmp_path):
        # cProfile, coverage and pdb install a profile or trace hook; with
        # one active, the basis buffer must still grow past its first 16
        # columns.
        problem = _generate_dae(tmp_path, n_diff=60, n_alg=15,
                                pattern="row-sum", seed=2)
        solution = tmp_path / "solution"
        previous = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            code = _run(
                "solve", "--a", str(problem / "A.mtx"), "--m",
                str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
                "--tol", "1e-10", "--out", str(solution),
            )
        finally:
            sys.setprofile(previous)
        assert code == 0
        report = json.loads((solution / "report.json").read_text())
        assert report["max_space_dim"] > 16
        assert (solution / "V.mtx").exists()


def _alter_b(change):
    def alter(problem, algebraic):
        b = mmio.load_dense(problem / "B.mtx")
        mmio.save_dense(problem / "B.mtx", change(b, algebraic))
    return alter


def _force_a_constraint(b, algebraic):
    b = b.copy()
    b[algebraic[0], 0] = 1.0
    return b


def _shrink_mass(problem, algebraic):
    m = mmio.load_sparse(problem / "M.mtx")
    mmio.save_sparse(problem / "M.mtx", m[:-1, :-1])


# One altered input file of a solved problem, and the exit code that both
# rails solve and rails validate give for it.
_MALFORMED_PROBLEMS = {
    "b-3-rows-short": (_alter_b(lambda b, alg: b[:-3]), 2),
    "b-3-rows-long": (_alter_b(lambda b, alg: np.vstack([b, np.zeros((3, b.shape[1]))])), 2),
    "b-on-algebraic-row": (_alter_b(_force_a_constraint), 4),
    "m-one-short": (_shrink_mass, 2),
}


class TestValidate:
    @pytest.mark.parametrize("case", list(_MALFORMED_PROBLEMS))
    def test_malformed_problem_exits_as_solve_does(self, tmp_path, capsys, case):
        problem = _generate_dae(tmp_path, n_diff=20, n_alg=5, seed=1)
        solution = tmp_path / "solution"
        paths = ("--a", str(problem / "A.mtx"), "--m", str(problem / "M.mtx"),
                 "--b", str(problem / "B.mtx"))
        assert _run("solve", *paths, "--tol", "1e-10", "--out", str(solution)) == 0
        alter, expected = _MALFORMED_PROBLEMS[case]
        m = mmio.load_sparse(problem / "M.mtx")
        alter(problem, np.flatnonzero(abs(m).sum(axis=1).A1 == 0.0))
        capsys.readouterr()
        code = _run("validate", "--problem", str(problem), "--solution", str(solution))
        assert code == expected
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert _run("solve", *paths, "--out", str(tmp_path / "again")) == expected

    @pytest.mark.parametrize("options", [
        ("--steps", "10", "--burn-in", "100"),
        ("--dt", "0"),
        ("--seed", "-1"),
    ], ids=["burn-in-past-steps", "zero-dt", "negative-seed"])
    def test_simulation_options_are_refused_before_reading(self, tmp_path, capsys,
                                                          options):
        missing = tmp_path / "absent"
        code = _run("validate", "--problem", str(missing / "problem"),
                    "--solution", str(missing / "solution"), "--simulate", *options)
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must" in err and "absent" not in err

    def test_bad_solution_fails(self, tmp_path, capsys):
        problem = _generate_dae(tmp_path)
        solution = tmp_path / "solution"
        assert _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "1e-9", "--out", str(solution),
        ) == 0
        # Corrupt the core so the oracle disagrees.
        sol = mmio.load_solution(solution)
        mmio.save_dense(solution / "T.mtx", 3.0 * sol.t)
        code = _run(
            "validate", "--problem", str(problem), "--solution",
            str(solution), "--check-tol", "1e-6",
        )
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("flag", ["--check-tol", "--sim-tol"])
    def test_tolerance_outside_range_is_usage_error(self, tmp_path, capsys,
                                                    flag, value):
        problem = _generate_dae(tmp_path)
        solution = tmp_path / "solution"
        assert _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "1e-10", "--out", str(solution),
        ) == 0
        capsys.readouterr()
        code = _run("validate", "--problem", str(problem), "--solution",
                    str(solution), f"{flag}={value}")
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag} must be in [0, inf)" in err

    def test_oracle_cap_exit_code(self, tmp_path):
        out = tmp_path / "p"
        assert _run("generate", "--kind", "diffusion", "--n", "70",
                    "--out", str(out)) == 0
        solution = tmp_path / "s"
        assert _run(
            "solve", "--a", str(out / "A.mtx"), "--m", str(out / "M.mtx"),
            "--b", str(out / "B.mtx"), "--tol", "1e-8",
            "--out", str(solution),
        ) == 0
        code = _run("validate", "--problem", str(out), "--solution",
                    str(solution))
        assert code == 5

    def test_simulation_route(self, tmp_path, capsys):
        problem = _generate_dae(tmp_path, n_diff=4, n_alg=2, seed=0)
        solution = tmp_path / "solution"
        assert _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "1e-10", "--out", str(solution),
        ) == 0
        code = _run(
            "validate", "--problem", str(problem), "--solution",
            str(solution), "--simulate", "--steps", "400000",
            "--dt", "1e-3", "--sim-tol", "0.5",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulation check" in out

    def test_nothing_to_check_is_usage_error(self, tmp_path):
        problem = _generate_dae(tmp_path)
        solution = tmp_path / "solution"
        assert _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "1e-8", "--out", str(solution),
        ) == 0
        code = _run("validate", "--problem", str(problem), "--solution",
                    str(solution), "--oracle", "none")
        assert code == 2

    def test_nothing_to_check_is_refused_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        code = _run("validate", "--problem", str(missing / "problem"),
                    "--solution", str(missing / "solution"), "--oracle", "none")
        assert code == 2
        assert "nothing to validate" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path):
        problem = _generate_dae(tmp_path)
        other = tmp_path / "other"
        assert _run("generate", "--kind", "diffusion", "--n", "9",
                    "--out", str(other)) == 0
        solution = tmp_path / "solution"
        assert _run(
            "solve", "--a", str(other / "A.mtx"), "--m",
            str(other / "M.mtx"), "--b", str(other / "B.mtx"),
            "--tol", "1e-8", "--out", str(solution),
        ) == 0
        code = _run("validate", "--problem", str(problem), "--solution",
                    str(solution))
        assert code == 2


class TestAnalyze:
    def test_k_too_large_is_usage_error(self, tmp_path):
        problem = _generate_dae(tmp_path)
        solution = tmp_path / "solution"
        assert _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--tol", "1e-8", "--out", str(solution),
        ) == 0
        code = _run("analyze", "--solution", str(solution), "-k", "4000",
                    "--out", str(tmp_path / "an"))
        assert code == 2

    def test_missing_solution_is_io_error(self, tmp_path):
        code = _run("analyze", "--solution", str(tmp_path / "ghost"),
                    "--out", str(tmp_path / "an"))
        assert code == 3


_RAILS_ERRORS = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.RailsError)),
    key=lambda c: c.__name__,
)


# Two A.mtx files of three lines whose headers declare gigabytes: a
# 2000000000-row matrix (it cannot match the 50-row M and B) and a 50 x 50 one with
# 900000000 entries (a truncated file).
_HUGE_HEADERS = {
    "shape": ("2000000000 2000000000 1", "M must match A in size"),
    "entries": ("50 50 900000000", "Truncated file"),
}


class TestHeaders:
    """The headers of A, M and B are checked before any data is read.

    Each command runs in a child process under a 2 GiB address-space
    limit, so a reader that allocates what a header declares fails the
    test (exit 6) without taking the machine's memory.
    """

    @pytest.mark.parametrize("command", ["solve", "validate"])
    @pytest.mark.parametrize("case", sorted(_HUGE_HEADERS))
    def test_declared_size_is_refused_first(self, case, command, tmp_path):
        problem = _generate_dae(tmp_path, n_diff=40, n_alg=10)
        size, message = _HUGE_HEADERS[case]
        (problem / "A.mtx").write_text(
            f"%%MatrixMarket matrix coordinate real general\n{size}\n1 1 -1.0\n"
        )
        if command == "solve":
            argv = ["solve", "--a", str(problem / "A.mtx"), "--m", str(problem / "M.mtx"),
                    "--b", str(problem / "B.mtx"), "--out", str(tmp_path / "solution")]
        else:
            argv = ["validate", "--problem", str(problem), "--solution", str(tmp_path)]
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from rails.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, RAILS_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr


    @pytest.mark.parametrize("command, files, message", [
        ("validate", {"V.mtx": "2000000000 1"},
         "solution dimension 2000000000 does not match problem size 50"),
        ("validate", {"T.mtx": "2000000000 2000000000"}, "core is 2000000000 x 2000000000"),
        ("analyze", {"V.mtx": "2000000000 1", "T.mtx": "1 1"},
         "declares 2000000000 entries"),
    ], ids=["basis-rows", "core-shape", "analyze-basis-size"])
    def test_solution_header_is_checked_first(self, command, files, message, tmp_path):
        problem = _generate_dae(tmp_path, n_diff=40, n_alg=10)
        solution = tmp_path / "solution"
        assert _run("solve", "--a", str(problem / "A.mtx"), "--m", str(problem / "M.mtx"),
                    "--b", str(problem / "B.mtx"), "--tol", "1e-8",
                    "--out", str(solution)) == 0
        for name, text in files.items():
            (solution / name).write_text(
                f"%%MatrixMarket matrix array real general\n{text}\n1.0\n")
        if command == "validate":
            argv = ["validate", "--problem", str(problem), "--solution", str(solution)]
        else:
            argv = ["analyze", "--solution", str(solution), "--out", str(tmp_path / "eofs")]
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from rails.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, RAILS_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr


class TestExitCodes:
    @pytest.mark.parametrize("error", _RAILS_ERRORS + [np.linalg.LinAlgError],
                             ids=lambda c: c.__name__)
    def test_rails_errors_map_to_their_exit_code(self, error, tmp_path,
                                                 monkeypatch, capsys):
        exc = error(3, 1e13) if error is errors.SimulationBlowupError else error("boom")

        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_analyze", fail)
        code = _run("analyze", "--solution", str(tmp_path), "--out", str(tmp_path))
        assert code == (5 if error is errors.OracleSizeError else 4)
        assert capsys.readouterr().err.startswith("error: ")


class TestEnvironment:
    def test_thread_cap_sets_blas_vars(self, monkeypatch):
        from rails import _apply_thread_cap

        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("RAILS_THREADS", "2")
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["MKL_NUM_THREADS"] == "2"

    def test_existing_setting_wins(self, monkeypatch):
        from rails import _apply_thread_cap

        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.setenv("RAILS_THREADS", "2")
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "8"


    def test_cap_precedes_numpy_import(self):
        # BLAS reads its thread count when numpy loads, so the cap must
        # already be in the environment at that moment.
        probe = (
            "import os, sys\n"
            "class Probe:\n"
            "    seen = None\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and Probe.seen is None:\n"
            "            Probe.seen = os.environ.get('OPENBLAS_NUM_THREADS', 'unset')\n"
            "sys.meta_path.insert(0, Probe())\n"
            "import rails.cli\n"
            "print(Probe.seen)\n"
        )
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        env["RAILS_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    @pytest.mark.skipif(not _has_mallinfo2(), reason="needs glibc's mallinfo2")
    def test_argument_list_leaves_the_allocator_alone(self, tmp_path):
        # after main with an argument list, glibc's default serves a second
        # 8 MB block from the heap once the first, mapped on its own, is freed
        out = str(tmp_path / "problem")
        probe = (
            "import ctypes\n"
            "import numpy as np\n"
            "from rails import cli\n"
            "class Info(ctypes.Structure):\n"
            "    _fields_ = [(f, ctypes.c_size_t) for f in (\n"
            "        'arena ordblks smblks hblks hblkhd usmblks fsmblks '\n"
            "        'uordblks fordblks keepcost').split()]\n"
            "mallinfo2 = ctypes.CDLL(None).mallinfo2\n"
            "mallinfo2.restype = Info\n"
            f"assert cli.main(['generate', '--kind', 'diffusion', '--n', '5', "
            f"'--out', {out!r}]) == 0\n"
            "first = np.ones(1 << 20)\n"
            "del first\n"
            "mapped = mallinfo2().hblkhd\n"
            "second = np.ones(1 << 20)\n"
            "print(mallinfo2().hblkhd - mapped >= second.nbytes)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestGarbageCollector:
    def test_argument_list_leaves_the_collector_alone(self, tmp_path):
        frozen = gc.get_freeze_count()
        problem = _generate_dae(tmp_path)
        assert _run(
            "solve", "--a", str(problem / "A.mtx"), "--m",
            str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--out", str(tmp_path / "solution"),
        ) == 0
        assert gc.get_freeze_count() == frozen

    def test_program_freezes_its_import_heap(self, tmp_path):
        problem = _generate_dae(tmp_path)
        argv = [
            "rails", "solve", "--a", str(problem / "A.mtx"),
            "--m", str(problem / "M.mtx"), "--b", str(problem / "B.mtx"),
            "--out", str(tmp_path / "solution"),
        ]
        probe = (
            "import gc, sys\n"
            "from rails.cli import main\n"
            f"sys.argv = {argv!r}\n"
            "code = main()\n"
            "print(gc.get_freeze_count())\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) > 0


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rails.cli", "--help"],
            capture_output=True, text=True,
        )
        # No __main__ guard is required for the module path; fall back to
        # the installed script if running the module fails.
        if proc.returncode != 0:
            proc = subprocess.run(["rails", "--help"], capture_output=True,
                                  text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout
        assert "solve" in proc.stdout
