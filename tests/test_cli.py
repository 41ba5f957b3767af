import ctypes
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sparse

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


class TestValidate:
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
    def test_large_arrays_keep_their_own_mappings(self):
        # By default glibc serves the second block from the heap once the
        # first, mapped on its own, is freed. A fresh process, so that no
        # free heap block of that size is left from earlier work.
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
            "cli._fix_mmap_threshold()\n"
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
        assert proc.stdout.strip() == "True"


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
