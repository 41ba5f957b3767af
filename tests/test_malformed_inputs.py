"""``rails solve`` on a corpus of malformed A.mtx files, and ``rails
validate`` and ``rails analyze`` on a corpus of malformed V.mtx and T.mtx
files.

Each A.mtx stands next to the M.mtx and B.mtx of a valid 40 + 10-row DAE
problem. A malformed file exits 2 with a one-line error, and so does a
compressed A.mtx.gz. A pattern or integer file is a valid input, read with
every value 1; its pencil is unstable, so it exits 4. Each V.mtx or T.mtx replaces one file of that
problem's solution and exits 2 with a one-line error. No case may raise out
of ``main``.
"""

import gzip
import shutil

import numpy as np
import pytest

from rails import mmio
from rails.cli import main

_BANNER = "%%MatrixMarket matrix coordinate {} general\n"
_REAL = _BANNER.format("real")


def _identity(field, value):
    return _BANNER.format(field) + "50 50 50\n" + "".join(
        f"{i} {i}{value}\n" for i in range(1, 51))


# Edits of the valid A.mtx: they take its header lines (banner, comments
# and size line) and its entry lines, and return the new file's lines.
def _truncated(head, entries):
    return head + entries[:len(entries) // 2]


def _extra_entry(head, entries):
    return head + entries + ["1 1 -1.0\n"]


def _duplicate_line(head, entries):
    return head + entries[:1] + entries


def _first_entry(text):
    def edit(head, entries):
        return head + [text] + entries[1:]
    return edit


# name -> (A.mtx text, or an edit of the valid A.mtx's lines; exit code)
_CORPUS = {
    "truncated": (_truncated, 2),
    "too-many-entries": (_extra_entry, 2),
    "duplicate-line": (_duplicate_line, 2),
    "nan": (_first_entry("1 1 nan\n"), 2),
    "out-of-range-index": (_first_entry("51 1 -1.0\n"), 2),
    "zero-index": (_first_entry("0 1 -1.0\n"), 2),
    "complex": (_BANNER.format("complex") + "50 50 1\n1 1 -1.0 0.5\n", 2),
    "missing-banner": ("50 50 1\n1 1 -1.0\n", 2),
    "empty": ("", 2),
    "garbage": ("this is not a Matrix Market file\n\x01\x02\x03\n", 2),
    "pattern": (_identity("pattern", ""), 4),
    "integer": (_identity("integer", " 1"), 4),
}


@pytest.fixture(scope="module")
def valid_problem(tmp_path_factory):
    problem = tmp_path_factory.mktemp("valid") / "problem"
    assert main(["generate", "--kind", "dae", "--n-diff", "40", "--n-alg", "10",
                 "--seed", "2", "--out", str(problem)]) == 0
    return problem


def _solve_exits_with_one_line(a, expected, valid_problem, tmp_path, capsys):
    capsys.readouterr()
    code = main(["solve", "--a", str(a), "--m", str(valid_problem / "M.mtx"),
                 "--b", str(valid_problem / "B.mtx"), "--out", str(tmp_path / "solution")])
    err = capsys.readouterr().err
    assert code == expected, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "solution").exists()
    return err


@pytest.mark.parametrize("case", list(_CORPUS))
def test_malformed_a_exits_with_one_line(case, valid_problem, tmp_path, capsys):
    content, expected = _CORPUS[case]
    if callable(content):
        lines = (valid_problem / "A.mtx").read_text().splitlines(keepends=True)
        start = 1 + next(i for i, line in enumerate(lines) if not line.startswith("%"))
        assert lines[0] == _REAL and len(lines) > start + 1
        content = "".join(content(lines[:start], lines[start:]))
    a = tmp_path / "A.mtx"
    a.write_text(content)
    _solve_exits_with_one_line(a, expected, valid_problem, tmp_path, capsys)


def test_compressed_a_exits_with_one_line(valid_problem, tmp_path, capsys):
    # about 80 bytes that declare 900000000 entries: the byte size of a
    # compressed file says nothing of its entries, so it is refused unread
    a = tmp_path / "A.mtx.gz"
    a.write_bytes(gzip.compress((_REAL + "50 50 900000000\n1 1 -1.0\n").encode()))
    err = _solve_exits_with_one_line(a, 2, valid_problem, tmp_path, capsys)
    assert str(a) in err and "decompress" in err


def _array(a, field="real"):
    """Matrix Market array text of ``a``; a complex file gets imaginary
    parts 0.5."""
    imag = " 0.5" if field == "complex" else ""
    return (f"%%MatrixMarket matrix array {field} general\n{a.shape[0]} {a.shape[1]}\n"
            + "".join(f"{float(x)!r}{imag}\n" for x in a.T.ravel()))


def _with_nan(a):
    a = a.copy()
    a[0, 0] = np.nan
    return a


def _half_lines(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:len(lines) // 2])


# name -> the files that replace the valid solution's, from its V and T
_SOLUTION_CORPUS = {
    "nan": lambda v, t: {"V.mtx": _array(_with_nan(v))},
    "complex": lambda v, t: {"V.mtx": _array(v, "complex")},
    "truncated": lambda v, t: {"V.mtx": _half_lines(_array(v))},
    "t-not-square": lambda v, t: {"T.mtx": _array(t[:, :-1])},
    "t-not-symmetric": lambda v, t: {"T.mtx": _array(t + np.triu(np.ones_like(t), 1))},
    "rank-mismatch": lambda v, t: {"T.mtx": _array(t[:-1, :-1])},
}


@pytest.fixture(scope="module")
def valid_solution(valid_problem):
    solution = valid_problem.parent / "solution"
    assert main(["solve", "--a", str(valid_problem / "A.mtx"),
                 "--m", str(valid_problem / "M.mtx"), "--b", str(valid_problem / "B.mtx"),
                 "--tol", "1e-8", "--out", str(solution)]) == 0
    return solution


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("case", list(_SOLUTION_CORPUS))
def test_malformed_solution_exits_with_one_line(case, command, valid_problem,
                                                valid_solution, tmp_path, capsys):
    sol = mmio.load_solution(valid_solution)
    assert sol.rank >= 2
    solution = tmp_path / "solution"
    shutil.copytree(valid_solution, solution)
    for name, text in _SOLUTION_CORPUS[case](sol.v, sol.t).items():
        (solution / name).write_text(text)
    if command == "validate":
        argv = ["validate", "--problem", str(valid_problem), "--solution", str(solution)]
    else:
        argv = ["analyze", "--solution", str(solution), "--out", str(tmp_path / "eofs")]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "eofs").exists()
