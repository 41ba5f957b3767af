"""Spans around the public functions of ``rails``, recorded from outside.

``Tracer.install`` replaces each function at the name its caller looks it
up by (``solver`` binds its helpers at import, so those are patched on
``rails.solver``), and ``uninstall`` restores the originals. While
installed, every call records a span: name, start, end, parent span and
solve id, plus a few counts read off the arguments or the result. Spans
stay in memory until the run ends.

A span's self time is its duration minus that of its child spans (calls
are nested and run on one thread, so children never overlap;
``nesting_errors`` checks it). Self times are summed per layer metric,
named after the ``src/rails`` module.
"""

import functools
import os
import time

# span name -> per-layer metric its self time adds to
SELF_METRIC = {
    "solver.solve": "solver.self_s",
    "solver.solve_dae": "solver.self_s",
    "solver.apply_a": "solver.apply_a_s",
    "solver.apply_m": "solver.apply_m_s",
    "solver.apply_a_inverse": "solver.apply_a_inverse_s",
    "dense_lyap.solve_projected": "dense_lyap.solve_projected_s",
    "matrices.lanczos_topk": "matrices.lanczos_topk_s",
    "matrices.orthonormalize": "matrices.orthonormalize_s",
    "dae.partition": "dae.partition_s",
    "dae.schur_apply": "dae.schur_apply_s",
    "dae.recover_full_covariance": "dae.recover_full_covariance_s",
    "mmio.load_sparse": "mmio.load_s",
    "mmio.load_dense": "mmio.load_s",
    "mmio.save_sparse": "mmio.save_s",
    "mmio.save_dense": "mmio.save_s",
    "mmio.save_solution": "mmio.save_s",
    "cli.main": "cli.self_s",
}


def _columns(x):
    shape = getattr(x, "shape", ())
    return 1 if len(shape) < 2 else int(shape[1])


def _note_projected(args, kwargs, result):
    return {"d": int(args[0].a.shape[0])}


def _note_lanczos(args, kwargs, result):
    return {"steps": int(result.steps), "converged": bool(result.converged)}


def _note_orthonormalize(args, kwargs, result):
    return {"candidates": _columns(args[0]), "kept": int(result[1])}


def _note_schur(args, kwargs, result):
    return {"cols": _columns(args[1])}


def _note_read(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _note_written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


class Tracer:
    def __init__(self):
        self.spans = []
        self.solve_id = None
        self._stack = []
        self._originals = []

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "solve": self.solve_id,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span["info"] = note(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, note=None):
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, note))

    def install(self, with_cli=False):
        import rails.dae
        import rails.solver

        s = rails.solver
        self._patch(s, "solve", "solver.solve")
        self._patch(s, "solve_dae", "solver.solve_dae")
        self._patch(s.LyapunovProblem, "apply_a", "solver.apply_a")
        self._patch(s.LyapunovProblem, "apply_m", "solver.apply_m")
        self._patch(s.LyapunovProblem, "apply_a_inverse", "solver.apply_a_inverse")
        self._patch(s, "solve_projected", "dense_lyap.solve_projected", _note_projected)
        self._patch(s, "lanczos_topk", "matrices.lanczos_topk", _note_lanczos)
        self._patch(s, "orthonormalize", "matrices.orthonormalize", _note_orthonormalize)
        self._patch(s, "partition", "dae.partition")
        self._patch(s, "recover_full_covariance", "dae.recover_full_covariance")
        self._patch(rails.dae, "schur_apply", "dae.schur_apply", _note_schur)
        if with_cli:
            import rails.cli
            import rails.mmio

            m = rails.mmio
            self._patch(m, "load_sparse", "mmio.load_sparse", _note_read)
            self._patch(m, "load_dense", "mmio.load_dense", _note_read)
            self._patch(m, "save_sparse", "mmio.save_sparse", _note_written)
            self._patch(m, "save_dense", "mmio.save_dense", _note_written)
            self._patch(m, "save_solution", "mmio.save_solution")
            self._patch(rails.cli, "main", "cli.main")

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def nesting_errors(spans, solve):
    """Why the spans of solve ``solve`` do not nest under one root span.

    Empty when each lies inside its parent, siblings do not overlap and
    there is one root: only then do the self times add up to the root
    span's duration.
    """
    own = [s for s in spans if s["solve"] == solve]
    roots = sum(s["parent"] is None for s in own)
    errors = [] if roots == 1 else [f"{roots} root spans, not 1"]
    last_end = {}  # parent index -> end of its latest child
    for s in own:  # spans are recorded in order of their start
        p = s["parent"]
        if p is None:
            continue
        parent = spans[p]
        if parent["solve"] != solve or not (
            parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        ):
            errors.append(f"{s['name']} lies outside its parent {parent['name']}")
        if s["start"] < last_end.get(p, s["start"]):
            errors.append(f"{s['name']} overlaps a sibling under {parent['name']}")
        last_end[p] = s["end"]
    return errors


def layer_metrics(spans, solve):
    """Per-layer metrics of solve ``solve`` from the recorded ``spans``.

    Returns (metrics, covered_s): ``covered_s`` is the sum of the solve's
    self times, which equals the root span's duration when
    ``nesting_errors`` finds nothing.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = {name: 0.0 for name in set(SELF_METRIC.values())}
    counts = {
        "dense_lyap.solve_projected_calls": 0,
        "dense_lyap.d3_sum": 0,
        "matrices.lanczos_topk_calls": 0,
        "matrices.lanczos_topk_steps": 0,
        "matrices.lanczos_topk_unconverged": 0,
        "dae.schur_apply_cols": 0,
        "mmio.bytes_read": 0,
        "mmio.bytes_written": 0,
    }
    candidates = kept = 0
    covered = 0.0
    for s, c in zip(spans, child):
        if s["solve"] != solve:
            continue
        self_s = s["end"] - s["start"] - c
        covered += self_s
        out[SELF_METRIC[s["name"]]] += self_s
        info = s.get("info", {})
        name = s["name"]
        if name == "dense_lyap.solve_projected":
            counts["dense_lyap.solve_projected_calls"] += 1
            counts["dense_lyap.d3_sum"] += info["d"] ** 3
        elif name == "matrices.lanczos_topk":
            counts["matrices.lanczos_topk_calls"] += 1
            counts["matrices.lanczos_topk_steps"] += info["steps"]
            counts["matrices.lanczos_topk_unconverged"] += not info["converged"]
        elif name == "matrices.orthonormalize":
            candidates += info["candidates"]
            kept += info["kept"]
        elif name == "dae.schur_apply":
            counts["dae.schur_apply_cols"] += info["cols"]
        else:
            counts["mmio.bytes_read"] += info.get("bytes_read", 0)
            counts["mmio.bytes_written"] += info.get("bytes_written", 0)
    out.update(counts)
    out["matrices.orthonormalize_kept_ratio"] = kept / candidates if candidates else 0.0
    return out, covered
