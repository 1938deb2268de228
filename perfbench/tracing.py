"""Spans around the public functions of each graphpde module, taken from outside.

The tracer patches functions in place and restores them on ``uninstall``.
Three things decide where a patch must go:

* ``import graphpde.discretize`` yields the *function*, because the package
  namespace shadows the submodule, so modules are taken from ``sys.modules``;
* names rebound by ``from ... import`` (``mass`` and ``make_context`` in
  ``stationary``, ``nls_jacobian``/``nls_residual``/``mass``/``inner_product``
  in ``continuation``, the functionals imported by ``evolution``, every name
  re-exported by the package) are patched wherever the same object is bound;
* ``linalg.solve`` builds a ``Factorization`` itself, so the class methods
  ``Factorization.__init__`` and ``Factorization.solve`` are wrapped.

A target the library no longer defines is skipped, and the metrics built
from it are left out of the report instead of failing the run.

Spans live in memory as ``[name, start, end, parent, child_s, info, failed]``
and are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np
import scipy.sparse as sp

_perf = time.perf_counter

NAME, START, END, PARENT, CHILD, INFO, FAILED = range(7)


def _stored_entries(mat) -> int:
    """nnz of a sparse matrix, full size of a dense one."""
    return int(mat.nnz) if sp.issparse(mat) else int(np.size(mat))


def _bytes(mat) -> int:
    """Bytes held by a matrix, computed from its array sizes."""
    if sp.issparse(mat):
        return int(sum(getattr(mat, a).nbytes
                       for a in ("data", "indices", "indptr") if hasattr(mat, a)))
    return int(np.asarray(mat).nbytes)


_BUNDLE_MATRICES = ("lap_int", "interp_int", "vc_rows", "nh_map", "lap_vc",
                    "lap_zero", "interp_vc", "interp_zero", "deriv")


def _bundle_info(args, kwargs, out):
    mats = [getattr(out, a) for a in _BUNDLE_MATRICES if hasattr(out, a)]
    return {"n_ext": int(out.n_ext),
            "scheme": str(getattr(out, "scheme", "")),
            "stored": sum(_stored_entries(m) for m in mats),
            "bytes": sum(_bytes(m) for m in mats),
            "nnz_lap_vc": _stored_entries(out.lap_vc)}


def _factorize_info(args, kwargs, out):
    A = args[1] if len(args) > 1 else kwargs["A"]
    return {"dense": not sp.issparse(A), "n": int(A.shape[0]),
            "nnz": _stored_entries(A)}


def _solve_info(args, kwargs, out):
    fact = args[0]
    b = args[1] if len(args) > 1 else kwargs["b"]
    is_complex = getattr(fact, "_complex", None)
    if is_complex is None:
        return {"split": None}
    return {"split": bool(np.iscomplexobj(b) and not is_complex)}


def _steps_info(args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    return {"steps": int(problem.n_steps)}


def _points_info(args, kwargs, out):
    return {"points": len(out.points)}


# (module, attribute path, span name, info callback)
TARGETS = [
    ("graphpde.graphs", "build_graph", "graphs.build", None),
    ("graphpde.graphs", "from_template", "graphs.build", None),
    ("graphpde.graphs", "set_plot_coords", "graphs.build", None),
    ("graphpde.discretize", "discretize", "discretize", _bundle_info),
    ("graphpde.linalg", "Factorization.__init__", "linalg.factorize", _factorize_info),
    ("graphpde.linalg", "Factorization.solve", "linalg.solve", _solve_info),
    ("graphpde.linalg", "generalized_eigs", "linalg.eigs", None),
    ("graphpde.stationary", "solve_poisson", "stationary.poisson", None),
    ("graphpde.stationary", "eigs", "stationary.eigs", None),
    ("graphpde.stationary", "find_spectrum_secular", "stationary.secular.scan", None),
    ("graphpde.stationary", "secular_function", "stationary.secular.function", None),
    ("graphpde.stationary", "secular_matrix", "stationary.secular.k_eval", None),
    ("graphpde.stationary", "nls_problem", "stationary.nls_problem", None),
    ("graphpde.stationary", "nls_jacobian", "stationary.jacobian", None),
    ("graphpde.stationary", "nls_residual", "stationary.residual", None),
    ("graphpde.stationary", "solve_newton", "stationary.newton", None),
    ("graphpde.functionals", "make_context", "functionals", None),
    ("graphpde.functionals", "integral", "functionals", None),
    ("graphpde.functionals", "norm_lp", "functionals", None),
    ("graphpde.functionals", "mass", "functionals", None),
    ("graphpde.functionals", "inner_product", "functionals", None),
    ("graphpde.functionals", "energy_nls", "functionals", None),
    ("graphpde.functionals", "momentum", "functionals", None),
    ("graphpde.evolution", "crank_nicolson_heat", "evolution.stepper", _steps_info),
    ("graphpde.evolution", "leapfrog_klein_gordon", "evolution.stepper", _steps_info),
    ("graphpde.evolution", "imex_euler", "evolution.stepper", _steps_info),
    ("graphpde.evolution", "sdirk443", "evolution.stepper", _steps_info),
    ("graphpde.evolution", "conservation_trace", "evolution.trace", None),
    ("graphpde.continuation", "continue_from_eig", "continuation.branch", _points_info),
    ("graphpde.continuation", "continue_from_branch_point", "continuation.branch", _points_info),
    ("graphpde.continuation", "continue_from_saved", "continuation.branch", _points_info),
    ("graphpde.continuation", "continue_from_end", "continuation.branch", _points_info),
    ("graphpde.continuation", "continue_branch", "continuation.branch", _points_info),
    ("graphpde.continuation", "corrector", "continuation.corrector", None),
    ("graphpde.continuation", "locate_branch_point", "continuation.locate", None),
    ("graphpde.continuation", "null_vector", "continuation.null_vector", None),
    ("graphpde.continuation", "newton_fixed_lambda", "continuation.newton", None),
    ("graphpde.continuation", "tangent_at", "continuation.tangent", None),
    ("graphpde.continuation", "nls_system", "continuation.setup", None),
    ("graphpde.continuation", "create_run", "continuation.io.create", None),
    ("graphpde.continuation", "save_eigenfunctions", "continuation.io.eigenfunctions", None),
    ("graphpde.continuation", "save_branch", "continuation.io.save", None),
    ("graphpde.continuation", "load_branch", "continuation.io.load", None),
]


class Tracer:
    """Installs span wrappers, keeps the spans, and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.installed: set[str] = set()   # span names with at least one live target
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, None, True]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = _perf()
            try:
                out = fn(*args, **kwargs)
                rec[FAILED] = False
                return out
            finally:
                rec[END] = _perf()
                stack.pop()
                if info is not None and not rec[FAILED]:
                    try:
                        rec[INFO] = info(args, kwargs, out)
                    except (AttributeError, KeyError, IndexError, TypeError):
                        rec[INFO] = None   # the library changed shape; drop the detail
                if parent >= 0:
                    # the info callback is tracer work: keep it out of the
                    # parent's self time as well
                    spans[parent][CHILD] += _perf() - rec[START]

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "graphpde" or k.startswith("graphpde."))]
        for modname, path, name, info in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
                if owner is None or attr not in vars(owner):
                    continue
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr], info))
                self.installed.add(name)
                continue
            fn = getattr(module, attr, None)
            if fn is None or not callable(fn):
                continue
            wrapped = self._wrap(name, fn, info)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded since the last call; parents index into them."""
        done = list(self.spans)
        self.spans.clear()   # in place: the wrappers hold this list
        return done


def write_spans(path, passes) -> None:
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w") as fh:
        for tag, spans in passes:
            for i, s in enumerate(spans):
                fh.write(json.dumps({"pass": tag, "id": i, "name": s[NAME],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT],
                                     "failed": s[FAILED]}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass

def _under(spans, i, prefix) -> bool:
    """True if some ancestor of span i has a name starting with prefix."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME].startswith(prefix):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, installed, extras) -> dict[str, tuple[float, str]]:
    """Aggregate one traced pass into {metric name: (value, unit)}.

    ``extras`` carries what only the workload knows: failed secular
    cross-checks and the bytes left in its run directories.
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def self_s(*names):
        return sum(spans[i][END] - spans[i][START] - spans[i][CHILD]
                   for n in names for i in idx(n))

    def incl_outermost(name):
        return sum(spans[i][END] - spans[i][START] for i in idx(name)
                   if not _under(spans, i, name))

    def info_sum(name, key):
        return sum((spans[i][INFO] or {}).get(key, 0) for i in idx(name))

    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit, *needs):
        if all(n in installed for n in needs):
            out[metric] = (value, unit)

    put("graphs.build_s", incl_outermost("graphs.build"), "s", "graphs.build")

    d = "discretize"
    put("discretize.calls", calls(d), "count", d)
    put("discretize.self_s", self_s(d), "s", d)
    put("discretize.n_ext", info_sum(d, "n_ext"), "count", d)
    put("discretize.stored_entries", info_sum(d, "stored"), "count", d)
    put("discretize.bytes_computed", info_sum(d, "bytes"), "bytes", d)

    f = "linalg.factorize"
    put("linalg.factorize.calls", calls(f), "count", f)
    put("linalg.factorize.self_s", self_s(f), "s", f)
    put("linalg.factorize.dense_calls",
        sum(1 for i in idx(f) if (spans[i][INFO] or {}).get("dense")), "count", f)
    put("linalg.factorize.n_sum", info_sum(f, "n"), "count", f)
    put("linalg.factorize.nnz_sum", info_sum(f, "nnz"), "count", f)

    s = "linalg.solve"
    put("linalg.solve.calls", calls(s), "count", s)
    put("linalg.solve.self_s", self_s(s), "s", s)
    splits = [(spans[i][INFO] or {}).get("split") for i in idx(s)]
    if None not in splits:   # unknown once the factorization hides its dtype
        put("linalg.solve.complex_split", sum(splits), "count", s)

    put("linalg.eigs.calls", calls("linalg.eigs"), "count", "linalg.eigs")
    put("linalg.eigs.self_s", self_s("linalg.eigs"), "s", "linalg.eigs")

    put("stationary.poisson.self_s", self_s("stationary.poisson"), "s",
        "stationary.poisson")
    put("stationary.eigs.self_s", self_s("stationary.eigs"), "s", "stationary.eigs")
    sec = ("stationary.secular.scan", "stationary.secular.function",
           "stationary.secular.k_eval")
    put("stationary.secular.scans", calls(sec[0]), "count", sec[0])
    put("stationary.secular.k_evals", calls(sec[2]), "count", sec[2])
    put("stationary.secular.self_s", self_s(*sec), "s", *sec)
    put("stationary.secular.failed", extras.get("secular_failed", 0), "count", sec[0])
    for key, name in (("jacobian", "stationary.jacobian"),
                      ("residual", "stationary.residual")):
        put(f"stationary.{key}.calls", calls(name), "count", name)
        put(f"stationary.{key}.self_s", self_s(name), "s", name)

    put("functionals.calls", calls("functionals"), "count", "functionals")
    put("functionals.self_s", self_s("functionals"), "s", "functionals")

    st, tr = "evolution.stepper", "evolution.trace"
    steps = info_sum(st, "steps")
    stepper_solves = sum(1 for i in idx(s) if _under(spans, i, st))
    put("evolution.steps", steps, "count", st)
    put("evolution.self_s", self_s(st, tr), "s", st, tr)
    put("evolution.solves_per_step", stepper_solves / steps if steps else 0.0,
        "ratio", st, s)
    put("evolution.trace_s", incl_outermost(tr), "s", tr)

    br, co, lo = "continuation.branch", "continuation.corrector", "continuation.locate"
    points = sum((spans[i][INFO] or {}).get("points", 0) for i in idx(br)
                 if not _under(spans, i, br))
    corrector_calls = calls(co)
    put("continuation.points", points, "count", br)
    put("continuation.corrector.calls", corrector_calls, "count", co)
    put("continuation.corrector.failed",
        sum(1 for i in idx(co) if spans[i][FAILED]), "count", co)
    put("continuation.corrector.self_s", self_s(co), "s", co)
    put("continuation.locate.calls", calls(lo), "count", lo)
    put("continuation.locate.self_s", self_s(lo), "s", lo)
    put("continuation.locate.corrector_calls",
        sum(1 for i in idx(co) if _under(spans, i, lo)), "count", co, lo)
    put("continuation.null_vector.calls", calls("continuation.null_vector"), "count",
        "continuation.null_vector")
    branch_factorizations = sum(1 for i in idx(f) if _under(spans, i, br))
    put("continuation.factorize_per_point",
        branch_factorizations / points if points else 0.0, "ratio", br, f)
    put("continuation.useful_ratio",
        points / corrector_calls if corrector_calls else 0.0, "ratio", br, co)
    put("continuation.io.save_s", incl_outermost("continuation.io.save"), "s",
        "continuation.io.save")
    put("continuation.io.bytes", extras.get("run_bytes", 0), "bytes",
        "continuation.io.save")
    return out


def bundle_sizes(spans) -> list[dict]:
    """n_ext and stored entries of every bundle discretize built in the pass."""
    return [dict(spans[i][INFO]) for i in range(len(spans))
            if spans[i][NAME] == "discretize" and spans[i][INFO]]


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer (first component of the span name)."""
    out: dict[str, float] = {}
    for s in spans:
        layer = s[NAME].split(".")[0]
        out[layer] = out.get(layer, 0.0) + s[END] - s[START] - s[CHILD]
    return out
