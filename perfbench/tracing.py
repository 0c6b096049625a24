"""Spans around the calls into cmasolve's public functions.

install() wraps each public function named in LAYERS where it is looked
up: the defining module, every module that bound it with
`from .x import y`, and the class for methods.  Private helpers are not
wrapped.  While a Tracer is active each wrapped call records one span
(key, parent, start, end); spans stay in memory until save().  Counts of
work that the program returns in its records (Newton and outer
iterations, nodes touched by a stencil) are read from the results.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from workloads import PROGRAM_MODULES


class Tracer:
    """In-memory span recorder shared by every wrapper it installs."""

    def __init__(self):
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.outer = array("b")     # 1 when no enclosing span has the key
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.active = False
        self._stack: list[int] = []
        self._depth: list[int] = []

    def key_id(self, name: str) -> int:
        if name not in self._key_ids:
            self._key_ids[name] = len(self.keys)
            self.keys.append(name)
            self._depth.append(0)
        return self._key_ids[name]

    def wrap(self, fn, name: str, on_result=None):
        k = self.key_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            stack = tracer._stack
            depth = tracer._depth[k]
            tracer.key.append(k)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.outer.append(depth == 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer._depth[k] = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer.start[sid] = t0
                stack.pop()
                tracer._depth[k] = depth
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return traced

    def arrays(self, lo: int = 0, hi: int | None = None):
        """Spans [lo, hi) as numpy arrays (key, parent, outer, duration)."""
        hi = len(self.start) if hi is None else hi
        key = np.frombuffer(self.key, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        outer = np.frombuffer(self.outer, dtype=np.int8)[lo:hi].astype(bool)
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        return key, parent, outer, dur

    def save(self, path, passes):
        """Write every span, with the pass each belongs to, as .npz."""
        n = len(self.start)
        pass_of = np.full(n, -1, dtype=np.int32)
        for idx, (lo, hi) in enumerate(passes):
            pass_of[lo:hi] = idx
        np.savez(path, names=np.array(self.keys),
                 key=np.frombuffer(self.key, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 pass_index=pass_of)


# -- what is wrapped -----------------------------------------------------------

def _count_attr(counter, attr):
    def on_result(counts, result):
        counts[counter] += getattr(result, attr)
    return on_result


def _count_nodes(counter):
    def on_result(counts, result):
        counts[counter] += result.size
    return on_result


# (module, attribute or Class.method, span key, result hook)
LAYERS = (
    ("cli", "main", "cli.main", None),
    ("config", "load_config", "config.load", None),
    ("config", "RunConfig.build_problem", "config.build_problem", None),
    ("expressions", "parse_expression", "expressions.parse", None),
    ("expressions", "evaluate_on_grid", "expressions.evaluate", None),
    ("expressions", "Expression.__call__", "expressions.evaluate", None),
    ("rhs", "bind_on_grid", "rhs.bind", None),
    ("rhs", "bind_on_mesh", "rhs.bind", None),
    ("rhs", "BoundRhs.__call__", "rhs.density_eval", None),
    ("rhs", "BoundRhs.validate", "rhs.validate", None),
    ("grids", "second_difference", "grids.stencil",
     _count_nodes("grids.stencil_nodes")),
    ("grids", "mixed_difference", "grids.stencil",
     _count_nodes("grids.stencil_nodes")),
    ("grids", "ma_density", "grids.ma_density", None),
    ("grids", "write_field_csv", "grids.field_io", None),
    ("grids", "write_field_bin", "grids.field_io", None),
    ("grids", "read_field_csv", "grids.field_io", None),
    ("grids", "read_field_bin", "grids.field_io", None),
    ("linsolve", "solve_poisson_system", "linsolve.poisson", None),
    ("linsolve", "laplacian_apply", "linsolve.laplacian_apply", None),
    ("linsolve", "solve_hermitian_system", "linsolve.hermitian_solve", None),
    ("linsolve", "hermitian_form_apply", "linsolve.matvec",
     _count_nodes("linsolve.matvec_nodes")),
    ("solvers", "solve_ma_fixed_rhs", "solvers.fixed_solve",
     _count_attr("solvers.newton_iters", "newton_iters")),
    ("solvers", "maximal_extension", "solvers.maximal_extension", None),
    ("solvers", "solve_poisson", "solvers.poisson", None),
    ("iteration", "prepare", "iteration.prepare", None),
    ("iteration", "solve_mam", "iteration.solve_mam",
     _count_attr("iteration.outer_iters", "outer_iters")),
    ("iteration", "subsolution_check", "iteration.subsolution_check", None),
    ("radial", "solve_radial", "radial.solve_radial",
     _count_attr("radial.newton_iters", "newton_iters")),
    ("radial", "radial_residual", "radial.residual", None),
    ("checks", "comparison_check", "checks.comparison", None),
    ("checks", "uniqueness_check", "checks.uniqueness", None),
    ("checks", "convergence_study", "checks.convergence_study", None),
    ("checks", "stability_experiment", "checks.stability", None),
)

PRECOND_KEY = "linsolve.precond"


def install(tracer: Tracer) -> None:
    """Patch every LAYERS entry in each cmasolve module that holds it."""
    modules = [importlib.import_module(f"cmasolve.{m}")
               for m in PROGRAM_MODULES]
    modules.append(importlib.import_module("cmasolve"))

    def rebind(orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    for mod_name, attr, key, hook in LAYERS:
        mod = importlib.import_module(f"cmasolve.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), key, hook))
        else:
            orig = getattr(mod, attr)
            rebind(orig, tracer.wrap(orig, key, hook))

    # the preconditioner is a closure built per Newton correction: wrap
    # what the factory returns
    linsolve = importlib.import_module("cmasolve.linsolve")
    make = linsolve.make_sine_preconditioner
    tracer.key_id(PRECOND_KEY)

    @functools.wraps(make)
    def make_traced(*args, **kwargs):
        return tracer.wrap(make(*args, **kwargs), PRECOND_KEY)

    rebind(make, make_traced)


# -- per-layer metrics -------------------------------------------------------

# metric name -> (span key, "s" inclusive time | "calls")
SPAN_METRICS = {
    "config.load_s": ("config.load", "s"),
    "config.build_problem_s": ("config.build_problem", "s"),
    "expressions.parse_s": ("expressions.parse", "s"),
    "expressions.evaluate_s": ("expressions.evaluate", "s"),
    "rhs.bind_s": ("rhs.bind", "s"),
    "rhs.density_eval_s": ("rhs.density_eval", "s"),
    "rhs.density_eval_calls": ("rhs.density_eval", "calls"),
    "rhs.validate_s": ("rhs.validate", "s"),
    "grids.stencil_s": ("grids.stencil", "s"),
    "grids.stencil_calls": ("grids.stencil", "calls"),
    "grids.ma_density_s": ("grids.ma_density", "s"),
    "grids.field_io_s": ("grids.field_io", "s"),
    "linsolve.poisson_s": ("linsolve.poisson", "s"),
    "linsolve.poisson_calls": ("linsolve.poisson", "calls"),
    "linsolve.laplacian_apply_calls": ("linsolve.laplacian_apply", "calls"),
    "linsolve.hermitian_solve_s": ("linsolve.hermitian_solve", "s"),
    "linsolve.hermitian_solve_calls": ("linsolve.hermitian_solve", "calls"),
    "linsolve.matvec_s": ("linsolve.matvec", "s"),
    "linsolve.matvec_calls": ("linsolve.matvec", "calls"),
    "linsolve.precond_s": (PRECOND_KEY, "s"),
    "linsolve.precond_calls": (PRECOND_KEY, "calls"),
    "solvers.fixed_solve_s": ("solvers.fixed_solve", "s"),
    "solvers.fixed_solve_calls": ("solvers.fixed_solve", "calls"),
    "solvers.maximal_extension_s": ("solvers.maximal_extension", "s"),
    "solvers.maximal_extension_calls": ("solvers.maximal_extension",
                                        "calls"),
    "iteration.prepare_s": ("iteration.prepare", "s"),
    "iteration.prepare_calls": ("iteration.prepare", "calls"),
    "iteration.solve_mam_s": ("iteration.solve_mam", "s"),
    "iteration.solve_mam_calls": ("iteration.solve_mam", "calls"),
    "radial.solve_radial_s": ("radial.solve_radial", "s"),
    "radial.solve_radial_calls": ("radial.solve_radial", "calls"),
    "radial.residual_s": ("radial.residual", "s"),
    "checks.comparison_s": ("checks.comparison", "s"),
    "checks.uniqueness_s": ("checks.uniqueness", "s"),
    "checks.convergence_study_s": ("checks.convergence_study", "s"),
    "checks.stability_s": ("checks.stability", "s"),
}

RESULT_COUNTS = ("solvers.newton_iters", "iteration.outer_iters",
                 "radial.newton_iters")

# counters that must repeat exactly between passes and runs at one seed
REPEATABLE = tuple(name for name, (_, kind) in SPAN_METRICS.items()
                   if kind == "calls") + RESULT_COUNTS + ("trace.spans",)


def span_metrics(tracer: Tracer, lo: int, hi: int, counts: Counter) -> dict:
    """Per-layer metrics of the spans [lo, hi) of one pass."""
    key, parent, outer, dur = tracer.arrays(lo, hi)
    nkeys = len(tracer.keys)
    calls = np.bincount(key, minlength=nkeys)
    inclusive = np.bincount(key[outer], weights=dur[outer], minlength=nkeys)
    # self time: a span's duration less the spans directly under it
    local = parent - lo
    inside = local >= 0
    child = np.bincount(local[inside], weights=dur[inside],
                        minlength=len(dur))
    own = np.bincount(key, weights=dur - child, minlength=nkeys)
    ids = {name: k for k, name in enumerate(tracer.keys)}

    out = {}
    for name, (span_key, kind) in SPAN_METRICS.items():
        k = ids[span_key]
        out[name] = int(calls[k]) if kind == "calls" else float(inclusive[k])
    for name in RESULT_COUNTS:
        out[name] = int(counts[name])
    stencil_nodes = counts["grids.stencil_nodes"]
    out["grids.stencil_ns_per_node"] = (
        1e9 * out["grids.stencil_s"] / stencil_nodes if stencil_nodes else 0.0)
    matvec_nodes = counts["linsolve.matvec_nodes"]
    out["linsolve.matvec_ns_per_node"] = (
        1e9 * out["linsolve.matvec_s"] / matvec_nodes if matvec_nodes else 0.0)
    solves = out["linsolve.hermitian_solve_calls"]
    out["linsolve.matvecs_per_correction"] = (
        out["linsolve.matvec_calls"] / solves if solves else 0.0)
    for layer in PROGRAM_MODULES:     # one layer per cmasolve module
        out[f"{layer}.self_s"] = float(sum(
            own[k] for name, k in ids.items() if name.split(".")[0] == layer))
    out["trace.spans"] = int(hi - lo)
    return out


def per_command(tracer: Tracer, lo: int, hi: int) -> dict:
    """Calls per span key within [lo, hi), for one command's breakdown."""
    key = np.frombuffer(tracer.key, dtype=np.int32)[lo:hi]
    calls = np.bincount(key, minlength=len(tracer.keys))
    return {name: int(calls[k]) for k, name in enumerate(tracer.keys)
            if calls[k]}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_node"):
        return "ns/node"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_correction"):
        return "matvec/solve"
    return "count"
