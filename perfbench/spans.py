"""Span tracer for the benchmark's traced run.

Spans are recorded here, in the benchmark, around calls into each `spit`
module's public functions; `spit` itself is not changed.  `spit` binds many
names at import time (`from .barrier import estimate_L` in `dynamics` and
`harness`, `contacts_within` inside `barrier`), so wrapping one module
attribute would miss most calls.  `Tracer.install` therefore replaces every
attribute of every loaded `spit.*` module that refers to a traced function,
and restores them all on exit.

Each span has a name, a start, an end (`perf_counter_ns`) and the index of
its parent span, and also the times its wrapper was entered and left.  The
wrapper's own work (its bookkeeping and reading the counters below) falls
between those and the span's start and end, inside the parent's span; a
name's self time is therefore the sum of its spans' durations minus the time
their direct children's wrappers cover, so that the tracer's cost is not
charged to the caller.  That cost is reported as `trace.wrapper_s`.  Counters
read from arguments and return values (solver iterations, convergence, rows
scanned, how close the nudge trigger came to firing) are kept beside the spans.
"""

from __future__ import annotations

import checkout  # noqa: F401  (imports spit from this checkout)

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = {
    "geometry": ("contacts_within", "build_shift_set"),
    "barrier": ("barrier_energy", "barrier_value", "hvp_x", "hvp_joint",
                "estimate_L", "estimate_m", "estimate_L_joint"),
    "projection": ("gs_project_once", "e_project_x", "e_project_joint", "solve_qp"),
    "dynamics": ("run_trajectory", "spit_step", "lyapunov_energy"),
    "spectral": ("build_contact_graph", "fiedler", "nudge_trigger"),
    "rigidity": ("recover_multipliers", "kkt_residual", "is_periodically_rigid",
                 "prestress_stable", "licq_sigma_min"),
    "harness": ("make_testbed", "certify"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# counters read from arguments and return values: name -> (unit, better)
COUNTERS = {
    **{f"barrier.{fn}.{what}": ("count", "lower")
       for fn in ("estimate_L", "estimate_m", "estimate_L_joint")
       for what in ("iters", "unconverged")},
    "geometry.contacts_within.rows_scanned": ("count", "lower"),
    "geometry.contacts_within.rows_kept": ("count", "higher"),
    "geometry.contacts_within.kept_share": ("ratio", "higher"),
    "projection.solve_qp.iterations": ("count", "lower"),
    "projection.solve_qp.rows": ("count", "lower"),
    "projection.solve_qp.cols": ("count", "lower"),
    **{f"projection.{fn}.{what}": ("count", "lower")
       for fn in ("e_project_x", "e_project_joint")
       for what in ("backoffs", "guard_rounds")},
    "projection.gs_project_once.changed": ("count", "lower"),
    "spectral.fiedler.power_calls": ("count", "lower"),
    "spectral.nudge_trigger.fired": ("count", "lower"),
    "spectral.nudge_trigger.tau_share_max": ("ratio", "lower"),
    **{f"dynamics.{key}": ("count", "lower")
       for key in ("accepted", "backtracks", "nudges", "gs_repairs",
                   "projections_x", "projections_joint")},
}

# counters that keep the largest value seen rather than a sum
MAX_COUNTERS = ("projection.solve_qp.rows", "projection.solve_qp.cols",
                "spectral.nudge_trigger.tau_share_max")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _power(name):
    def extra(c, args, kwargs, out):
        c[f"{name}.iters"] += out.iters
        c[f"{name}.unconverged"] += 0 if out.converged else 1
    return extra


def _contacts_within(c, args, kwargs, out):
    state, shifts = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "shifts")
    base = _arg(args, kwargs, 3, "base")
    table = base if base is not None else shifts.candidates(state.N)  # cached by the call
    c["geometry.contacts_within.rows_scanned"] += len(table)
    c["geometry.contacts_within.rows_kept"] += len(out)


def _solve_qp(c, args, kwargs, out):
    qp = _arg(args, kwargs, 0, "qp")
    c["projection.solve_qp.iterations"] += out.iterations
    rows, cols = qp.A.shape
    c["projection.solve_qp.rows"] = max(c["projection.solve_qp.rows"], rows)
    c["projection.solve_qp.cols"] = max(c["projection.solve_qp.cols"], cols)


def _e_project(name):
    def extra(c, args, kwargs, out):
        info = out[1]
        c[f"{name}.backoffs"] += info["backoffs"]
        c[f"{name}.guard_rounds"] += info["guard_rounds"]
    return extra


def _gs_project_once(c, args, kwargs, out):
    c["projection.gs_project_once.changed"] += 1 if out[1] else 0


def _fiedler(c, args, kwargs, out):
    graph = _arg(args, kwargs, 0, "graph")
    dense_limit = getattr(sys.modules["spit.spectral"], "_DENSE_EIG_LIMIT", 64)
    c["spectral.fiedler.power_calls"] += 1 if graph.n_vertices > dense_limit else 0


def _nudge_trigger(c, args, kwargs, out):
    """Largest tau / (lambda2 + tau) over calls: how close the trigger came to
    firing.  It lies in [0, 1], is 0 while tau = 0 (m_hat = 0), and passes 1/2
    exactly when lambda2 drops below tau; 1 / share - 1 is the margin lambda2 / tau."""
    history = _arg(args, kwargs, 0, "history")
    lam2 = _arg(args, kwargs, 1, "lambda2_now")
    kappa = _arg(args, kwargs, 2, "kappa")
    m_hat, L_hat = _arg(args, kwargs, 3, "m_hat"), _arg(args, kwargs, 4, "L_hat")
    c["spectral.nudge_trigger.fired"] += 1 if out else 0
    ratio = min(1.0, m_hat / L_hat) if L_hat > 0 else 0.0
    tau = kappa * float(np.median(list(history.values) + [lam2])) * ratio
    if tau > 0.0:
        key = "spectral.nudge_trigger.tau_share_max"
        c[key] = max(c[key], tau / (max(lam2, 0.0) + tau))


def _run_trajectory(c, args, kwargs, out):
    for key, value in out.counts.items():
        c[f"dynamics.{key}"] += value


EXTRAS = {
    "barrier.estimate_L": _power("barrier.estimate_L"),
    "barrier.estimate_m": _power("barrier.estimate_m"),
    "barrier.estimate_L_joint": _power("barrier.estimate_L_joint"),
    "geometry.contacts_within": _contacts_within,
    "projection.solve_qp": _solve_qp,
    "projection.e_project_x": _e_project("projection.e_project_x"),
    "projection.e_project_joint": _e_project("projection.e_project_joint"),
    "projection.gs_project_once": _gs_project_once,
    "spectral.fiedler": _fiedler,
    "spectral.nudge_trigger": _nudge_trigger,
    "dynamics.run_trajectory": _run_trajectory,
}


def traced_originals() -> dict:
    """id -> (span name, function) for every function the tracer wraps."""
    out = {}
    for mod, fns in LAYERS.items():
        module = importlib.import_module(f"spit.{mod}")
        for fn in fns:
            func = getattr(module, fn)
            out[id(func)] = (f"{mod}.{fn}", func)
    return out


def spit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "spit" or name.startswith("spit."))]


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.span_name = array("i")  # index into SPAN_NAMES
        self.start = array("q")
        self.end = array("q")
        self.enter = array("q")  # wrapper entered; start - enter is its set-up cost
        self.leave = array("q")  # wrapper left, after the counters were read
        self.parent = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, func):
        code = SPAN_NAMES.index(name)
        extra = EXTRAS.get(name)
        stack, span_name, start, end, parent, enter, leave = (
            self._stack, self.span_name, self.start, self.end, self.parent,
            self.enter, self.leave)
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            enter.append(perf_counter_ns())
            idx = len(start)
            span_name.append(code)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            leave.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                out = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
                leave[idx] = end[idx]
            if extra is not None:
                extra(counters, args, kwargs, out)
                leave[idx] = perf_counter_ns()
            return out

        return traced

    def install(self) -> None:
        """Point every spit module attribute that holds a traced function at its wrapper."""
        wrappers = {key: (func, self.wrap(name, func))
                    for key, (name, func) in traced_originals().items()}
        for module in spit_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """Calls and self time (seconds) per span name, plus the counters."""
        n = len(self)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        code = np.array(self.span_name, dtype=np.int64)
        dur = end - start
        outer = np.array(self.leave, dtype=np.int64) - np.array(self.enter, dtype=np.int64)
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], outer[has_parent])
        self_ns = dur - child
        out = {}
        for k, name in enumerate(SPAN_NAMES):
            mask = code == k
            out[f"{name}.calls"] = int(np.count_nonzero(mask))
            out[f"{name}.self_s"] = float(np.sum(self_ns[mask])) * 1e-9
        out.update(self.counters)
        out["trace.wrapper_s"] = float(np.sum(outer - dur)) * 1e-9
        scanned = out.get("geometry.contacts_within.rows_scanned", 0)
        if scanned:
            out["geometry.contacts_within.kept_share"] = \
                out["geometry.contacts_within.rows_kept"] / scanned
        return out

    def write_csv(self, path) -> None:
        """One line per span: id, parent, name, start_ns, end_ns, enter_ns, leave_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,enter_ns,leave_ns\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.parent[i]},{SPAN_NAMES[self.span_name[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.enter[i]},{self.leave[i]}\n")
