"""Spans around the calls into each partialrank layer, taken from outside.

Each traced function is replaced in every partialrank module namespace that
binds it, under the name that namespace uses (``em.distance_matrix``,
``losses.fit``, ``partialrank.fit``), so calls made inside the package are
caught too. Spans are kept in memory and written out once the run ends.
A layer's self time is its span's duration minus that of its child spans.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# (defining module, attribute); "Class.method" wraps a method of that class
TRACED = [
    ("perms", "perm_table"),
    ("perms", "prefix_tables"),
    ("perms", "build_cayley_graph"),
    ("perms", "distance_matrix"),
    ("mallows", "component_log_pmf"),
    ("missing", "generate_dataset"),
    ("missing", "Dataset.save_csv"),
    ("missing", "Dataset.load_csv"),
    ("missing", "Dataset.groups"),
    ("missing", "partial_prob_vector"),
    ("em", "fit"),
    ("em", "fit_me"),
    ("em", "e_step"),
    ("em", "m_step_theta"),
    ("em", "penalized_nll"),
    ("admm", "solve_phi"),
    ("admm", "vertex_sweep"),
    ("admm", "_vertex_update_batch"),
    ("admm", "edge_sweep"),
    ("admm", "dual_sweep"),
    ("admm", "phi_objective"),
    ("losses", "l_par"),
]

TABLE_FUNCTIONS = ("perms.perm_table", "perms.prefix_tables", "perms.build_cayley_graph", "perms.distance_matrix")

# per-layer metric -> unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "perms.tables_s": "s",
    "perms.distance_matrix_s": "s",
    "perms.table_mb": "MB",
    "mallows.component_log_pmf_s": "s",
    "missing.generate_s": "s",
    "missing.save_csv_s": "s",
    "missing.load_csv_s": "s",
    "missing.groups_s": "s",
    "missing.partial_prob_vector_s": "s",
    "em.e_step_s": "s",
    "em.e_step_calls": "count",
    "em.m_step_theta_s": "s",
    "em.penalized_nll_s": "s",
    "em.penalized_nll_calls": "count",
    "em.self_s": "s",
    "admm.solve_phi_calls": "count",
    "admm.iterations": "count",
    "admm.converged_ratio": "ratio",
    "admm.multiplier_s": "s",
    "admm.vertex_sweep_self_s": "s",
    "admm.edge_sweep_s": "s",
    "admm.dual_sweep_s": "s",
    "admm.solve_phi_self_s": "s",
    "admm.objective_s": "s",
    "losses.l_par_s": "s",
    "losses.cv_fits": "count",
}


class Tracer:
    """In-memory spans: name, the function it times, start, end, parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self._table_mb: dict[tuple, float] = {}
        self.enabled = True  # when False the wrappers call straight through

    def begin(self, name: str, fn: str | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": sid, "name": name, "fn": fn or name, "parent": parent,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(sid)
        return sid

    def end(self, sid: int, **extra) -> None:
        span = self.spans[sid]
        span["end"] = time.perf_counter()
        span.update(extra)
        self._stack.pop()

    def _wrap(self, name: str, fn: str, func):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            sid = tracer.begin(name, fn)
            extra = {}
            try:
                result = func(*args, **kwargs)
                extra = tracer._observe(fn, args, result)
                return result
            finally:
                tracer.end(sid, **extra)

        traced.__wrapped__ = func
        return traced

    def _observe(self, fn: str, args, result) -> dict:
        if fn == "admm.solve_phi":
            return {"iterations": int(result.iterations), "converged": bool(result.converged)}
        if fn in TABLE_FUNCTIONS and args:
            key = (fn, args[0])
            if key not in self._table_mb:
                self._table_mb[key] = _nbytes(result) / 2**20
        return {}

    def install(self) -> None:
        """Wrap every traced function under each name the package binds it to."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "partialrank" or name.startswith("partialrank.")}
        for module_name, attr in TRACED:
            fn = f"{module_name}.{attr}"
            owner = modules.get(f"partialrank.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = vars(cls).get(method) if cls is not None else None
                if raw is None:
                    self.absent.append(fn)
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(fn, fn, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(fn, fn, raw))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(fn)
                continue
            for mod_name, mod in modules.items():
                for bound_name, value in list(vars(mod).items()):
                    if value is original:
                        short = mod_name.replace("partialrank.", "")
                        setattr(mod, bound_name, self._wrap(f"{short}.{bound_name}", fn, original))

    def table_mb(self) -> float:
        return sum(self._table_mb.values())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)
            fh.write("\n")


def _nbytes(value) -> int:
    """Bytes held by the arrays a table function returns, found field by field."""
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return sum(_nbytes(getattr(value, f)) for f in value.__dataclass_fields__)
    return 0


def self_times(spans: list[dict]) -> dict[int, float]:
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_total[s["id"]] for s in spans}


def _root(spans: list[dict], sid: int) -> int:
    while spans[sid]["parent"] is not None:
        sid = spans[sid]["parent"]
    return sid


def fit_self_time_violations(spans: list[dict], fit_names: tuple[str, ...]) -> list[str]:
    """Fits whose descendants' self times add up to more than the fit's wall time.

    This is a sanity check of the span tree, not of the program: with every
    span closed on its own parent's stack, the descendants' self times add up
    to the direct children's durations, which lie inside the fit. It fails
    only when the tracer mis-parents a span or leaves one open.
    """
    selfs = self_times(spans)
    below: dict[int, float] = defaultdict(float)
    for s in spans:
        p = s["parent"]
        while p is not None:
            below[p] += selfs[s["id"]]
            p = spans[p]["parent"]
    bad = []
    for s in spans:
        if s["name"] in fit_names and below[s["id"]] > (s["end"] - s["start"]) + 1e-9:
            bad.append(f"span {s['id']} {s['name']}")
    return bad


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics: set-up layers from the set-up phase, the rest as the
    median over rounds of each round's total."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_phase: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_phase[spans[_root(spans, s["id"])]["name"]].append(s)
    rounds = sorted(p for p in by_phase if p.startswith("round"))

    def total(keep, value, phase_name):
        return sum(value(s) for s in by_phase[phase_name] if keep(s))

    def dur(s):
        return s["end"] - s["start"]

    def per_round(keep, value=dur):
        return statistics.median([total(keep, value, p) for p in rounds]) if rounds else 0.0

    def fn_is(*names):
        return lambda s: s["fn"] in names

    def self_of(s):
        return selfs[s["id"]]

    def one(_):
        return 1

    calls = per_round(fn_is("admm.solve_phi"), one)
    converged = per_round(fn_is("admm.solve_phi"), lambda s: int(s.get("converged", False)))
    return {
        "perms.tables_s": total(fn_is(*TABLE_FUNCTIONS[:3]), self_of, "setup"),
        "perms.distance_matrix_s": total(fn_is("perms.distance_matrix"), dur, "setup"),
        "perms.table_mb": tracer.table_mb(),
        "mallows.component_log_pmf_s": per_round(fn_is("mallows.component_log_pmf")),
        "missing.generate_s": per_round(fn_is("missing.generate_dataset")),
        "missing.save_csv_s": per_round(fn_is("missing.Dataset.save_csv")),
        "missing.load_csv_s": per_round(fn_is("missing.Dataset.load_csv")),
        "missing.groups_s": per_round(fn_is("missing.Dataset.groups")),
        "missing.partial_prob_vector_s": per_round(fn_is("missing.partial_prob_vector")),
        "em.e_step_s": per_round(fn_is("em.e_step")),
        "em.e_step_calls": per_round(fn_is("em.e_step"), one),
        "em.m_step_theta_s": per_round(fn_is("em.m_step_theta")),
        "em.penalized_nll_s": per_round(fn_is("em.penalized_nll")),
        "em.penalized_nll_calls": per_round(fn_is("em.penalized_nll"), one),
        "em.self_s": per_round(lambda s: s["fn"].startswith("em."), self_of),
        "admm.solve_phi_calls": calls,
        "admm.iterations": per_round(fn_is("admm.solve_phi"), lambda s: s.get("iterations", 0)),
        "admm.converged_ratio": converged / calls if calls else 0.0,
        "admm.multiplier_s": per_round(fn_is("admm._vertex_update_batch")),
        "admm.vertex_sweep_self_s": per_round(fn_is("admm.vertex_sweep"), self_of),
        "admm.edge_sweep_s": per_round(fn_is("admm.edge_sweep")),
        "admm.dual_sweep_s": per_round(fn_is("admm.dual_sweep")),
        "admm.solve_phi_self_s": per_round(fn_is("admm.solve_phi"), self_of),
        "admm.objective_s": per_round(fn_is("admm.phi_objective")),
        "losses.l_par_s": per_round(fn_is("losses.l_par")),
        "losses.cv_fits": per_round(lambda s: s["name"] == "losses.fit", one),
    }
