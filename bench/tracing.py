"""Spans around every public function of every momentflow module.

The wrappers are installed from here, not inside the package: each public
function (a name in a module's ``__all__`` defined in that module) is
replaced in every module namespace that binds it, so that calls between
modules go through the wrapper too (``hesselink.min_norm_point`` as well as
``minnorm.min_norm_point``, ``flows.moment`` as well as
``momentmap.moment``).  ``RepAction``'s constructor and gradient methods are
wrapped on the class.

Spans are kept in memory as ``(name, start, end, parent, task, self_s,
attr)`` and written out by :meth:`Tracer.dump`.  Self time is the span's
duration minus the time covered by its child spans; calls are nested on
one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cartan", "reps", "momentmap", "flows", "minnorm", "hesselink",
          "jordan", "bracket", "cli")

# span attributes: a count read off the result (or the instance) per call
_ATTRS = {
    "hesselink.enumerate_labels": lambda res, args: len(res.labels),
    "flows.gradient_flow": lambda res, args: res.steps,
    "momentmap.rep_action.build": lambda res, args: args[0].pi_stack.nbytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []      # [span index, time covered by children]
        self.task = -1                    # -1 while setting up

    def wrap(self, name: str, fn):
        attr = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
            value = attr(result, args) if attr else None
            self.spans[idx] = (name, start, end, parent, self.task,
                               end - start - frame[1], value)
            return result
        return traced

    def instrument(self, package) -> None:
        """Install the wrappers on ``package`` and its layer modules."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS]
        for layer, mod in zip(LAYERS, modules[1:]):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if (inspect.isclass(fn) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, traced)
        rep_action = modules[1 + LAYERS.index("momentmap")].RepAction
        rep_action.__init__ = self.wrap("momentmap.rep_action.build", rep_action.__init__)
        for method in ("gradient", "moment_and_gradient"):
            setattr(rep_action, method, self.wrap("momentmap.gradient",
                                                  getattr(rep_action, method)))

    def dump(self, path) -> None:
        """Write the spans as gzip'd CSV, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,task,self_s,attr\n")
            for idx, (name, start, end, parent, task, self_s, value) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start!r},{end!r},{parent},{task},{self_s!r},"
                         f"{'' if value is None else value}\n")


# per-layer metrics reported by the traced run: (name, unit)
TIMED_FUNCTIONS = (
    "minnorm.min_norm_point", "minnorm.solve_exact", "hesselink.enumerate_labels",
    "reps.weight_components", "hesselink.optimal_class", "hesselink.stratum_membership",
    "jordan.jordan_label", "momentmap.gradient", "flows.gradient_flow",
    "reps.apply_group", "cartan.spd_sqrt", "momentmap.moment",
    "flows.verify_flow_equivalence", "hesselink.kn_label_via_flow",
    "bracket.critical_bracket_check", "momentmap.criticality_residual",
    "cli.run", "cartan.build_context", "reps.apply_lie",
)
DERIVED = (
    ("hesselink.hulls_per_label", "ratio"),
    ("minnorm.solves_per_hull", "ratio"),
    ("momentmap.rep_action.builds", "count"),
    ("momentmap.rep_action.build_s", "s"),
    ("momentmap.pi_stack_mb", "MB"),
    ("flows.accepted_steps", "count"),
    ("flows.gradient_per_step", "ratio"),
)
PER_LAYER = tuple((f"{f}.{kind}", unit) for f in TIMED_FUNCTIONS
                  for kind, unit in (("calls", "count"), ("self_s", "s"))) + DERIVED


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """The ``PER_LAYER`` metrics of one process's spans."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attr: dict[str, float] = defaultdict(float)
    for name, _, _, _, _, own, value in spans:
        calls[name] += 1
        self_s[name] += own
        attr[name] += value or 0

    def under(span, name) -> bool:
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    hulls = sum(1 for s in spans if s[0] == "minnorm.min_norm_point"
                and s[3] >= 0 and spans[s[3]][0] == "hesselink.enumerate_labels")
    flow_gradients = sum(1 for s in spans if s[0] == "momentmap.gradient"
                         and under(s, "flows.gradient_flow"))
    out = {}
    for f in TIMED_FUNCTIONS:
        out[f"{f}.calls"] = calls[f]
        out[f"{f}.self_s"] = self_s[f]
    out.update({
        "hesselink.hulls_per_label": ratio(hulls, attr["hesselink.enumerate_labels"]),
        "minnorm.solves_per_hull": ratio(calls["minnorm.solve_exact"],
                                         calls["minnorm.min_norm_point"]),
        "momentmap.rep_action.builds": calls["momentmap.rep_action.build"],
        "momentmap.rep_action.build_s": sum(s[2] - s[1] for s in spans
                                            if s[0] == "momentmap.rep_action.build"),
        "momentmap.pi_stack_mb": attr["momentmap.rep_action.build"] / 1e6,
        "flows.accepted_steps": attr["flows.gradient_flow"],
        "flows.gradient_per_step": ratio(flow_gradients, attr["flows.gradient_flow"]),
    })
    return out
