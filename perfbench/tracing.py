"""Timing wrappers installed on spinboson's module attributes.

The package's layers call each other through module globals: for example
``spinboson.dynamics.blp_measure`` looks up ``build_kernels`` in the
``spinboson.dynamics`` namespace at call time.  Replacing those attributes
with timing wrappers therefore records every crossing of a layer boundary
without editing the package.  Functions called 1e4-1e6 times per pass are
aggregated (call count and self time only); the rest are recorded as
spans.  Self time is a call's duration minus the time of the wrapped calls
made inside it, so the self times of one pass sum to the duration of its
root spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


def _rate_points(result) -> dict:
    return {"points": len(result["gamma1"])}


def _ode_steps(result) -> dict:
    return {"steps": len(result) - 1}


def _unraveling_work(result) -> dict:
    return {"member_steps": result.n_traj * result.snapshots[-1].step,
            "snapshots": len(result.snapshots)}


#: (label, kind, attribute, modules holding the attribute, work counter).
#: Every module that calls the function through its own namespace is
#: listed, so each call site is wrapped.
TARGETS = (
    ("specfun.expint_e1", "agg", "expint_e1", ("spinboson.model",), None),
    ("model.rate_table", "span", "rate_table",
     ("spinboson.model", "spinboson.cli", "spinboson.dynamics",
      "spinboson.nmqj"), _rate_points),
    ("model.rates_closed_form", "agg", "rates_closed_form",
     ("spinboson.model",), None),
    ("model.sign_changes", "span", "sign_changes", ("spinboson.model",), None),
    ("model.rates_quadrature", "agg", "rates_quadrature",
     ("spinboson.model",), None),
    ("dynamics.build_kernels", "span", "build_kernels",
     ("spinboson.dynamics", "spinboson.cli"), None),
    ("dynamics.apply_map_series", "span", "apply_map_series",
     ("spinboson.dynamics", "spinboson.cli"), None),
    ("dynamics.blp_measure", "span", "blp_measure",
     ("spinboson.dynamics", "spinboson.cli"), None),
    ("dynamics.recoherence_mask", "span", "recoherence_mask",
     ("spinboson.dynamics", "spinboson.cli"), None),
    ("dynamics.ode_oracle", "span", "ode_oracle", ("spinboson.dynamics",),
     _ode_steps),
    ("nmqj.run_unraveling", "span", "run_unraveling",
     ("spinboson.nmqj", "spinboson.cli"), _unraveling_work),
    ("nmqj.member_uniforms", "agg", "member_uniforms", ("spinboson.nmqj",),
     None),
    ("nmqj.deterministic_step", "agg", "deterministic_step",
     ("spinboson.nmqj",), None),
    # cli.main is one span per command, named cli.<command>
    ("cli", "span", "main", ("spinboson.cli",), None),
)


class Tracer:
    """Spans and aggregate counters of one run, kept in memory.

    ``spans`` holds one tuple per finished span:
    (op_id, span_id, parent_id, name, start_s, end_s, self_s).
    ``totals`` maps a label to a Counter of calls, self_s and work counts;
    the benchmark resets it between passes.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, Counter] = defaultdict(Counter)
        self.op_id = 0
        self._stack: list[list] = []   # open frames: [child_s, span_id]
        self._next_span = 0
        self._saved: list[tuple] = []  # (module, attribute, original)

    def wrap(self, label: str, fn, kind: str = "span", work=None):
        """Return fn timed under label; kind 'span' also records a span."""
        perf = time.perf_counter
        stack = self._stack
        is_span = kind == "span"
        name_of = (lambda args: f"cli.{args[0][0]}") if label == "cli" \
            else (lambda args: label)

        def wrapper(*args, **kwargs):
            name = name_of(args)
            parent = stack[-1][1] if stack else None
            if is_span:
                self._next_span += 1
                span_id = self._next_span
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                total = self.totals[name]
                total["calls"] += 1
                total["self_s"] += elapsed - frame[0]
                if is_span:
                    self.spans.append((self.op_id, span_id, parent, name,
                                       start, end, elapsed - frame[0]))
            if work is not None:
                total.update(work(result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target attribute with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for label, kind, attr, modules, work in TARGETS:
            original = getattr(importlib.import_module(modules[0]), attr)
            wrapper = self.wrap(label, original, kind, work)
            for name in modules:
                module = importlib.import_module(name)
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{name}.{attr} is not the function "
                                       f"{modules[0]}.{attr}")
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _per(a: float, b: float, scale: float = 1.0) -> float:
    return scale * a / b if b else 0.0


def layer_metrics(totals: dict[str, Counter],
                  time_scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its aggregate totals.

    Self times are multiplied by ``time_scale``.  A layer that did no work
    on the pass reports 0 for its counts, times and ratios.
    """
    def get(label: str, key: str) -> float:
        if label not in totals:
            return 0
        value = totals[label][key]
        return value * time_scale if key == "self_s" else value

    e1_calls = get("specfun.expint_e1", "calls")
    e1_self = get("specfun.expint_e1", "self_s")
    rt_points = get("model.rate_table", "points")
    rt_self = get("model.rate_table", "self_s")
    ode_steps = get("dynamics.ode_oracle", "steps")
    ode_self = get("dynamics.ode_oracle", "self_s")
    member_steps = get("nmqj.run_unraveling", "member_steps")
    nmqj_self = sum(get(label, "self_s") for label in
                    ("nmqj.run_unraveling", "nmqj.member_uniforms",
                     "nmqj.deterministic_step"))
    m = {
        "specfun.expint_e1.calls": e1_calls,
        "specfun.expint_e1.self_s": e1_self,
        "specfun.expint_e1.us_per_call": _per(e1_self, e1_calls, 1e6),
        "model.rate_table.calls": get("model.rate_table", "calls"),
        "model.rate_table.points": rt_points,
        "model.rate_table.self_s": rt_self,
        "model.rate_table.us_per_point": _per(rt_self, rt_points, 1e6),
        "model.rates_closed_form.calls":
            get("model.rates_closed_form", "calls"),
        "model.rates_closed_form.self_s":
            get("model.rates_closed_form", "self_s"),
        "model.sign_changes.self_s": get("model.sign_changes", "self_s"),
        "model.rates_quadrature.calls": get("model.rates_quadrature", "calls"),
        "model.rates_quadrature.self_s":
            get("model.rates_quadrature", "self_s"),
        "dynamics.ode_oracle.steps": ode_steps,
        "dynamics.ode_oracle.self_s": ode_self,
        "dynamics.ode_oracle.us_per_step": _per(ode_self, ode_steps, 1e6),
    }
    for fn in ("build_kernels", "apply_map_series", "blp_measure"):
        m[f"dynamics.{fn}.calls"] = get(f"dynamics.{fn}", "calls")
        m[f"dynamics.{fn}.self_s"] = get(f"dynamics.{fn}", "self_s")
    m["dynamics.recoherence_mask.self_s"] = \
        get("dynamics.recoherence_mask", "self_s")
    m.update({
        "nmqj.run_unraveling.self_s": get("nmqj.run_unraveling", "self_s"),
        "nmqj.member_steps": member_steps,
        "nmqj.ns_per_member_step": _per(nmqj_self, member_steps, 1e9),
        "nmqj.member_uniforms.self_s": get("nmqj.member_uniforms", "self_s"),
        "nmqj.deterministic_step.calls":
            get("nmqj.deterministic_step", "calls"),
        "nmqj.snapshots": get("nmqj.run_unraveling", "snapshots"),
    })
    for command in ("rates", "evolve", "unravel", "recoherence-map", "blp"):
        m[f"cli.{command}.self_s"] = get(f"cli.{command}", "self_s")
    # every wrapped function and the op.* root spans
    m["trace.self_sum_s"] = sum(get(label, "self_s") for label in totals)
    return m
