"""Span tracer that wraps teamfield's public functions from outside.

Each traced function is replaced at every name it is bound under inside
the package, so calls between modules are seen as well as the
benchmark's own calls. Spans are kept in memory as (id, name, start,
end, parent, job) and written out at the end of the run.

Worker threads of ``_parallel.run_ordered`` start with an empty span
stack (context does not follow ``ThreadPoolExecutor.map``), so a span
opened on one is attributed to the innermost open ``run_ordered`` span.
Self time is a span's duration minus the part of it covered by the
union of its children, which may overlap when they ran on pool threads.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import sys
import threading
from time import perf_counter


def _candidates_br(args, kwargs):
    inst, team = args[0], args[2]
    t = inst.spec.teams[team]
    return {"candidates": (t.actions.size ** t.observations.size) ** inst.team_sizes[team]}


def _candidates_dyn(args, kwargs):
    """Joint deviation candidates of exact mode, summed over both teams."""
    spec, sizes = args[0], args[1]
    mode = kwargs.get("mode", args[5] if len(args) > 5 else "auto")
    if mode != "exact":
        return {}
    total = 0
    for i in range(2):
        t = spec.teams[i]
        total += ((t.actions.size ** t.observations.size) ** spec.horizon) ** int(sizes[i])
    return {"candidates": total}


def _grid_candidates(args, kwargs):
    spec, resolution = args[0], args[1]
    steps = round(1.0 / resolution)
    total = 1
    for t in spec.teams:
        total *= math.comb(steps + t.actions.size - 1, t.actions.size - 1) ** spec.n_world
    return {"candidates": total}


def _cost_tensor_builds(args, kwargs):
    inst, team = args[0], args[1]
    return {"builds": int(team not in getattr(inst, "_cost_tensors", ()))}


def _reps(index):
    def pre(args, kwargs):
        return {"episodes": int(kwargs.get("reps", args[index]))}

    return pre


def _items(args, kwargs):
    return {"items": len(args[1])}


# (layer, module, function, counters before the call, counters from the result)
TIMED = (
    ("io", "teamfield.io", "load_spec", None, None),
    ("core.specs", "teamfield.core.specs", "validate_static_spec", None, None),
    ("core.specs", "teamfield.core.specs", "validate_dynamic_spec", None, None),
    ("policies", "teamfield.policies", "sample_profile", None, None),
    ("parallel", "teamfield._parallel", "run_ordered", _items, None),
    ("mf_static", "teamfield.mf_static", "solve_mf_fixed_point", None, lambda r: {"iterations": r.iterations}),
    ("mf_static", "teamfield.mf_static", "grid_fixed_point_search", _grid_candidates, lambda r: {"hits": len(r)}),
    ("finite_n", "teamfield.finite_n", "FiniteGameInstance.cost_tensor", _cost_tensor_builds, None),
    ("finite_n", "teamfield.finite_n", "team_profile_law", None, None),
    ("finite_n", "teamfield.finite_n", "exact_cost", None, None),
    ("finite_n", "teamfield.finite_n", "team_best_response_exact", _candidates_br, None),
    ("finite_n", "teamfield.finite_n", "epsilon_ne_certify", None, None),
    ("finite_n", "teamfield.finite_n", "epsilon_sweep", None, None),
    ("finite_n", "teamfield.finite_n", "mc_cost", _reps(4), None),
    ("dynamic", "teamfield.dynamic", "exact_dynamic_cost", None, None),
    ("dynamic", "teamfield.dynamic", "dynamic_epsilon_estimate", _candidates_dyn, None),
    ("dynamic", "teamfield.dynamic", "solve_dynamic_mf_fixed_point", None, lambda r: {"iterations": r.iterations}),
    ("dynamic", "teamfield.dynamic", "propagate_mf_flow", None, None),
    ("dynamic", "teamfield.dynamic", "mf_dynamic_cost", None, None),
    ("dynamic", "teamfield.dynamic", "dynamic_best_response_fixed_flow", None, lambda r: {"exhaustive": int(r.exhaustive)}),
    ("dynamic", "teamfield.dynamic", "simulate_finite_n", _reps(3), None),
)

# Counted, not timed: cost and transition evaluations are too many and too
# short for a span each. (counter name, registry names in core.costs, method)
COUNTED = (
    ("core.costs.static_value.calls", ("STATIC_COST_FAMILIES", "TableCost"), "value"),
    ("core.costs.stage_value.calls", ("DYNAMIC_COST_FAMILIES",), "value"),
    ("core.costs.rows_at.calls", ("TRANSITION_FAMILIES",), "rows_at"),
)

COUNTERS = (
    "parallel.run_ordered.items",
    "mf_static.solve_mf_fixed_point.iterations",
    "mf_static.grid_fixed_point_search.candidates",
    "mf_static.grid_fixed_point_search.hits",
    "finite_n.FiniteGameInstance.cost_tensor.builds",
    "finite_n.team_best_response_exact.candidates",
    "finite_n.mc_cost.episodes",
    "dynamic.dynamic_epsilon_estimate.candidates",
    "dynamic.solve_dynamic_mf_fixed_point.iterations",
    "dynamic.dynamic_best_response_fixed_flow.exhaustive",
    "dynamic.simulate_finite_n.episodes",
)


def span_names() -> list:
    return [f"{layer}.{fn}" for layer, _, fn, _, _ in TIMED]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.job = "setup"  # 'setup' or '<pass>:<job name>'
        self.phase = "setup"  # 'setup' or 'pass'
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pools = []
        self._patches = []  # (owner, attribute, original, replacement)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name, fn, pre, post, pool):
        def wrapper(*args, **kwargs):
            if pool:  # run_ordered may be handed a one-shot iterable
                args = (args[0], list(args[1]), *args[2:])
            counts = pre(args, kwargs) if pre else {}
            stack = self._stack()
            parent = stack[-1] if stack else (self._pools[-1] if self._pools else 0)
            sid = next(self._ids)
            stack.append(sid)
            if pool:
                self._pools.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if pool:
                    self._pools.pop()
                self.spans.append((sid, name, t0, t1, parent, self.job))
            if post:
                counts.update(post(result))
            if counts:
                with self._lock:
                    for k, v in counts.items():
                        self.counts[(self.phase, f"{name}.{k}")] += v
            return result

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def _plan(self) -> list:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "teamfield" or n.startswith("teamfield.")]
        plan = []
        # A function, class or module that a later version of the package no
        # longer has is skipped; its metrics then read 0.
        for layer, module, fn_name, pre, post in TIMED:
            owner = sys.modules.get(module)
            if owner is None:
                continue
            name = f"{layer}.{fn_name}"
            if "." in fn_name:  # a method, wrapped on its class
                cls_name, attr = fn_name.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and attr in vars(cls):
                    plan.append((cls, attr, vars(cls)[attr], self._timed(name, vars(cls)[attr], pre, post, False)))
                continue
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = self._timed(name, original, pre, post, fn_name == "run_ordered")
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        plan.append((m, key, original, wrapper))
        costs = sys.modules["teamfield.core.costs"]
        for counter, registries, attr in COUNTED:
            classes = []
            for reg in registries:
                obj = getattr(costs, reg, {})
                classes.extend(obj.values() if isinstance(obj, dict) else [obj])
            owners = []
            for cls in classes:
                owner = next((k for k in cls.__mro__ if attr in vars(k)), None)
                if owner is not None and owner not in owners:
                    owners.append(owner)
            for owner in owners:
                original = vars(owner)[attr]
                plan.append((owner, attr, original, self._counted(counter, original)))
        return plan

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children = collections.defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, t0, t1, _, _ in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def summary(self, passes: int) -> dict:
        """Per-layer metrics: set-up counted once, passes averaged per pass."""
        weight = {"setup": 1.0, "pass": 1.0 / max(passes, 1)}
        selfs = self.self_times()
        metrics = {}
        for name in span_names():
            for key in ("calls", "s", "self_s"):
                metrics[f"{name}.{key}"] = 0.0
        for sid, name, t0, t1, _, job in self.spans:
            w = weight["setup" if job == "setup" else "pass"]
            metrics[f"{name}.calls"] += w
            metrics[f"{name}.s"] += w * (t1 - t0)
            metrics[f"{name}.self_s"] += w * selfs[sid]
        for counter in COUNTERS + tuple(c for c, _, _ in COUNTED):
            metrics[counter] = sum(w * self.counts.get((phase, counter), 0) for phase, w in weight.items())
        return metrics

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, t0, t1, parent, job in self.spans:
                f.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "job": job, "self_s": selfs[sid]}
                    )
                    + "\n"
                )
