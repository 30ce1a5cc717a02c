"""Per-layer tracing from outside the program.

`Tracer.install()` wraps every public function of every scensched module
(a layer is a module) in a timing shim.  The shim replaces the function at
every place a caller looks it up: the defining module and every module that
imported the name (`cli` for nearly everything, `fptas` -> `solve_pseudo`,
`solve_regret_sum` -> `solve_minavg`, `balance` -> `oracle`).  Spans are
kept in memory as (name, phase, start, end, parent) and reduced to the
per-layer metrics once the run is over.  Nothing under `src/` is touched.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

import scensched
from scensched import (
    approx,
    balance,
    cli,
    dp_config,
    dp_minavg,
    dp_minmax,
    generators,
    model,
    oracle,
    two_scenario,
)
from scensched.model import GuardExceeded, ObjectiveKind

from workloads import oracle_assignments

LAYERS = {
    "cli": cli,
    "model": model,
    "oracle": oracle,
    "dp_minmax": dp_minmax,
    "dp_minavg": dp_minavg,
    "dp_config": dp_config,
    "approx": approx,
    "two_scenario": two_scenario,
    "balance": balance,
    "generators": generators,
}
LOOKUP_SITES = (scensched, *LAYERS.values())


def _instance_key(inst):
    return inst.m, inst.weights, inst.scenarios


def _observe_brute_force(args, kwargs, result):
    inst = args[0]
    return oracle_assignments(inst.n, inst.m)


def _observe_solve_pseudo(args, kwargs, result):
    kind = args[1] if len(args) > 1 else kwargs.get("kind", ObjectiveKind.MINMAX)
    return _instance_key(args[0]), kind


def _observe_fptas(args, kwargs, result):
    inst = args[0]
    return _instance_key(inst), max(result.rounded.weights) / inst.max_weight


OBSERVERS = {
    "oracle.brute_force": _observe_brute_force,
    "dp_minmax.solve_pseudo": _observe_solve_pseudo,
    "dp_minmax.fptas": _observe_fptas,
}


@dataclass
class Span:
    name: str
    phase: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _shim(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = Span(name, self.phase, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except GuardExceeded:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return shim

    def install(self) -> None:
        for layer, mod in LAYERS.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or inspect.isgeneratorfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                shim = self._shim(name, fn, OBSERVERS.get(name))
                for site in LOOKUP_SITES:
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, attr, shim)
                            self._undo.append((site, attr, fn))

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._undo):
            setattr(site, attr, fn)
        self._undo.clear()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Reduce the spans of the "ops" phase (plus set-up, for the generators)
    to {metric: (value, unit)}."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)

    def self_time(i):
        return spans[i].duration - sum(spans[c].duration for c in children[i])

    def has_ancestor(s, pred):
        p = s.parent
        while p >= 0:
            if pred(spans[p].name):
                return True
            p = spans[p].parent
        return False

    ops = [i for i, s in enumerate(spans) if s.phase == "ops"]
    by_name = defaultdict(list)
    for i in ops:
        by_name[spans[i].name].append(i)

    def busy(name):
        return sum(spans[i].duration for i in by_name[name]
                   if not has_ancestor(spans[i], name.__eq__))

    def self_s(name):
        return sum(self_time(i) for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    def fails(name):
        return sum(spans[i].failed for i in by_name[name])

    out = {
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }
    for name in ("model.evaluate", "model.disbalance", "model.instance_from_dict",
                 "model.scenario_optima", "oracle.brute_force", "dp_minmax.solve_pseudo",
                 "dp_minavg.solve_minavg", "dp_config.solve_config",
                 "approx.minavg_derandomized", "approx.minmax_all_on_one",
                 "two_scenario.solve_two_scenarios", "balance.hilbert_basis",
                 "balance.equalize_two", "balance.equalize_all", "balance.conjecture_probe"):
        out[f"{name}.busy_s"] = (busy(name), "s")
    for name in ("oracle.brute_force", "dp_minmax.solve_pseudo", "dp_minavg.solve_minavg",
                 "dp_config.solve_config"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("dp_minmax.solve_pseudo", "dp_minavg.solve_minavg", "dp_config.solve_config"):
        out[f"{name}.fails"] = (fails(name), "count")
    out["dp_minmax.fptas.self_s"] = (self_s("dp_minmax.fptas"), "s")
    out["dp_minavg.solve_regret_sum.self_s"] = (self_s("dp_minavg.solve_regret_sum"), "s")

    # Counts computed from the traced calls' inputs and results, not timed.
    out["oracle.assignments"] = (sum(spans[i].info for i in by_name["oracle.brute_force"]
                                     if spans[i].info is not None), "count")
    fptas_spans = [spans[i] for i in by_name["dp_minmax.fptas"] if spans[i].info is not None]
    out["dp_minmax.fptas.weight_scale_max"] = (
        max((s.info[1] for s in fptas_spans), default=0.0), "ratio")
    exact = {}
    for i in by_name["dp_minmax.solve_pseudo"]:
        s = spans[i]
        if (s.info is not None and s.info[1] is ObjectiveKind.MINMAX
                and not has_ancestor(s, "dp_minmax.fptas".__eq__)):
            exact.setdefault(s.info[0], s.duration)
    # 0 when the workload runs no fptas next to an exact min-max solve.
    speedups = [exact[s.info[0]] / s.duration for s in fptas_spans if s.info[0] in exact]
    out["dp_minmax.fptas.speedup_min"] = (min(speedups, default=0.0), "ratio")

    # Exclusive time per layer as a share of all in-process operation time.
    total = sum(spans[i].duration for i in ops if spans[i].parent < 0)
    layer_self = defaultdict(float)
    for i in ops:
        layer_self[_layer(spans[i].name)] += self_time(i)
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_self[layer] / total if total else 0.0, "ratio")

    out["generators.busy_s"] = (sum(
        s.duration for s in spans
        if s.name.startswith("generators.gen_")
        and not has_ancestor(s, lambda n: n.startswith("generators.gen_"))), "s")
    return out
