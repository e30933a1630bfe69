"""Per-layer tracing of the cooplang package, installed from outside.

`Tracer.installed()` replaces every public module-level function of the
package's layer modules, in every package module that binds its name, by
a wrapper that records a span (name, start, end, parent). Self time is a
span's duration minus the time its child spans cover, kept per name. The
first SPAN_CAP spans of each name are held in memory for the trace file;
past that a name keeps only its call count and summed times.

Three bindings that are not public functions of a layer are traced too:
`scipy.optimize.linprog` as bound in `cooplang.semantics` (the
`semantics.lp` span), `ExperimentConfig.load` (`cli.config_load`) and
`cli.main` (`cli.command`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("games", "community", "semantics", "inference", "data",
          "evaluation", "cli")
SPAN_CAP = 500
ALIASES = {"cli.main": "cli.command"}


class Tracer:
    def __init__(self, clock=time.perf_counter, span_cap: int = SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.spans: list = []          # [name, start, end, parent index]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)  # name -> digests of its inputs
        self._stack: list = []         # [name, start, covered, span index]

    def enter(self, name: str) -> None:
        index = -1
        if self.calls[name] < self.span_cap:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, None, None, parent])
        self.calls[name] += 1
        self._stack.append([name, self.clock(), 0.0, index])

    def exit(self) -> float:
        end = self.clock()
        name, start, covered, index = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][1:3] = [start, end]
        return duration

    @contextlib.contextmanager
    def installed(self):
        """Trace the package while the block runs; restore it afterwards."""
        patches = _patches(self)
        try:
            for target, attr, _, wrapper in patches:
                setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original, _ in reversed(patches):
                setattr(target, attr, original)

    def to_json_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "spans": self.spans,
        }


# --- what a few wrapped calls add besides their span -----------------------

def _cache_size(obj) -> int:
    return len(obj._dist_cache)


def _listener_dist_after(tr, args, kwargs, result, before, duration):
    tr.counters["community.listener_traj_dist.misses"] += (
        _cache_size(args[0]) > before)


def _speaker_sample_after(tr, args, kwargs, result, before, duration):
    if _cache_size(args[0]) > before:
        tr.counters["community.speaker_table.builds"] += 1
        tr.counters["community.speaker_table.s"] += duration


def _save_after(tr, args, kwargs, result, before, duration):
    tr.counters["data.save.bytes"] += os.path.getsize(args[1])


def _load_after(tr, args, kwargs, result, before, duration):
    tr.counters["data.load.records"] += len(result.records)


def _fit_wernicke_after(tr, args, kwargs, result, before, duration):
    tr.counters["inference.records_fitted"] += len(args[0].records)


def _lp_after(tr, args, kwargs, result, before, duration):
    a_eq = kwargs["A_eq"]
    h = hashlib.sha256()
    for part in (args[0], a_eq.data, a_eq.indices, a_eq.indptr,
                 kwargs["b_eq"]):
        h.update(part.tobytes())
    h.update(repr(a_eq.shape).encode())
    tr.distinct["semantics.lp"].add(h.hexdigest())


HOOKS = {
    "community.listener_traj_dist": (lambda a: _cache_size(a[0]),
                                     _listener_dist_after),
    "community.speaker_sample": (lambda a: _cache_size(a[0]),
                                 _speaker_sample_after),
    "data.save": (None, _save_after),
    "data.load": (None, _load_after),
    "inference.fit_wernicke": (None, _fit_wernicke_after),
    "semantics.lp": (None, _lp_after),
}


def _wrap(tr: Tracer, name: str, fn):
    before_fn, after_fn = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = before_fn(args) if before_fn else None
        tr.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tr.exit()
        if after_fn:
            after_fn(tr, args, kwargs, result, before, duration)
        return result

    return wrapper


def _package_modules():
    __import__("cooplang.cli")
    return [m for key, m in sorted(sys.modules.items())
            if key == "cooplang" or key.startswith("cooplang.")]


def _patches(tr: Tracer) -> list:
    """(object, attribute, original, wrapper) for every traced binding."""
    modules = _package_modules()
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"cooplang.{layer}"]
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == module.__name__):
                name = f"{layer}.{attr}"
                originals[id(fn)] = _wrap(tr, ALIASES.get(name, name), fn)
    semantics = sys.modules["cooplang.semantics"]
    originals[id(semantics.linprog)] = _wrap(tr, "semantics.lp",
                                             semantics.linprog)
    patches = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                patches.append((module, attr, value, wrapper))
    config_cls = sys.modules["cooplang.cli"].ExperimentConfig
    load = config_cls.__dict__["load"]
    patches.append((config_cls, "load", load,
                    classmethod(_wrap(tr, "cli.config_load", load.__func__))))
    return patches


# --- per-layer metrics -------------------------------------------------------

def _calls(name):
    return (f"{name}.calls", "count", "lower", lambda t: t.calls[name])


def _self(name):
    return (f"{name}.self_s", "s", "lower", lambda t: t.self_s[name])


def _ratio(num: float, den: float) -> float:
    # no attempts means nothing was wasted
    return num / den if den else 1.0


def _lp_distinct_ratio(t: Tracer) -> float:
    return _ratio(len(t.distinct["semantics.lp"]), t.calls["semantics.lp"])


def _label_hit_ratio(t: Tracer) -> float:
    return 1.0 - _ratio(t.calls["inference.map_target"],
                        t.counters["inference.records_fitted"])


def _counter(metric, unit, better="lower"):
    return (metric, unit, better, lambda t: t.counters[metric])


PER_LAYER = [
    _calls("games.enumerate_trajectories"),
    _self("games.enumerate_trajectories"),
    _calls("games.make_trajectory"),
    _self("games.make_trajectory"),
    _calls("games.step"),
    _calls("games.game_fingerprint"),
    _self("games.game_fingerprint"),
    _self("community.build_community"),
    _calls("community.rollout"),
    _self("community.rollout"),
    _calls("community.speaker_sample"),
    _self("community.speaker_sample"),
    _calls("community.listener_traj_dist"),
    _self("community.listener_traj_dist"),
    ("community.listener_traj_dist.hit_ratio", "ratio", "higher",
     lambda t: 1.0 - _ratio(
         t.counters["community.listener_traj_dist.misses"],
         t.calls["community.listener_traj_dist"])),
    _counter("community.speaker_table.builds", "count"),
    _counter("community.speaker_table.s", "s"),
    _calls("semantics.semantic_distance"),
    _self("semantics.semantic_distance"),
    _calls("semantics.distribution_distance"),
    _self("semantics.distribution_distance"),
    _calls("semantics.trajectory_distance"),
    _self("semantics.trajectory_distance"),
    ("semantics.lp.solves", "count", "lower",
     lambda t: t.calls["semantics.lp"]),
    _self("semantics.lp"),
    ("semantics.lp.distinct_ratio", "ratio", "higher", _lp_distinct_ratio),
    _calls("semantics.optimal_message"),
    _self("semantics.optimal_message"),
    _self("semantics.positive_signalling_test"),
    _self("semantics.positive_listening_test"),
    _calls("inference.map_target"),
    _self("inference.map_target"),
    ("inference.label_hit_ratio", "ratio", "higher", _label_hit_ratio),
    _self("inference.fit_broca"),
    _self("inference.fit_wernicke"),
    _calls("inference.broca_emit"),
    _self("inference.broca_emit"),
    _calls("inference.wernicke_decode"),
    _self("inference.wernicke_decode"),
    _self("data.collect"),
    _self("data.save"),
    _counter("data.save.bytes", "bytes"),
    _self("data.load"),
    _counter("data.load.records", "count"),
    _self("evaluation.eval_speaker"),
    _self("evaluation.eval_listener"),
    _self("cli.config_load"),
    _self("cli.command"),
]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    return {name: get(tr) for name, _, _, get in PER_LAYER}


def layer_units() -> dict[str, str]:
    return {name: unit for name, unit, _, _ in PER_LAYER}
