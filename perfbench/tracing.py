"""Spans and counters recorded around calls into the demandrec package.

The tracer never edits the package: it replaces the bindings a caller looks
a function up by (``demandrec.cli.ingest_purchases``, a class attribute such
as ``RecencyIndex.query``, or ``numpy.linalg.qr`` as reached from
``demandrec.utility``) with a wrapper that records a span, and puts every
original back in :meth:`Tracer.restore`.  A target that no longer exists is
reported as absent instead of failing the run.

A span is ``(id, parent_id, name, start_ns, end_ns)``; spans stay in memory
until the run writes them out.  Self time of a span is its duration minus
the union of its children's intervals clipped to it, so overlapping children
are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``name`` is the metric prefix (``<layer>.<function>``), ``module`` the
    module that defines it and ``attr`` its attribute path there
    (``"fit"``, ``"RecencyIndex.query"``).  ``count_only`` records calls
    without spans, for functions called too often to time one by one.
    ``hook`` derives extra counts from the call's arguments and result.
    """

    name: str
    module: str
    attr: str
    count_only: bool = False
    hook: "_Hook | None" = None


class _Hook:
    """Callbacks run around one wrapped call; they see the tracer."""

    def before(self, tracer, args, kwargs):
        pass

    def after(self, tracer, args, kwargs, result):
        pass


class _PairValuesHook(_Hook):
    # pair_values(U, sigma, V, pair_users, pair_items): every pair reads one
    # row of U and of V (8k bytes each) and two int64 indices, writes one
    # float64: 16k + 24 bytes computed per pair.
    def before(self, tracer, args, kwargs):
        if len(args) < 5:
            return
        pairs, rank = len(args[3]), len(args[1])
        tracer.counts["kernels.pair_values.pairs"] += pairs
        tracer.counts["kernels.pair_values.bytes_computed"] += pairs * (16 * rank + 24)


class _GradientStepHook(_Hook):
    # each attempted step of update_X builds one gradient step at the
    # current gamma; a halving shows up as a new gamma value
    def before(self, tracer, args, kwargs):
        gamma = kwargs.get("gamma", args[3] if len(args) > 3 else None)
        if tracer.gammas is not None and gamma is not None:
            tracer.gammas.append(gamma)


class _UpdateXHook(_Hook):
    def before(self, tracer, args, kwargs):
        tracer.gammas = []

    def after(self, tracer, args, kwargs, result):
        gammas, tracer.gammas = tracer.gammas, None
        if not gammas:
            return
        halvings = len(set(gammas)) - 1
        tracer.counts["utility.update_X.halvings"] += halvings
        tracer.counts["utility.update_X.accepted"] += len(gammas) - halvings
        tracer.values["utility.rank"] = getattr(result, "rank", 0)


class _FitHook(_Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.counts["driver.fit.outer_iters"] += result[1].iterations


class _MetricHook(_Hook):
    # metric(model, rec, test_users, test_items, test_slots, ...)
    def before(self, tracer, args, kwargs):
        users = args[2] if len(args) > 2 else kwargs.get("test_users")
        if users is not None:
            tracer.counts["evaluate.records"] += len(users)


def _targets(layer: str, module: str, *names, **options):
    return [Target(f"{layer}.{name}", module, name, **options) for name in names]


TARGETS = [
    *_targets("synthetic", "demandrec.synthetic", "generate"),
    *_targets("data", "demandrec.data", "ingest_purchases", "ingest_categories",
              "split_train_test", "export_log", "load_log", "_build_log"),
    Target("data.RecencyIndex", "demandrec.data", "RecencyIndex.__init__"),
    Target("data.RecencyIndex.query", "demandrec.data", "RecencyIndex.query", count_only=True),
    Target("kernels.pair_values", "demandrec.kernels", "pair_values",
           hook=_PairValuesHook()),
    *_targets("kernels", "demandrec.kernels", "hinge_stats", "strict_prev_gap", "sweep_min"),
    *_targets("durations", "demandrec.durations", "build_worksets", "update_durations"),
    *_targets("utility", "demandrec.utility", "compute_targets"),
    Target("utility.gradient_step", "demandrec.utility", "gradient_step",
           hook=_GradientStepHook()),
    *_targets("utility", "demandrec.utility", "randomized_svd", "hinge_objective"),
    Target("utility.update_X", "demandrec.utility", "update_X", hook=_UpdateXHook()),
    Target("utility.qr", "demandrec.utility", "np.linalg.qr"),
    Target("driver.fit", "demandrec.driver", "fit", hook=_FitHook()),
    *_targets("driver", "demandrec.driver", "init_utility", "save_model", "load_model"),
    *[Target(f"evaluate.{name}", "demandrec.evaluate", name, hook=_MetricHook())
      for name in ("category_prediction_metric", "time_prediction_metric",
                   "item_prediction_metric")],
    *_targets("evaluate", "demandrec.evaluate", "recommend_topn"),
    *_targets("cli", "demandrec.cli", "cmd_synth", "cmd_train", "cmd_evaluate",
              "cmd_recommend"),
]

# counts derived by the hooks, and the tracer's own figures:
# name -> (unit, better)
EXTRA_METRICS = {
    "kernels.pair_values.pairs": ("count", "lower"),
    "kernels.pair_values.bytes_computed": ("bytes", "lower"),
    "utility.update_X.halvings": ("count", "lower"),
    "utility.update_X.accepted": ("count", "higher"),
    "utility.update_X.accept_ratio": ("ratio", "higher"),
    "utility.rank": ("count", "lower"),
    "driver.fit.outer_iters": ("count", "lower"),
    "evaluate.records": ("count", "higher"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.absent": ("count", "lower"),
}


def per_layer_spec() -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    spec = {}
    for target in TARGETS:
        spec[f"{target.name}.calls"] = ("count", "lower")
        if not target.count_only:
            spec[f"{target.name}.s"] = ("s", "lower")
            spec[f"{target.name}.self_s"] = ("s", "lower")
    spec.update(EXTRA_METRICS)
    return spec


class _ModuleProxy(types.ModuleType):
    """Stand-in for a module whose attributes are looked up at call time,
    with some of them replaced.  Unknown attributes fall through."""

    def __init__(self, target: types.ModuleType, overrides: dict):
        super().__init__(target.__name__, target.__doc__)
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans and counts from wrapped calls, plus the patches to undo."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.values: dict = {}
        self.gammas: list | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []  # open spans; the package runs on one thread
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, count_only: bool = False, hook: _Hook | None = None):
        """A wrapper around ``fn`` recording one span (or one count) per call."""
        calls_key = f"{name}.calls"
        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls_key] += 1
            if hook is not None:
                hook.before(self, args, kwargs)
            stack = self._stack
            span_id = len(self.spans)
            parent = stack[-1] if stack else -1
            self.spans.append(None)  # reserve the id so children sort after
            stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
            if hook is not None:
                hook.after(self, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets) -> None:
        """Wrap every target that exists; record the others as absent."""
        for target in targets:
            if target.name == "utility.qr":
                found = self._install_qr(target)
            else:
                found = self._install(target)
            if not found:
                self.absent.append(target.name)

    def _install(self, target: Target) -> bool:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        owner_path, _, attr = target.attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        if owner is None or attr not in getattr(owner, "__dict__", {}):
            return False
        original = owner.__dict__[attr]
        wrapper = self.wrap(target.name, original, target.count_only, target.hook)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return True
        # a module-level function: rebind it wherever the package imported it
        package = target.module.split(".")[0]
        for mod in _package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
        return True

    def _install_qr(self, target: Target) -> bool:
        """``numpy.linalg.qr`` as ``demandrec.utility`` reaches it: through
        ``np.linalg.qr``, a ``linalg`` module binding or a bare ``qr``."""
        import numpy

        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        qr = self.wrap(target.name, numpy.linalg.qr)
        linalg = _ModuleProxy(numpy.linalg, {"qr": qr})
        found = False
        for key, value in list(vars(module).items()):
            if value is numpy:
                self._set(module, key, _ModuleProxy(numpy, {"linalg": linalg}))
            elif value is numpy.linalg:
                self._set(module, key, linalg)
            elif value is numpy.linalg.qr:
                self._set(module, key, qr)
            else:
                continue
            found = True
        return found

    def restore(self) -> None:
        """Put back every original binding, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports ------------------------------------------------------------

    def finished_spans(self) -> list[tuple]:
        return [span for span in self.spans if span is not None]

    def metrics(self, untraced_s: float, traced_s: float) -> dict:
        """Every per-layer metric, zero for functions never called."""
        spans = self.finished_spans()
        timed = [t.name for t in TARGETS if not t.count_only]
        out = {name: 0 for name in per_layer_spec()}
        out.update(layer_metrics(spans, timed))
        out.update(self.counts)
        out.update(self.values)
        attempts = out["utility.update_X.accepted"] + out["utility.update_X.halvings"]
        if attempts:
            out["utility.update_X.accept_ratio"] = out["utility.update_X.accepted"] / attempts
        out["trace.untraced_s"] = untraced_s
        out["trace.traced_s"] = traced_s
        out["trace.overhead_s"] = traced_s - untraced_s
        out["trace.absent"] = len(self.absent)
        return out


def _package_modules(package: str):
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    ]


def _union_ns(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time of each span id: duration minus the union of its
    children's intervals, each child clipped to the parent."""
    by_id = {span[0]: span for span in spans}
    children = defaultdict(list)
    for span_id, parent, _, start, end in spans:
        if parent in by_id:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end in spans:
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(span_id, ())
            if min(e, end) > max(s, start)
        ]
        out[span_id] = (end - start) - _union_ns(clipped)
    return out


def layer_metrics(spans, names) -> dict:
    """``<name>.s`` (busy time: union of the name's spans) and
    ``<name>.self_s`` (summed self time) for every name, in seconds."""
    selfs = self_times(spans)
    intervals = defaultdict(list)
    self_ns = Counter()
    for span_id, _, name, start, end in spans:
        intervals[name].append((start, end))
        self_ns[name] += selfs[span_id]
    out = {}
    for name in names:
        out[f"{name}.s"] = _union_ns(intervals.get(name, ())) / 1e9
        out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    return out
