"""Spans for the benchmark's traced runs, and the per-layer metrics derived from them.

A traced run replaces every fedpsd function bound in a module's
namespace with a wrapper that records one span per call: its name
(``<layer>.<function>``), start, end, parent span and thread. Layers
are the package modules, so a span's layer is the module that defines
the function. Spans stay in memory and are written out once, when the
run ends; the parent process derives the metrics. Only the names the
modules look up at call time are wrapped, so ``src/`` is untouched and
calls a module makes through its own globals are seen, while an nn
function calling another nn function directly is part of its caller.

This module imports nothing outside the standard library, so the
benchmark's parent process can use it without loading numpy.
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
import types

LAYERS = ("config", "data", "nn", "psd", "engine", "metrics")


class Tracer:
    """Wraps module-level names and collects one span per wrapped call.

    A span opened on a worker thread with nothing open on that thread
    takes as parent the innermost span open on the thread that created
    the tracer: the engine's thread pool runs client training while the
    main thread waits inside ``run_round``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent record or None, thread]
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack
        self._counters: dict[str, itertools.count] = {}

    def wrap(self, fn, name: str):
        spans = self.spans
        local = self._local
        main_stack = self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            record = [name, clock(), 0.0, parent, threading.get_ident()]
            spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self, module) -> None:
        """Wrap every fedpsd function bound in ``module``'s namespace."""
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith("fedpsd."):
                layer = obj.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(obj, f"{layer}.{obj.__name__}"))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = getattr(owner, attr)
        counter = self._counters[name] = itertools.count()

        def counted(*args, **kwargs):
            next(counter)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def dump(self, path) -> None:
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [name, start, end, -1 if parent is None else index[id(parent)], thread]
            for name, start, end, parent, thread in self.spans
        ]
        # next() on a count returns how many calls came before it.
        counts = {name: next(counter) for name, counter in self._counters.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": counts}, fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("config.parse_s", "s"),
    ("data.total_s", "s"),
    ("data.self_s", "s"),
    ("data.load_s", "s"),
    ("data.partition_s", "s"),
    ("data.test_split_s", "s"),
    ("nn.total_s", "s"),
    ("nn.self_s", "s"),
    ("nn.forward_s", "s"),
    ("nn.backprop_s", "s"),
    ("nn.softmax_ce_s", "s"),
    ("nn.sgd_step_s", "s"),
    ("nn.sgd_step_us.p50", "us"),
    ("nn.steps", "count"),
    ("nn.model_params_built", "count"),
    ("nn.eval_forward_s", "s"),
    ("psd.total_s", "s"),
    ("psd.self_s", "s"),
    ("psd.local_train_s", "s"),
    ("psd.local_train_self_s", "s"),
    ("psd.kd_s", "s"),
    ("psd.history_s", "s"),
    ("engine.total_s", "s"),
    ("engine.self_s", "s"),
    ("engine.client_train_s", "s"),
    ("engine.train_phase_s", "s"),
    ("engine.train_overlap", "ratio"),
    ("engine.local_train_baseline_self_s", "s"),
    ("engine.sweep_s", "s"),
    ("engine.local_eval_s", "s"),
    ("engine.server_eval_s", "s"),
    ("engine.aggregate_s", "s"),
    ("metrics.write_s", "s"),
    ("trace_overhead", "ratio"),
)

# Counts that must repeat exactly across traced runs of one workload.
EXACT = ("nn.steps", "nn.model_params_built")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but ``trace_overhead``).

    Times are totals over the run in seconds, summed over threads, so
    with several workers a layer can be busy for longer than the run
    lasted. A layer's total counts each of its spans not nested in
    another span of the same layer; its self time subtracts the union of
    each span's children, so children that overlap on worker threads
    are not subtracted twice.
    """
    rows = trace["spans"]
    n = len(rows)
    names = [r[0] for r in rows]
    starts = [r[1] for r in rows]
    ends = [r[2] for r in rows]
    parents = [r[3] for r in rows]
    durations = [e - s for s, e in zip(starts, ends)]
    layers = [name.split(".", 1)[0] for name in names]
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}

    children: list[list[int]] = [[] for _ in range(n)]
    outer = [0] * n  # bitmask of the layers of a span's ancestors
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
            outer[i] = outer[p] | bit[layers[p]]
    self_time = [
        durations[i] - _union_length(
            [(max(starts[c], starts[i]), min(ends[c], ends[i])) for c in children[i]]
        )
        if children[i] else durations[i]
        for i in range(n)
    ]

    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def total(name, parent_name=None):
        return sum(
            durations[i] for i in by_name.get(name, ())
            if parent_name is None or (parents[i] >= 0 and names[parents[i]] == parent_name)
        )

    def self_of(name):
        return sum(self_time[i] for i in by_name.get(name, ()))

    out: dict[str, float] = {}
    for layer in ("data", "nn", "psd", "engine"):
        out[f"{layer}.total_s"] = sum(
            durations[i] for i in range(n) if layers[i] == layer and not outer[i] & bit[layer]
        )
        out[f"{layer}.self_s"] = sum(self_time[i] for i in range(n) if layers[i] == layer)

    out["config.parse_s"] = total("config.parse_config")
    out["data.load_s"] = total("data.load_idx_files") + total("data.synth_generate")
    out["data.partition_s"] = total("data.partition_sharding") + total("data.partition_dirichlet")
    out["data.test_split_s"] = total("data.client_test_split")

    steps = [durations[i] for i in by_name.get("nn.sgd_step", ())]
    out["nn.forward_s"] = total("nn._forward_cached")
    out["nn.backprop_s"] = total("nn._backprop_from_acts")
    out["nn.softmax_ce_s"] = total("nn.softmax_ce")
    out["nn.sgd_step_s"] = sum(steps)
    out["nn.sgd_step_us.p50"] = statistics.median(steps) * 1e6 if steps else 0.0
    out["nn.steps"] = len(steps)
    out["nn.model_params_built"] = trace["counts"]["nn.model_params_built"]
    out["nn.eval_forward_s"] = total("nn.forward")

    out["psd.local_train_s"] = total("psd.local_train_fedpsd")
    out["psd.local_train_self_s"] = self_of("psd.local_train_fedpsd")
    out["psd.kd_s"] = total("psd._kd_rows")
    # Everything after the last optimizer step: the post-training
    # forward over the local set and the new ClientHistory.
    out["psd.history_s"] = sum(
        ends[i] - max((ends[c] for c in children[i] if names[c] == "nn.sgd_step"), default=starts[i])
        for i in by_name.get("psd.local_train_fedpsd", ())
    )

    phase = 0.0
    for i in by_name.get("engine.run_round", ()):
        trainers = [c for c in children[i] if names[c] == "engine._train_one"]
        if trainers:
            phase += max(ends[c] for c in trainers) - min(starts[c] for c in trainers)
    out["engine.client_train_s"] = total("engine._train_one")
    out["engine.train_phase_s"] = phase
    out["engine.train_overlap"] = out["engine.client_train_s"] / phase if phase else 0.0
    out["engine.local_train_baseline_self_s"] = self_of("engine.local_train_baseline")
    out["engine.sweep_s"] = total("engine._all_client_sweep")
    out["engine.local_eval_s"] = total("engine._local_accuracy", "engine.run_round")
    out["engine.server_eval_s"] = (
        total("nn.forward", "engine.run_round") + total("nn.top1_accuracy", "engine.run_round")
    )
    out["engine.aggregate_s"] = total("engine.aggregate")
    out["metrics.write_s"] = total("metrics.write")
    return {name: value if name in EXACT else float(value) for name, value in out.items()}
