"""Per-layer timing for the traced run, measured from outside the program.

Wrappers are installed as *instance* attributes on public layer objects
after construction and before a run: the engine binds ``self.cache.access``
and friends when a run starts, so it calls the wrapper without any change
to the program.  A layer the engine inlines (the batch loops fuse cache,
DRAM and metric work) is simply never called, and its time shows up in
``sim.engine_self_s`` instead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, Iterable

#: Engine-level children whose time is subtracted from ``sim.run`` to
#: give the engine's self time.  The SLP/TLP split is nested inside the
#: ``core.*`` calls and is therefore not listed.
ENGINE_CHILDREN = ("cache.access", "cache.fill", "dram.service",
                   "sim.metrics_record", "core.observe", "core.observe_run",
                   "core.issue", "prefetch.queue_push")

#: Timed layer calls reported as ``<name>_s`` and ``<name>_calls``.
TIMED_LAYERS = ENGINE_CHILDREN + ("sim.run",)

_SUB_METHODS = ("observe_fields", "observe_run", "issue", "has_pattern")


class LayerClock:
    """Accumulates host seconds and call counts per layer name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` by a timing wrapper (instance attribute)."""
        original = getattr(obj, attr, None)
        if original is None:
            return
        seconds = self.seconds
        calls = self.calls
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1

        setattr(obj, attr, timed)

    def wrap_observe_run(self, prefetcher) -> None:
        """Like :meth:`wrap`, also counting the records each call folds."""
        original = getattr(prefetcher, "observe_run", None)
        if original is None:
            return
        seconds = self.seconds
        calls = self.calls
        clock = time.perf_counter

        def timed(page, offsets, times):
            start = clock()
            try:
                return original(page, offsets, times)
            finally:
                seconds["core.observe_run"] += clock() - start
                calls["core.observe_run"] += 1
                calls["core.observe_run_records"] += len(offsets)

        prefetcher.observe_run = timed

    def add(self, name: str, elapsed: float, calls: int = 1) -> None:
        self.seconds[name] += elapsed
        self.calls[name] += calls

    def instrument(self, simulator) -> None:
        """Wrap every layer of a constructed ``SystemSimulator``."""
        self.wrap(simulator, "run", "sim.run")
        self.wrap(simulator, "feed", "sim.run")
        for channel in simulator.channels:
            self.wrap(channel.cache, "access", "cache.access")
            self.wrap(channel.cache, "fill", "cache.fill")
            self.wrap(channel.dram, "service_scalar", "dram.service")
            self.wrap(channel.metrics, "record", "sim.metrics_record")
            self.wrap(channel.queue, "push", "prefetch.queue_push")
            prefetcher = channel.prefetcher
            self.wrap(prefetcher, "observe", "core.observe")
            self.wrap_observe_run(prefetcher)
            self.wrap(prefetcher, "issue", "core.issue")
            for part in ("slp", "tlp"):
                sub = getattr(prefetcher, part, None)
                if sub is not None:
                    for method in _SUB_METHODS:
                        self.wrap(sub, method, f"core.{part}")

    def report(self, rounds: int) -> Dict[str, float]:
        """Per-round seconds and calls of every timed layer, plus splits."""
        per = max(rounds, 1)
        out: Dict[str, float] = {}
        for name in TIMED_LAYERS:
            out[f"{name}_s"] = self.seconds.get(name, 0.0) / per
            out[f"{name}_calls"] = self.calls.get(name, 0) / per
        for name in ("core.slp", "core.tlp", "sim.collect"):
            out[f"{name}_s"] = self.seconds.get(name, 0.0) / per
        children = sum(self.seconds.get(name, 0.0)
                       for name in ENGINE_CHILDREN)
        out["sim.engine_self_s"] = (self.seconds.get("sim.run", 0.0)
                                    - children) / per
        single = self.calls.get("core.observe", 0)
        observe_calls = single + self.calls.get("core.observe_run", 0)
        observed = single + self.calls.get("core.observe_run_records", 0)
        out["core.run_fold_ratio"] = (observed / observe_calls
                                      if observe_calls else 0.0)
        return out


def traced_round_seconds(rounds) -> float:
    """Mean timed host seconds of the traced rounds of ``timed_rounds``."""
    traced = [sum(result["op_s"]) for result in rounds
              if result["traced"]]
    return sum(traced) / len(traced) if traced else 0.0


def engine_paths(simulator) -> Dict[str, int]:
    """Records per engine path, from each channel's mode and lineage hook."""
    batch = scalar = 0
    for channel in simulator.channels:
        seen = channel._records_seen
        if channel.engine_mode == "batch" and channel.lineage is None:
            batch += seen
        else:
            scalar += seen
    return {"sim.batch_records": batch, "sim.scalar_records": scalar}


def model_counts(simulator) -> Dict[str, float]:
    """Exact counts of the modelled components, read from public stats."""
    cache = simulator.merged_cache_stats()
    dram = simulator.merged_dram_stats()
    queue = simulator.merged_queue_stats()
    slp = tlp = 0
    for channel in simulator.channels:
        slp += getattr(channel.prefetcher, "slp_issues", 0)
        tlp += getattr(channel.prefetcher, "tlp_issues", 0)
    useful = cache.useful_total()
    return {
        "cache.demand_accesses": cache.demand_accesses,
        "cache.demand_hits": cache.demand_hits,
        "cache.delayed_hits": cache.delayed_hits,
        "cache.writebacks": cache.writebacks,
        "cache.prefetch_fills": cache.prefetch_fills,
        "cache.prefetch_useful": useful,
        "cache.prefetch_accuracy": (useful / cache.prefetch_fills
                                    if cache.prefetch_fills else 0.0),
        "dram.requests": dram.total_requests,
        "dram.row_hits": dram.row_hits,
        "dram.row_conflicts": dram.row_conflicts,
        "core.issued": simulator.total_prefetch_issued(),
        "core.slp_issued": slp,
        "core.tlp_issued": tlp,
        "prefetch.queue_accepted": queue.accepted,
        "prefetch.queue_dropped": (queue.dropped_duplicate
                                   + queue.dropped_degree
                                   + queue.dropped_full),
    }


def sum_counts(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Sum per-run counts of several runs (accuracy recomputed)."""
    total: Dict[str, float] = defaultdict(float)
    for part in parts:
        for name, value in part.items():
            total[name] += value
    if "cache.prefetch_fills" in total:
        fills = total["cache.prefetch_fills"]
        total["cache.prefetch_accuracy"] = (
            total["cache.prefetch_useful"] / fills if fills else 0.0)
    return dict(total)
