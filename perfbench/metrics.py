"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` checks that
the two agree.  Every workload prints every metric of its mode: a layer
that is not in play on a workload reads 0 there (see the README's table
of which layer applies where).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.common import Outcome

#: (name, unit, better) of the end-to-end metrics (untraced runs).
END_TO_END: List[Tuple[str, str, str]] = [
    ("records_per_s", "rec/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
]


def _timed(name: str) -> List[Tuple[str, str, str]]:
    return [(f"{name}_s", "s", "lower"), (f"{name}_calls", "count", "lower")]


def _span(name: str) -> List[Tuple[str, str, str]]:
    return [(f"{name}_us_p50", "us", "lower"), (f"{name}_us_p99", "us", "lower"),
            (f"{name}_count", "count", "higher")]


#: (name, unit, better) of the per-layer metrics (traced runs).  Times
#: and call counts are per round of the workload.
PER_LAYER: List[Tuple[str, str, str]] = (
    [("trace.generate_s", "s", "lower"), ("tenancy.merge_s", "s", "lower"),
     ("sim.amat_cycles", "cycles", "lower")]
    + _timed("sim.run")
    + [("sim.engine_self_s", "s", "lower"), ("sim.collect_s", "s", "lower"),
       ("sim.batch_records", "count", "higher"),
       ("sim.scalar_records", "count", "lower")]
    + _timed("cache.access") + _timed("cache.fill") + _timed("dram.service")
    + _timed("sim.metrics_record")
    + _timed("core.observe") + _timed("core.observe_run")
    + _timed("core.issue")
    + [("core.slp_s", "s", "lower"), ("core.tlp_s", "s", "lower"),
       ("core.run_fold_ratio", "rec/call", "higher")]
    + _timed("prefetch.queue_push")
    + [("cache.demand_accesses", "count", "higher"),
       ("cache.demand_hits", "count", "higher"),
       ("cache.delayed_hits", "count", "lower"),
       ("cache.writebacks", "count", "lower"),
       ("cache.prefetch_fills", "count", "lower"),
       ("cache.prefetch_useful", "count", "higher"),
       ("cache.prefetch_accuracy", "ratio", "higher"),
       ("dram.requests", "count", "lower"),
       ("dram.row_hits", "count", "higher"),
       ("dram.row_conflicts", "count", "lower"),
       ("core.issued", "count", "lower"),
       ("core.slp_issued", "count", "higher"),
       ("core.tlp_issued", "count", "lower"),
       ("prefetch.queue_accepted", "count", "higher"),
       ("prefetch.queue_dropped", "count", "lower"),
       ("service.encode_s", "s", "lower")]
    + _span("service.decode") + _span("service.fifo_wait")
    + _span("service.feed_chunk") + _span("service.engine_feed")
    + _span("service.encode")
    + [("service.feed_p50_ms", "ms", "lower"),
       ("service.feed_p99_ms", "ms", "lower"),
       ("service.feed_count", "count", "higher"),
       ("service.checkpoint_ms", "ms", "lower"),
       ("service.checkpoint_bytes", "bytes", "lower"),
       ("service.backpressure_waits", "count", "lower"),
       ("service.chunks", "count", "higher"),
       ("obs.timeline_poll_ms", "ms", "lower"),
       ("obs.lineage_poll_ms", "ms", "lower"),
       ("obs.metrics_text_ms", "ms", "lower"),
       ("obs.metrics_text_bytes", "bytes", "lower"),
       ("obs.lineage_issued", "count", "lower"),
       ("obs.lineage_used_timely", "count", "higher"),
       ("obs.lineage_evicted_unused", "count", "lower"),
       ("bench.unaccounted_s", "s", "lower"),
       ("bench.records_per_s_untraced", "rec/s", "higher"),
       ("bench.records_per_s_traced", "rec/s", "higher"),
       ("bench.tracing_overhead", "ratio", "lower")]
)


def _units(table) -> Dict[str, str]:
    return {name: unit for name, unit, _ in table}


def finish(outcome: Outcome, trace: bool) -> None:
    """Fill ``outcome.metrics`` with exactly the metrics of this mode."""
    if not trace:
        missing = [name for name, _, _ in END_TO_END
                   if name not in outcome.metrics]
        if missing:
            outcome.fail(f"end-to-end metrics not measured: {missing}")
        units = _units(END_TO_END)
        outcome.metrics = {name: outcome.metrics.get(name, (0.0, unit))
                           for name, unit in units.items()}
        return
    layers = dict(outcome.layers)
    untraced = outcome.metrics.get("records_per_s", (0.0, ""))[0]
    traced = outcome.traced_rate
    layers["bench.records_per_s_untraced"] = untraced
    layers["bench.records_per_s_traced"] = traced
    layers["bench.tracing_overhead"] = (1.0 - traced / untraced
                                        if untraced and traced else 0.0)
    outcome.details["layers_not_in_play"] = sorted(
        name for name, _, _ in PER_LAYER if name not in layers)
    outcome.metrics = {name: (float(layers.get(name, 0.0)), unit)
                       for name, unit in _units(PER_LAYER).items()}
