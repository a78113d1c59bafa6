"""``tenants-partitioned``: three tenants on a way-partitioned system cache.

CFM on the CPU, HoK on the GPU and TikT on the NPU, merged by
``(arrival time, device)`` and run with no prefetcher on an SC whose ways
are split evenly between them.  Way partitions send every channel down
the scalar demand loop, so this workload exercises the demand path
(``repro.sim``, ``repro.cache``, ``repro.dram``) and not the prefetcher.
Each tenant is reclocked to a third of its native arrival rate: at full
rate the three streams together outrun the DRAM model and its queue (and
AMAT) grows without bound.  A round is one fresh simulation of the
merged trace: one operation.
"""

from __future__ import annotations

import time
from typing import Dict

from perfbench import checks, lru_model
from perfbench.common import (HostSpeed, Outcome, peak_rss_mb,
                              report_rounds, timed_rounds, traced_rate)
from perfbench.layers import (LayerClock, engine_paths, model_counts,
                              traced_round_seconds)

#: (app, device) of each tenant, in partition order.
TENANTS = (("CFM", "CPU"), ("HoK", "GPU"), ("TikT", "NPU"))
#: Records per tenant.
LENGTH = 30_000
#: Arrival-rate multiplier of every tenant (see the module docstring).
INTENSITY = 1 / 3
PREFETCHER = "none"


class State:
    """The merged trace, its partitioned config and a ready simulator."""

    def __init__(self, seed: int) -> None:
        from repro.config import SimConfig
        from repro.tenancy import TenantSpec
        from repro.tenancy.experiment import partitioned_config
        from repro.tenancy.merge import merge_buffers, tenant_trace

        self.seed = seed
        base = SimConfig.experiment_scale()
        self.specs = [TenantSpec(app, device, length=LENGTH,
                                 seed=seed * len(TENANTS) + index,
                                 intensity=INTENSITY)
                      for index, (app, device) in enumerate(TENANTS)]
        self.setup_layers: Dict[str, float] = {}
        start = time.perf_counter()
        buffers = [tenant_trace(spec, base.layout) for spec in self.specs]
        merged_at = time.perf_counter()
        # merge_traces' own body, split so generation and merge time apart.
        self.trace = merge_buffers(buffers)
        self.setup_layers["trace.generate_s"] = merged_at - start
        self.setup_layers["tenancy.merge_s"] = time.perf_counter() - merged_at
        self.config = partitioned_config(base, self.specs)
        self.ready = self.build()

    def build(self):
        from repro.prefetch.registry import make_prefetcher
        from repro.sim.engine import SystemSimulator

        return SystemSimulator(
            self.config,
            lambda layout, channel: make_prefetcher(PREFETCHER, layout,
                                                    channel))

    def close(self) -> None:
        pass


def prepare(seed: int) -> State:
    return State(seed)


def expected_post_warmup(state: State) -> int:
    """Records past each channel's warm-up window, channel split by hand."""
    layout = state.config.layout
    blocks_per_page = layout.page_size // layout.block_size
    shift = (blocks_per_page // layout.num_channels).bit_length() - 1
    block_shift = layout.block_size.bit_length() - 1
    channels = ((state.trace.addresses >> block_shift)
                & (blocks_per_page - 1)) >> shift
    total = 0
    for channel in range(layout.num_channels):
        count = int((channels == channel).sum())
        total += count - int(count * state.config.warmup_fraction)
    return total


def run(state: State, seconds: float, trace: bool,
        host: HostSpeed) -> Outcome:
    from repro.sim.runner import collect_metrics

    outcome = Outcome()
    clock = LayerClock()
    keep: Dict[str, object] = {}
    records = len(state.trace)

    def one_round() -> dict:
        sim = state.ready or state.build()
        state.ready = None
        # A traced run alternates untraced and traced rounds.
        traced = trace and outcome.attempted % 2 == 1
        if traced:
            clock.instrument(sim)
        outcome.attempted += 1
        try:
            start = time.perf_counter()
            sim.run(state.trace)
            collect_start = time.perf_counter()
            metrics = collect_metrics(sim, "tenants", PREFETCHER)
            end = time.perf_counter()
        except Exception as exc:  # one failed op must not end the run
            outcome.failed += 1
            outcome.details.setdefault("errors", []).append(repr(exc))
            return {"rate": 0.0, "op_s": [], "traced": traced}
        if traced:
            clock.add("sim.collect", end - collect_start)
            keep["traced_sim"] = sim
        if "metrics" not in keep:
            keep["metrics"] = metrics
            keep["sim"] = sim
        else:
            outcome.failures.extend(checks.same_metrics(
                "repeat round", metrics, keep["metrics"]))
        return {"rate": records / (end - start), "op_s": [end - start],
                "traced": traced}

    # A traced run needs one untraced and one traced round at least.
    rounds, factor = timed_rounds(seconds, one_round, host,
                                  min_rounds=2 if trace else 1)
    rss = peak_rss_mb()

    if "metrics" not in keep:
        outcome.fail("no round completed")
        return outcome
    metrics = keep["metrics"]
    stats = keep["sim"].merged_cache_stats()
    cache = state.config.cache
    layout = state.config.layout
    devices = [spec.device_id.value for spec in state.specs]
    model = lru_model.replay(
        state.trace.addresses.tolist(),
        (state.trace.access_types == 0).tolist(),
        state.trace.devices.tolist(),
        block_size=layout.block_size, page_size=layout.page_size,
        num_channels=layout.num_channels, cache_bytes=cache.size_bytes,
        associativity=cache.associativity,
        way_masks=lru_model.even_way_masks(devices, cache.associativity))
    outcome.failures.extend(checks.lru_agreement(model, {
        "demand_accesses": stats.demand_accesses,
        "residency_hits": stats.demand_hits + stats.delayed_hits,
        "writebacks": stats.writebacks}))
    outcome.failures.extend(checks.tenant_sum(metrics.tenant_stats,
                                              expected_post_warmup(state)))

    report_rounds(outcome, rounds, factor, rss)
    outcome.details.update({
        "records_per_round": records, "lru_model": model,
        "sim_amat_cycles": metrics.amat,
        "tenant_amat": {name: entry["amat"] for name, entry
                        in metrics.tenant_stats.items()}})
    if trace and "traced_sim" in keep:
        outcome.traced_rate = traced_rate(rounds, factor)
        outcome.layers.update(clock.report(
            sum(1 for result in rounds if result["traced"])))
        outcome.layers["bench.unaccounted_s"] = (
            traced_round_seconds(rounds) - outcome.layers["sim.run_s"]
            - outcome.layers["sim.collect_s"])
        outcome.layers.update(state.setup_layers)
        outcome.layers.update(model_counts(keep["traced_sim"]))
        outcome.layers.update(engine_paths(keep["traced_sim"]))
        outcome.layers["sim.amat_cycles"] = metrics.amat
    return outcome
