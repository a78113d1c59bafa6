"""``offline-planaria``: Planaria over all ten Table-2 app profiles.

One fresh ``SystemSimulator`` per app, default engine mode (batch): the
paper's own measurement.  A round simulates every app once; each app's
``run`` plus ``collect_metrics`` is one operation.
"""

from __future__ import annotations

import time
from typing import Dict, List

from perfbench import checks
from perfbench.common import (HostSpeed, Outcome, peak_rss_mb,
                              report_rounds, timed_rounds, traced_rate)
from perfbench.layers import (LayerClock, engine_paths, model_counts,
                              sum_counts, traced_round_seconds)

#: Records per app trace.  Long enough that Planaria's AMAT gain is
#: clear of warm-up effects on every app (the smallest gain seen while
#: building the benchmark was ~7 %), short enough for several rounds.
LENGTH = 30_000
PREFETCHER = "planaria"


class State:
    """Inputs and the first round's simulators, built during set-up."""

    def __init__(self, seed: int) -> None:
        from repro.config import SimConfig
        from repro.trace.generator import (generate_trace_buffer,
                                           get_profile, list_workloads)

        self.seed = seed
        self.config = SimConfig.experiment_scale()
        self.apps: List[str] = list(list_workloads())
        self.setup_layers: Dict[str, float] = {}
        start = time.perf_counter()
        self.traces = {app: generate_trace_buffer(get_profile(app), LENGTH,
                                                  seed=seed,
                                                  layout=self.config.layout)
                       for app in self.apps}
        self.setup_layers["trace.generate_s"] = time.perf_counter() - start
        self.ready = [self.build() for _ in self.apps]

    def build(self, engine_mode: str = "auto"):
        from repro.prefetch.registry import make_prefetcher
        from repro.sim.engine import SystemSimulator

        return SystemSimulator(
            self.config,
            lambda layout, channel: make_prefetcher(PREFETCHER, layout,
                                                    channel),
            engine_mode=engine_mode)

    def close(self) -> None:
        pass


def prepare(seed: int) -> State:
    return State(seed)


def _facts(simulator, metrics) -> Dict[str, float]:
    stats = simulator.merged_cache_stats()
    counts = model_counts(simulator)
    return {
        "amat": metrics.amat,
        "prefetch_useful": metrics.prefetch_useful,
        "prefetch_fills": metrics.prefetch_fills,
        "demand_hits": stats.demand_hits,
        "demand_misses": stats.demand_misses,
        "demand_accesses": stats.demand_accesses,
        "slp_issued": counts["core.slp_issued"],
        "tlp_issued": counts["core.tlp_issued"],
        "issued": counts["core.issued"],
    }


def run(state: State, seconds: float, trace: bool,
        host: HostSpeed) -> Outcome:
    from repro.sim.runner import collect_metrics, simulate

    outcome = Outcome()
    first: Dict[str, object] = {}
    facts: Dict[str, Dict[str, float]] = {}
    clock = LayerClock()
    last: Dict[str, list] = {"counts": [], "paths": []}
    records = len(state.apps) * LENGTH

    def one_round() -> dict:
        sims = state.ready or [state.build() for _ in state.apps]
        state.ready = []
        # A traced run alternates untraced and traced rounds.
        traced = trace and outcome.attempted // len(state.apps) % 2 == 1
        if traced:
            for sim in sims:
                clock.instrument(sim)
        elapsed = 0.0
        op_s, counts, paths = [], [], []
        for app, sim in zip(state.apps, sims):
            outcome.attempted += 1
            try:
                start = time.perf_counter()
                sim.run(state.traces[app])
                collect_start = time.perf_counter()
                metrics = collect_metrics(sim, app, PREFETCHER)
                end = time.perf_counter()
            except Exception as exc:  # one failed op must not end the run
                outcome.failed += 1
                outcome.details.setdefault("errors", []).append(
                    f"{app}: {exc!r}")
                continue
            elapsed += end - start
            op_s.append(end - start)
            host.sample()
            if traced:
                clock.add("sim.collect", end - collect_start)
                counts.append(model_counts(sim))
                paths.append(engine_paths(sim))
            if app not in first:
                first[app] = metrics
                facts[app] = _facts(sim, metrics)
            else:
                outcome.failures.extend(checks.same_metrics(
                    f"{app} repeat round", metrics, first[app]))
        if traced:
            last["counts"], last["paths"] = counts, paths
        return {"rate": records / elapsed if elapsed else 0.0,
                "op_s": op_s, "traced": traced}

    # A traced run needs one untraced and one traced round at least.
    rounds, factor = timed_rounds(seconds, one_round, host,
                                  min_rounds=2 if trace else 1)
    rss = peak_rss_mb()

    # Checks, outside the timed phase.
    for app in state.apps:
        if app in facts:
            none = simulate(state.traces[app], "none", workload_name=app,
                            config=state.config).metrics
            outcome.failures.extend(checks.planaria_app(app, facts[app],
                                                        none.amat))
    oracle_app = state.apps[state.seed % len(state.apps)]
    if oracle_app in first:
        oracle = state.build(engine_mode="scalar")
        oracle.run(state.traces[oracle_app], columnar=False)
        outcome.failures.extend(checks.same_metrics(
            f"{oracle_app} batch vs step() oracle", first[oracle_app],
            collect_metrics(oracle, oracle_app, PREFETCHER)))
    if len(first) != len(state.apps):
        outcome.fail(f"{len(state.apps) - len(first)} app(s) never completed")

    amat_total = sum(facts[app]["amat"] for app in facts)
    report_rounds(outcome, rounds, factor, rss)
    outcome.details.update({
        "oracle_app": oracle_app, "records_per_round": records,
        "sim_amat_cycles": amat_total,
        "amat_by_app": {app: facts[app]["amat"] for app in facts}})
    if trace:
        outcome.traced_rate = traced_rate(rounds, factor)
        outcome.layers.update(clock.report(
            sum(1 for result in rounds if result["traced"])))
        outcome.layers["bench.unaccounted_s"] = (
            traced_round_seconds(rounds) - outcome.layers["sim.run_s"]
            - outcome.layers["sim.collect_s"])
        outcome.layers.update(state.setup_layers)
        outcome.layers.update(sum_counts(last["counts"]))
        outcome.layers.update(sum_counts(last["paths"]))
        outcome.layers["sim.amat_cycles"] = amat_total
    return outcome
