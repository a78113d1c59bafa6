"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Small-size passes of every workload on a held-out seed (one the reference
numbers never use), checks fed perturbed results, and the result-line
contract.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, lru_model, metrics  # noqa: E402
from perfbench.common import (HostSpeed, Outcome, emit,  # noqa: E402
                              require_program)

require_program()

#: Never used by the reference runs (seeds 1-10).
HELD_OUT_SEED = 97


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload's inputs so a round takes about a second."""
    from perfbench import offline, served, tenants

    monkeypatch.setattr(offline, "LENGTH", 12_000)
    monkeypatch.setattr(tenants, "LENGTH", 6_000)
    monkeypatch.setattr(served, "LENGTH", 2_048)
    monkeypatch.setattr(served, "POLL_EVERY", 8)
    monkeypatch.setattr(served, "CHECKPOINT_EVERY", 1)
    return {"offline-planaria": offline, "tenants-partitioned": tenants,
            "served-observed": served}


def _run(module, trace: bool) -> Outcome:
    state = module.prepare(HELD_OUT_SEED)
    try:
        outcome = module.run(state, 0.01, trace, HostSpeed())
    finally:
        state.close()
    outcome.metric("setup_s", 1.0, "s")
    metrics.finish(outcome, trace)
    return outcome


@pytest.mark.parametrize("workload", ["offline-planaria",
                                      "tenants-partitioned",
                                      "served-observed"])
def test_small_pass_checks_hold_on_held_out_seed(small, workload):
    outcome = _run(small[workload], trace=False)
    assert outcome.failures == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert set(outcome.metrics) == {name for name, _, _ in metrics.END_TO_END}
    assert all(value > 0 for value, _ in outcome.metrics.values())


@pytest.mark.parametrize("workload", ["offline-planaria",
                                      "tenants-partitioned",
                                      "served-observed"])
def test_traced_run_reports_every_layer_metric(small, workload):
    outcome = _run(small[workload], trace=True)
    assert outcome.failures == []
    assert set(outcome.metrics) == {name for name, _, _ in metrics.PER_LAYER}
    values = {name: value for name, (value, _) in outcome.metrics.items()}
    assert values["sim.run_s"] > 0
    assert values["bench.records_per_s_traced"] > 0
    assert values["cache.demand_accesses"] > 0
    if workload == "tenants-partitioned":
        assert values["sim.scalar_records"] > 0
        assert values["cache.access_calls"] > 0
        assert values["tenancy.merge_s"] > 0
        assert values["core.issued"] == 0
    else:
        assert values["core.slp_s"] > 0 and values["core.tlp_s"] > 0
        assert (values["core.slp_issued"] + values["core.tlp_issued"]
                == values["core.issued"])
    if workload == "offline-planaria":
        assert values["sim.batch_records"] > 0
        assert values["core.run_fold_ratio"] >= 1.0
    if workload == "served-observed":
        assert values["service.engine_feed_count"] > 0
        assert values["service.checkpoint_bytes"] > 0
        assert values["obs.lineage_issued"] > 0


def test_failed_operations_are_counted(small, monkeypatch):
    from repro.sim.engine import SystemSimulator

    offline = small["offline-planaria"]
    original = SystemSimulator.run
    calls = []

    def flaky(self, records, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected fault")
        return original(self, records, *args, **kwargs)

    monkeypatch.setattr(SystemSimulator, "run", flaky)
    outcome = _run(offline, trace=False)
    assert outcome.attempted == 10
    assert outcome.failed == 1
    assert outcome.failures  # the app that never completed is reported


def test_result_line_has_the_four_keys(capsys):
    outcome = Outcome(attempted=3, failed=1)
    outcome.metric("records_per_s", 12.5, "rec/s")
    emit(outcome)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] == 3 and last["failed"] == 1
    assert last["metrics"]["records_per_s"] == {"value": 12.5,
                                                "unit": "rec/s"}


# ----------------------------------------------------------------------
# Each check fails on a perturbed result
# ----------------------------------------------------------------------
def _planaria_facts():
    return {"amat": 90.0, "prefetch_useful": 40, "prefetch_fills": 50,
            "demand_hits": 70, "demand_misses": 30, "demand_accesses": 100,
            "slp_issued": 20, "tlp_issued": 35, "issued": 55}


def test_planaria_checks_pass_then_fail_when_perturbed():
    assert checks.planaria_app("CFM", _planaria_facts(), 100.0) == []
    for name, delta in (("demand_hits", 1), ("prefetch_useful", 11),
                        ("slp_issued", 1)):
        facts = _planaria_facts()
        facts[name] += delta
        assert checks.planaria_app("CFM", facts, 100.0), name
    assert checks.planaria_app("CFM", _planaria_facts(), 90.0)


def test_same_metrics_flags_changed_amat_and_counts():
    from repro.sim.runner import simulate
    from repro.trace.generator import generate_trace_buffer, get_profile

    trace = generate_trace_buffer(get_profile("CFM"), 2_000,
                                  seed=HELD_OUT_SEED)
    got = simulate(trace, "planaria").metrics
    assert checks.same_metrics("x", got, got) == []
    assert checks.same_metrics(
        "x", dataclasses.replace(got, amat=got.amat + 1e-9), got)
    assert checks.same_metrics(
        "x", dataclasses.replace(got, demand_misses=got.demand_misses + 1),
        got)


def test_lru_model_matches_partitioned_run_and_detects_off_by_one():
    from repro.config import SimConfig
    from repro.sim.runner import simulate
    from repro.tenancy import TenantSpec, merge_traces
    from repro.tenancy.experiment import partitioned_config

    specs = [TenantSpec("CFM", "CPU", 4_000, HELD_OUT_SEED, 0, 1 / 3),
             TenantSpec("HoK", "GPU", 4_000, HELD_OUT_SEED + 1, 0, 1 / 3),
             TenantSpec("TikT", "NPU", 4_000, HELD_OUT_SEED + 2, 0, 1 / 3)]
    base = SimConfig.experiment_scale()
    config = partitioned_config(base, specs)
    trace = merge_traces(specs, base.layout)
    stats = simulate(trace, "none", config=config) \
        .simulator.merged_cache_stats()
    program = {"demand_accesses": stats.demand_accesses,
               "residency_hits": stats.demand_hits + stats.delayed_hits,
               "writebacks": stats.writebacks}
    devices = [spec.device_id.value for spec in specs]
    geometry = dict(block_size=64, page_size=4096, num_channels=4,
                    cache_bytes=config.cache.size_bytes,
                    associativity=config.cache.associativity)
    args = (trace.addresses.tolist(), (trace.access_types == 0).tolist(),
            trace.devices.tolist())
    model = lru_model.replay(*args, **geometry, way_masks=lru_model
                             .even_way_masks(devices, 16))
    assert checks.lru_agreement(model, program) == []
    for name in program:
        perturbed = dict(program)
        perturbed[name] += 1
        assert checks.lru_agreement(model, perturbed), name
    # The model is sensitive to the partitioning it is checking.
    shared = lru_model.replay(*args, **geometry, way_masks={})
    assert checks.lru_agreement(shared, program)


def test_tenant_lineage_and_timeline_checks_fail_when_perturbed():
    stats = {"CPU": {"accesses": 10}, "GPU": {"accesses": 5}}
    assert checks.tenant_sum(stats, 15) == []
    assert checks.tenant_sum(stats, 16)
    totals = {"used_timely": 5, "used_late": 2, "evicted_unused": 3,
              "invalidated": 0, "resident": 1, "filled": 11}
    assert checks.lineage_fates(totals, 7, 3) == []
    assert checks.lineage_fates(totals, 8, 3)
    assert checks.lineage_fates(totals, 7, 2)
    assert checks.lineage_fates(dict(totals, filled=12), 7, 3)
    sums = {"records": 100, "demand_accesses": 100}
    assert checks.timeline_sums(sums, dict(sums)) == []
    assert checks.timeline_sums(sums, dict(sums, demand_accesses=101))


def test_bad_checkpoint_is_reported(small, tmp_path):
    served = small["served-observed"]
    bogus = tmp_path / "torn.ckpt"
    bogus.write_bytes(b"not a checkpoint")
    from repro.config import SimConfig

    outcome = Outcome()
    served._check_checkpoints(SimConfig.experiment_scale(), outcome,
                              [("s", bogus, 64)])
    assert outcome.failures and "torn.ckpt" in outcome.failures[0]


# ----------------------------------------------------------------------
# The benchmark definition
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
    from perfbench.run import WORKLOADS
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "tenants-partitioned", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=str(tmp_path), capture_output=True, text=True,
        timeout=120, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
