"""Output checks: each returns a list of failure messages (empty = pass).

Every check compares the program's output with a separate computation
(another engine path, an offline replay, an independent model) or with a
property the method must have.  None compares with a stored copy of an
earlier output.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping


def same_metrics(label: str, got, want) -> List[str]:
    """Two ``RunMetrics`` (or any dataclasses) must be field-for-field equal."""
    got_fields = dataclasses.asdict(got)
    want_fields = dataclasses.asdict(want)
    differing = sorted(name for name in want_fields
                       if got_fields.get(name) != want_fields[name])
    if not differing:
        return []
    shown = ", ".join(f"{name}: {got_fields.get(name)!r} != "
                      f"{want_fields[name]!r}" for name in differing[:3])
    return [f"{label}: {len(differing)} field(s) differ ({shown})"]


def planaria_app(app: str, facts: Mapping[str, float],
                 none_amat: float) -> List[str]:
    """Paper claim plus accounting identities for one Planaria run."""
    failures = []
    if not facts["amat"] < none_amat:
        failures.append(f"{app}: Planaria AMAT {facts['amat']:.3f} is not "
                        f"below no-prefetch AMAT {none_amat:.3f}")
    if facts["prefetch_useful"] > facts["prefetch_fills"]:
        failures.append(f"{app}: prefetch_useful {facts['prefetch_useful']} "
                        f"> prefetch_fills {facts['prefetch_fills']}")
    if facts["demand_hits"] + facts["demand_misses"] != facts["demand_accesses"]:
        failures.append(f"{app}: demand_hits + demand_misses != "
                        f"demand_accesses ({facts['demand_hits']} + "
                        f"{facts['demand_misses']} != "
                        f"{facts['demand_accesses']})")
    if facts["slp_issued"] + facts["tlp_issued"] != facts["issued"]:
        failures.append(f"{app}: slp_issued + tlp_issued != issued "
                        f"({facts['slp_issued']} + {facts['tlp_issued']} "
                        f"!= {facts['issued']})")
    return failures


def lru_agreement(model: Mapping[str, int],
                  program: Mapping[str, int]) -> List[str]:
    """The independent LRU model must match the simulator exactly."""
    pairs = (("accesses", "demand_accesses"),
             ("hits", "residency_hits"),
             ("writebacks", "writebacks"))
    return [f"LRU model {mine} {model[mine]} != program {theirs} "
            f"{program[theirs]}"
            for mine, theirs in pairs if model[mine] != program[theirs]]


def tenant_sum(tenant_stats: Mapping[str, Mapping[str, float]],
               expected: int) -> List[str]:
    """Per-tenant post-warmup accesses must add up to the total."""
    total = sum(int(stats["accesses"]) for stats in tenant_stats.values())
    if total != expected:
        return [f"tenant accesses sum to {total}, expected {expected}"]
    return []


def lineage_fates(totals: Mapping[str, int], prefetch_useful: int,
                  prefetch_unused: int) -> List[str]:
    """Lineage fate totals must reconcile with the session's metrics."""
    failures = []
    used = totals["used_timely"] + totals["used_late"]
    if used != prefetch_useful:
        failures.append(f"lineage used {used} != prefetch_useful "
                        f"{prefetch_useful}")
    if totals["evicted_unused"] != prefetch_unused:
        failures.append(f"lineage evicted_unused {totals['evicted_unused']} "
                        f"!= prefetch_unused {prefetch_unused}")
    fates = (used + totals["evicted_unused"] + totals["invalidated"]
             + totals["resident"])
    if fates != totals["filled"]:
        failures.append(f"lineage fates {fates} != filled {totals['filled']}")
    return failures


def timeline_sums(epoch_sums: Mapping[str, int],
                  totals: Mapping[str, int]) -> List[str]:
    """Summed epoch columns must equal the run's totals."""
    return [f"timeline {name} sums to {epoch_sums.get(name)}, run total is "
            f"{want}" for name, want in totals.items()
            if epoch_sums.get(name) != want]
