"""Shared pieces of the benchmark: paths, clocks, statistics, result line."""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for checkpoints and server logs; removed after each run.
WORK_ROOT = ROOT / ".perfbench_work"

#: Records in the host-speed reference job, its fixed stream seed, and the
#: job's time on the host the reference numbers come from (2-core x86-64
#: guest, Python 3.11): the speed every host-time metric is reported at.
CALIBRATION_RECORDS = 20_000
CALIBRATION_STREAM_SEED = 20240623
CALIBRATION_REFERENCE_S = 0.045

#: ``ru_maxrss`` is in KiB on Linux.
_KIB_PER_MB = 1024.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def require_program() -> None:
    """Put ``src/`` on the path, or fail when the program is not present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_work_dir(prefix: str) -> Path:
    """A fresh directory under :data:`WORK_ROOT`; see :func:`remove_work_dir`."""
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _KIB_PER_MB


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of another live process, in MB (None if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / _KIB_PER_MB
    except (OSError, ValueError, IndexError):
        return None
    return None


def median(values: List[float]) -> float:
    """The median, or 0.0 for no values (a layer that saw no calls)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-share * len(ordered) // 1)))
    return float(ordered[rank - 1])


@dataclass
class Outcome:
    """What one benchmark run hands back to :func:`emit`."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    #: Per-layer numbers of the traced run, by metric name.
    layers: Dict[str, float] = field(default_factory=dict)
    #: ``records_per_s`` of the traced rounds (traced run only).
    traced_rate: float = 0.0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str) -> None:
        """Record a failed output check (the run is then not correct)."""
        self.failures.append(message)


def emit(outcome: Outcome) -> None:
    """Print the details line, then the result object as the last line."""
    print(json.dumps({"details": outcome.details,
                      "check_failures": outcome.failures},
                     sort_keys=True, default=str))
    result = {
        "correct": not outcome.failures,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    sys.stdout.flush()


class HostSpeed:
    """How fast this host runs right now, against a frozen reference job.

    The host's speed drifts by 20-40 % over tens of seconds (other guests
    on the same machine).  A fixed job -- the benchmark's own LRU model
    replaying a fixed, seed-independent stream -- is timed between rounds
    (and, on ``offline-planaria``, between operations).  The interquartile
    mean of a phase's samples over :data:`CALIBRATION_REFERENCE_S` is the
    phase's slowdown factor; host-time metrics are reported at the
    reference speed, a rate multiplied by the factor and a duration
    divided by it.  The job is benchmark code, so a change to the program
    leaves it alone and still shows in full.
    """

    def __init__(self) -> None:
        rng = random.Random(CALIBRATION_STREAM_SEED)
        hot = 4096
        self._addresses = [
            (rng.randrange(1 << 26) if rng.random() < 0.5
             else rng.randrange(hot)) << 6
            for _ in range(CALIBRATION_RECORDS)]
        self._reads = [rng.random() < 0.7 for _ in range(CALIBRATION_RECORDS)]
        self._devices = [rng.randrange(3) for _ in range(CALIBRATION_RECORDS)]
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the reference job once; returns its host seconds."""
        from perfbench.lru_model import even_way_masks, replay

        start = time.perf_counter()
        replay(self._addresses, self._reads, self._devices, block_size=64,
               page_size=4096, num_channels=4, cache_bytes=131072,
               associativity=16, way_masks=even_way_masks([0, 1, 2], 16))
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor_since(self, first: int) -> float:
        """Slowdown over the samples from index ``first`` on (1.0 = reference)."""
        return interquartile_mean(self.samples[first:]) / CALIBRATION_REFERENCE_S


def timed_rounds(seconds: float, round_fn, host: HostSpeed,
                 min_rounds: int = 1) -> Tuple[List[dict], float]:
    """Run ``round_fn`` whole rounds until ``seconds`` have passed.

    The reference job runs before the first round and after every round.
    Returns the round results and the phase's slowdown factor; at least
    ``min_rounds`` rounds always run.
    """
    results: List[dict] = []
    deadline = time.perf_counter() + seconds
    first = len(host.samples)
    gc.collect()
    host.sample()
    while True:
        results.append(round_fn())
        # Every round starts from the same collector state.
        gc.collect()
        host.sample()
        if time.perf_counter() >= deadline and len(results) >= min_rounds:
            return results, host.factor_since(first)


def interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half: robust like a median, steadier than one."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return float(statistics.fmean(ordered[cut:len(ordered) - cut]))


def report_rounds(outcome: Outcome, results: List[dict], factor: float,
                  rss_mb: Optional[float]) -> None:
    """End-to-end host metrics from the untraced rounds of a phase.

    Each round result carries its raw ``rate`` (records per host second),
    its operations' host seconds ``op_s`` and whether it was ``traced``.
    ``records_per_s`` is the interquartile mean of the raw rates times the
    phase's slowdown ``factor``; ``op_p50_ms`` is the median operation
    time divided by it.  The drift is taken out over the whole phase, not
    round by round: pairing each round with the job timed beside it would
    add the job's own jitter to every round.
    """
    plain = [result for result in results if not result["traced"]]
    rates = [result["rate"] for result in plain]
    ops = [seconds for result in plain for seconds in result["op_s"]]
    outcome.metric("records_per_s", interquartile_mean(rates) * factor,
                   "rec/s")
    outcome.metric("op_p50_ms", median(ops) / factor * 1e3, "ms")
    outcome.metric("peak_rss_mb", rss_mb or 0.0, "MB")
    outcome.details.update({
        "rounds": len(results), "slowdown_factor": factor,
        "raw_round_rates": [result["rate"] for result in results],
        "raw_op_p50_ms": median(ops) * 1e3,
        "operations_per_round": [len(result["op_s"])
                                 for result in results]})


def traced_rate(results: List[dict], factor: float) -> float:
    """``records_per_s`` of the traced rounds, as :func:`report_rounds`."""
    rates = [result["rate"] for result in results if result["traced"]]
    return interquartile_mean(rates) * factor if rates else 0.0


def env_with_src() -> Dict[str, str]:
    """Environment for a child Python that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env
