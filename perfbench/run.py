"""Benchmark entry point.

    python3 perfbench/run.py --workload offline-planaria --seed 1 \\
        --seconds 20 --trace 0

Runs one workload for ``--seconds`` of timed rounds, checks its outputs,
and prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics (see
``perfbench/README.md``).  The line before it carries details: the seed,
provenance, per-round figures and any check failures.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before imports)
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import (ROOT, BenchError, HostSpeed,  # noqa: E402
                              Outcome, emit, median, require_program)

WORKLOADS = ("offline-planaria", "tenants-partitioned", "served-observed")

#: Fresh-process set-ups measured per untraced run; ``setup_s`` is their
#: median.
SETUP_PROBES = 3
#: A set-up probe that takes longer than this has hung.
PROBE_TIMEOUT_S = 60


def _module(workload: str):
    if workload == "offline-planaria":
        from perfbench import offline
        return offline
    if workload == "tenants-partitioned":
        from perfbench import tenants
        return tenants
    from perfbench import served
    return served


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=str(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            _, stderr = child.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            child.kill()
            child.wait()
            raise
    if line.strip() != "ready" or child.returncode != 0:
        raise BenchError(f"set-up probe failed ({child.returncode}): "
                         f"{stderr.strip()[-500:]}")
    return elapsed


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        require_program()
        if args.setup_probe:
            state = _module(args.setup_probe).prepare(args.seed)
            print("ready", flush=True)
            state.close()
            return 0
        return _run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    from repro.utils.provenance import runtime_provenance

    from perfbench.metrics import finish

    module = _module(args.workload)
    state = module.prepare(args.seed)
    own_setup = time.perf_counter() - _PROCESS_START
    host = HostSpeed()
    try:
        outcome: Outcome = module.run(state, args.seconds, bool(args.trace),
                                      host)
    finally:
        state.close()
    setups = []
    if not args.trace:
        # The probes are bracketed by the host-speed job, like rounds.
        first = len(host.samples)
        host.sample()
        for _ in range(SETUP_PROBES):
            setups.append(_probe_setup(args.workload, args.seed))
            host.sample()
        outcome.metric("setup_s", median(setups) / host.factor_since(first),
                       "s")
    outcome.details.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_probes_s": setups, "own_setup_s": own_setup,
        "host_reference_job_s": host.samples,
        "provenance": runtime_provenance(benchmark="perfbench")})
    finish(outcome, bool(args.trace))
    emit(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
