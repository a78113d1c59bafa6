"""``served-observed``: one observed Planaria session on a ``repro serve``.

The server runs as a subprocess with two worker threads and a checkpoint
directory.  The client is this process: one thread, two connections, and
a fixed schedule.  The feeder connection streams one app's trace in small
chunks into a session opened with lineage and epoch timelines.  After
every ``POLL_EVERY`` acknowledged feeds the watcher connection polls
``timeline``, ``lineage`` and ``metrics_text`` the way ``repro watch``
does, and every ``CHECKPOINT_EVERY``-th poll it also requests a
checkpoint.  A round is one session from ``open`` to ``close``; every
request is one operation.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import checks
from perfbench.common import (ROOT, BenchError, HostSpeed, Outcome,
                              env_with_src, make_work_dir, median,
                              percentile, process_peak_rss_mb,
                              remove_work_dir, report_rounds, timed_rounds,
                              traced_rate)
from perfbench.layers import LayerClock, engine_paths, model_counts

APP = "CFM"
#: Records per session; ``LENGTH / CHUNK`` feeds per round.
LENGTH = 16_384
#: Records per feed request.
CHUNK = 64
#: Epoch size (records per channel) of the session's timeline.
EPOCH_RECORDS = 1024
POLL_EVERY = 32
CHECKPOINT_EVERY = 4
WORKER_THREADS = 2
#: Above ``POLL_EVERY``, so a feed is acknowledged without waiting for the
#: engine: every poll drains the session, and the feeds between two polls
#: fit in the queue.  A feed's round trip then measures request handling
#: beside a busy engine.  At the server's default of 4 the feeder blocks
#: on the engine in some runs and not in others (a scheduling race), and
#: the median feed latency jumps between ~0.3 ms and ~2 ms.
MAX_INFLIGHT = 64
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0
PREFETCHER = "planaria"

#: Server span name -> per-layer metric prefix.
SPAN_METRICS = {
    "request.decode": "service.decode",
    "session.fifo_wait": "service.fifo_wait",
    "session.feed_chunk": "service.feed_chunk",
    "engine.feed": "service.engine_feed",
    "request.encode": "service.encode",
}


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``repro serve`` subprocess, started and stopped by this object."""

    def __init__(self, directory: Path, tracing: bool) -> None:
        from repro.service.client import ServiceClient

        self.checkpoint_dir = directory / "checkpoints"
        self.log_path = directory / "server.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        for _ in range(5):  # a port taken between probe and bind: retry
            self.port = _free_port()
            command = [sys.executable, "-m", "repro", "serve",
                       "--host", "127.0.0.1", "--port", str(self.port),
                       "--worker-threads", str(WORKER_THREADS),
                       "--max-inflight", str(MAX_INFLIGHT),
                       "--checkpoint-dir", str(self.checkpoint_dir)]
            if tracing:
                command.append("--trace")
            with open(self.log_path, "ab") as log:
                self.proc = subprocess.Popen(
                    command, cwd=str(ROOT), env=env_with_src(),
                    stdin=subprocess.DEVNULL, stdout=log,
                    stderr=subprocess.STDOUT)
            deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
            while self.proc.poll() is None and time.perf_counter() < deadline:
                try:
                    with ServiceClient.connect(port=self.port,
                                               timeout=5.0) as client:
                        if client.ping():
                            return
                except OSError:
                    time.sleep(0.02)
            self.stop()
        raise BenchError(f"server did not start; see {self.log_path}")

    def peak_rss_mb(self) -> Optional[float]:
        return process_peak_rss_mb(self.proc.pid) if self.proc else None

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None or proc.poll() is not None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class State:
    """Inputs, a ready server and two connected clients."""

    def __init__(self, seed: int) -> None:
        from repro.config import SimConfig
        from repro.sim.engine import channel_warmup_counts
        from repro.trace.generator import generate_trace_buffer, get_profile

        self.seed = seed
        self.config = SimConfig.experiment_scale()
        self.setup_layers: Dict[str, float] = {}
        start = time.perf_counter()
        self.trace = generate_trace_buffer(get_profile(APP), LENGTH,
                                           seed=seed,
                                           layout=self.config.layout)
        self.setup_layers["trace.generate_s"] = time.perf_counter() - start
        self.chunks = [self.trace[index:index + CHUNK]
                       for index in range(0, LENGTH, CHUNK)]
        self.warmup = channel_warmup_counts(self.trace, self.config)
        self.directory = make_work_dir("served-")
        self.server: Optional[Server] = None
        self.feeder = self.watcher = None
        try:
            self.connect(tracing=False)
        except BaseException:
            self.close()
            raise

    def connect(self, tracing: bool) -> None:
        from repro.service.client import ServiceClient

        self.server = Server(self.directory, tracing)
        self.feeder = ServiceClient.connect(port=self.server.port)
        self.watcher = ServiceClient.connect(port=self.server.port)

    def disconnect(self) -> None:
        for client in (self.feeder, self.watcher):
            if client is not None:
                client.close()
        self.feeder = self.watcher = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        try:
            self.disconnect()
        finally:
            remove_work_dir(self.directory)


def prepare(seed: int) -> State:
    return State(seed)


class _Phase:
    """Poll and checkpoint timings of the rounds against one server."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.poll_ms: Dict[str, List[float]] = {
            "timeline": [], "lineage": [], "metrics_text": [],
            "checkpoint": []}
        self.metrics_text_bytes: List[int] = []
        self.checkpoint_bytes: List[int] = []


def _round(state: State, outcome: Outcome, phase: _Phase, name: str,
           kept: List[tuple], results: List[dict]) -> dict:
    feeder, watcher = state.feeder, state.watcher
    clock = time.perf_counter

    def request(label: str, call):
        outcome.attempted += 1
        start = clock()
        try:
            value = call()
        except Exception as exc:  # a failed request must not end the run
            outcome.failed += 1
            outcome.details.setdefault("errors", []).append(
                f"{label}: {exc!r}")
            return None, clock() - start
        return value, clock() - start

    opened, _ = request("open", lambda: feeder.open(
        name, PREFETCHER, workload="served", config=state.config,
        warmup_records=state.warmup, epoch_records=EPOCH_RECORDS,
        lineage=True))
    start = clock()
    polls = 0
    feed_s = []
    for index, chunk in enumerate(state.chunks):
        _, took = request("feed", lambda: feeder.feed(name, chunk))
        feed_s.append(took)
        if (index + 1) % POLL_EVERY:
            continue
        polls += 1
        _, took = request("timeline", lambda: watcher.timeline(name))
        phase.poll_ms["timeline"].append(took * 1e3)
        _, took = request("lineage", lambda: watcher.lineage(name))
        phase.poll_ms["lineage"].append(took * 1e3)
        text, took = request("metrics", watcher.metrics_text)
        phase.poll_ms["metrics_text"].append(took * 1e3)
        if text is not None:
            phase.metrics_text_bytes.append(len(text.encode("utf-8")))
        if polls % CHECKPOINT_EVERY == 0:
            path, took = request("checkpoint",
                                 lambda: watcher.checkpoint(name))
            phase.poll_ms["checkpoint"].append(took * 1e3)
            if path is not None:
                # A hard link keeps this checkpoint's bytes: the next one
                # replaces the path with a new file, not new contents.
                link = state.directory / f"{name}-{polls}.ckpt"
                os.link(path, link)
                phase.checkpoint_bytes.append(link.stat().st_size)
                kept.append((name, link, (index + 1) * CHUNK))
    timeline, _ = request("timeline", lambda: watcher.timeline(name))
    lineage, _ = request("lineage", lambda: watcher.lineage(name))
    snapshot, _ = request("close", lambda: feeder.close_session(name))
    elapsed = clock() - start
    results.append({"opened": opened, "timeline": timeline,
                    "lineage": lineage, "snapshot": snapshot})
    return {"rate": LENGTH / elapsed, "op_s": feed_s,
            "traced": phase.traced}


def _check_rounds(state: State, outcome: Outcome,
                  results: List[dict]) -> None:
    """Each session against an offline run and its own accounting."""
    from repro.sim.runner import simulate

    want = simulate(state.trace, PREFETCHER, workload_name="served",
                    config=state.config).metrics
    for number, result in enumerate(results):
        label = f"round {number}"
        if any(result[key] is None for key in result):
            outcome.fail(f"{label}: a request failed")
            continue
        got = result["snapshot"].metrics
        outcome.failures.extend(checks.same_metrics(
            f"{label} served vs offline simulate()", got, want))
        outcome.failures.extend(checks.lineage_fates(
            result["lineage"]["totals"], got.prefetch_useful,
            got.prefetch_unused))
        epochs, _ = result["timeline"]
        sums = {"records": sum(epoch.records for epoch in epochs)}
        for column in ("demand_accesses", "prefetch_fills",
                       "prefetch_useful"):
            sums[column] = sum(getattr(epoch, column) for epoch in epochs)
        outcome.failures.extend(checks.timeline_sums(sums, {
            "records": LENGTH, "demand_accesses": got.demand_accesses,
            "prefetch_fills": got.prefetch_fills,
            "prefetch_useful": got.prefetch_useful}))


def _check_checkpoints(config, outcome: Outcome,
                       kept: List[tuple]) -> None:
    """Every checkpoint taken loads and fits the session's config."""
    from repro.service.checkpoint import load_checkpoint, validate_restore

    for name, path, fed in kept:
        try:
            checkpoint = load_checkpoint(path)
            validate_restore(name, checkpoint, prefetcher=PREFETCHER,
                             config=config)
        except Exception as exc:  # report every bad checkpoint
            outcome.fail(f"checkpoint {path.name}: {exc!r}")
            continue
        if checkpoint.records_fed != fed:
            outcome.fail(f"checkpoint {path.name}: records_fed "
                         f"{checkpoint.records_fed} != {fed}")


def _replica_layers(state: State) -> Dict[str, float]:
    """Layer times of an in-process engine configured like the session.

    The server's engine runs in another process, where the benchmark
    cannot wrap it; this replica gets the same records in the same
    chunks with timelines and lineage attached.
    """
    from repro.obs import attach_lineage, attach_observability
    from repro.prefetch.registry import make_prefetcher
    from repro.sim.engine import SystemSimulator

    simulator = SystemSimulator(
        state.config,
        lambda layout, channel: make_prefetcher(PREFETCHER, layout, channel))
    attach_observability(simulator, epoch_records=EPOCH_RECORDS)
    attach_lineage(simulator)
    simulator.set_stream_warmup(state.warmup)
    clock = LayerClock()
    clock.instrument(simulator)
    for chunk in state.chunks:
        simulator.feed(chunk)
    layers = clock.report(1)
    layers.update(model_counts(simulator))
    layers.update(engine_paths(simulator))
    return layers


def run(state: State, seconds: float, trace: bool,
        host: HostSpeed) -> Outcome:
    outcome = Outcome()
    kept: List[tuple] = []
    results: List[dict] = []
    counter = [0]
    rss: List[float] = []

    def rounds_against(phase: _Phase, budget: float):
        def one_round() -> dict:
            counter[0] += 1
            result = _round(state, outcome, phase, f"r{counter[0]}", kept,
                            results)
            if not rss:
                # The server's peak after one whole session: later rounds
                # add nothing but allocator noise.
                rss.append(state.server.peak_rss_mb() or 0.0)
            return result
        return timed_rounds(budget, one_round, host)

    # In a traced run, half the time goes to an untraced server: the
    # baseline the tracing overhead is measured against.
    plain = _Phase(traced=False)
    rounds, factor = rounds_against(plain, seconds / 2 if trace else seconds)
    stats = state.feeder.stats()["stats"]
    traced = _Phase(traced=True)
    summary: Dict[str, dict] = {}
    encode_clock = LayerClock()
    if trace:
        from repro.service import protocol

        state.disconnect()
        state.connect(tracing=True)
        encode = protocol.encode_buffer
        protocol.encode_buffer = lambda buffer: _timed_encode(
            encode, buffer, encode_clock)
        try:
            traced_rounds, traced_factor = rounds_against(traced, seconds / 2)
        finally:
            protocol.encode_buffer = encode
        _, summary = state.feeder.server_spans()
        stats = state.feeder.stats()["stats"]
    _check_rounds(state, outcome, results)
    _check_checkpoints(state.config, outcome, kept)

    report_rounds(outcome, rounds, factor, rss[0] if rss else None)
    feed_ms = [seconds_ * 1e3 for result in rounds
               for seconds_ in result["op_s"]]
    amat = (results[0]["snapshot"].metrics.amat
            if results and results[0]["snapshot"] is not None else 0.0)
    outcome.details.update({
        "feeds": len(feed_ms), "raw_feed_p50_ms": median(feed_ms),
        "raw_feed_p99_ms": percentile(feed_ms, 0.99),
        "sim_amat_cycles": amat,
        "checkpoints_checked": len(kept), "server_stats": stats})
    if trace:
        outcome.traced_rate = traced_rate(traced_rounds, traced_factor)
        traced_walls = [LENGTH / result["rate"] for result in traced_rounds]
        traced_feed_ms = [seconds_ * 1e3 for result in traced_rounds
                          for seconds_ in result["op_s"]]
        layers = outcome.layers
        layers.update(state.setup_layers)
        layers.update(_replica_layers(state))
        layers["sim.amat_cycles"] = amat
        chunk = summary.get("session.feed_chunk", {})
        layers["bench.unaccounted_s"] = (
            sum(traced_walls)
            - chunk.get("mean_us", 0.0) * chunk.get("count", 0) * 1e-6
        ) / max(len(traced_walls), 1)
        layers["service.encode_s"] = (encode_clock.seconds["encode"]
                                      / max(len(traced_rounds), 1))
        for span, prefix in SPAN_METRICS.items():
            entry = summary.get(span, {})
            layers[f"{prefix}_us_p50"] = entry.get("p50_us", 0.0)
            layers[f"{prefix}_us_p99"] = entry.get("p99_us", 0.0)
            layers[f"{prefix}_count"] = entry.get("count", 0)
        layers["service.feed_p50_ms"] = median(traced_feed_ms)
        layers["service.feed_p99_ms"] = percentile(traced_feed_ms, 0.99)
        layers["service.feed_count"] = len(traced_feed_ms)
        layers["service.checkpoint_ms"] = median(traced.poll_ms["checkpoint"])
        layers["service.checkpoint_bytes"] = median(traced.checkpoint_bytes)
        layers["service.backpressure_waits"] = stats["backpressure_waits"]
        layers["service.chunks"] = stats["chunks_executed"]
        layers["obs.timeline_poll_ms"] = median(traced.poll_ms["timeline"])
        layers["obs.lineage_poll_ms"] = median(traced.poll_ms["lineage"])
        layers["obs.metrics_text_ms"] = median(
            traced.poll_ms["metrics_text"])
        layers["obs.metrics_text_bytes"] = median(traced.metrics_text_bytes)
        lineage = results[-1]["lineage"] or {"totals": {}}
        for name in ("issued", "used_timely", "evicted_unused"):
            layers[f"obs.lineage_{name}"] = lineage["totals"].get(name, 0)
    return outcome


def _timed_encode(encode, buffer, clock: LayerClock) -> bytes:
    start = time.perf_counter()
    try:
        return encode(buffer)
    finally:
        clock.add("encode", time.perf_counter() - start)
