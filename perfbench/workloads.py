"""The benchmark workloads: serve-small and serve-bulk.

Each workload function takes a :class:`Context`, builds its inputs and
reference answers from the seed before any clock starts, sets the
system up ``SETUPS`` times (reporting the median), measures for the
requested seconds, verifies every output, reaps every process it
started, and returns a :class:`Measurement`.

In a traced run the measured time is split in two equal phases on the
same system: the first untraced (its p50 is the baseline of the
tracing overhead), the second with spans recorded around every public
call.  The per-layer metrics come from the traced phase.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import procs
from measure import Outcome, Tracer, classify
from verify import reply_matches

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Per-workload latency limit (seconds).
LIMIT_S = {"serve-small": 0.100, "serve-bulk": 0.400}
#: Per-workload tail: ``(percentile, window seconds or None)``; with a
#: window, the median over the run's windows of each window's
#: percentile, else the percentile of the whole run.  Each is the
#: highest percentile that repeats within its bound between runs on a
#: 2-CPU VM whose CPUs slow by up to a fifth for seconds at a time:
#:
#: * serve-small: p99 and above measure those stalls (33-50% spread
#:   between runs), and p90 of each 2 s window still spread 23% in 17
#:   runs with the host mildly busy, so the tail is p75 of each 2 s
#:   window (250 samples beyond it), median over windows (5% spread
#:   in eight calm runs);
#: * serve-bulk: 1-4% of jobs hit a request timeout (see BULK_SESSION),
#:   and 10-34% while the VM's CPUs run slow, since a busy server drains
#:   a fresh connection later; a tail at or above the stalled share
#:   reads the client timeout, so the tail is p75 (about 120 samples
#:   beyond it).
TAIL = {
    "serve-small": (75.0, 2.0),
    "serve-bulk": (75.0, None),
}

#: serve-small: open-loop offered rate and request shape.  At 1000
#: req/s the server is ~60% busy and the client ~30%, and p50 spread
#: 15-22% between runs as the VM's CPUs slowed; 500 req/s keeps it
#: below 10%.
SMALL_RATE = 500.0
SMALL_WIRES = 16
SMALL_CONNECTIONS = 2
SMALL_TIMEOUT_S = 2.0

#: serve-bulk: 1024 wires (8 MiB, above the 4 MiB fast-path cap), a
#: 4096-row corpus queried 1024 rows at a time, logicnet 8 x 32 x 3.
BULK_WIRES = 1024
BULK_CORPUS_ROWS = 4096
BULK_BATCHES = 4
BULK_NETS, BULK_GATES, BULK_DEPTH = 8, 32, 3
#: The blocking client's socket timeout: a request still unanswered
#: after this long fails as a timeout and the client reconnects.  Ten
#: times a request's p50, so a slow success is never cut short.
BULK_TIMEOUT_S = 0.5
#: One serve-bulk operation is a job: the caller connects, sends one
#: request of each of the four kinds in turn and disconnects.  A request
#: that times out or loses its connection is sent again on a fresh
#: connection, up to ``BULK_ATTEMPTS`` times, as a batch caller would;
#: the job's latency includes the lost time, so a stalled job reads over
#: the limit (``success_ratio`` below 1) without failing, and every
#: attempt is counted per request kind and error class.  A wrong reply
#: is never re-sent: it fails the job.  The
#: client's short-``sendmsg`` stall strikes fresh connections (about 1
#: in 20 first 8 MiB requests on a 2-CPU VM) and almost never a
#: long-lived, warmed one, so a single connection would hide it.  A job
#: is also the unit whose latency is unimodal: per request, the median
#: falls in the gap between the ~20 ms identify and ~40 ms membership
#: and logicnet requests and jumps between them from run to run.
BULK_SESSION = 4
BULK_ATTEMPTS = 8
BASIS_SIZE = 16


@dataclass
class Context:
    """What every workload needs: where, which seed, how long, tracing."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer = field(default_factory=lambda: Tracer(False))

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def repro(self, *args: str) -> List[str]:
        return [sys.executable, "-m", "repro.cli", *args]


@dataclass
class Measurement:
    """Everything one workload run measured (one phase, or two if traced)."""

    workload: str
    setup_s: List[float]
    #: One per operation: what the end-to-end metrics count.
    outcomes: List[Outcome]
    cpu_s: float
    peak_rss_mb: float
    #: One per served request (a serve-bulk operation sends four).
    requests: List[Outcome] = field(default_factory=list)
    #: Untraced-phase outcomes of a traced run (tracing-overhead baseline).
    baseline: List[Outcome] = field(default_factory=list)
    #: Generator lateness of every open-loop request (seconds).
    lateness_s: List[float] = field(default_factory=list)
    reconnects: int = 0
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats_after: Dict[str, Any] = field(default_factory=dict)


def _phases(ctx: Context) -> List[tuple]:
    """``[(seconds, traced)]``: one untraced phase, or two when traced."""
    if not ctx.trace:
        return [(ctx.seconds, False)]
    return [(ctx.seconds / 2, False), (ctx.seconds / 2, True)]


# ----------------------------------------------------------------------
# Shared serving inputs
# ----------------------------------------------------------------------


def serving_basis(seed: int):
    from repro.serving.server import ServerConfig, build_serving_basis

    return build_serving_basis(ServerConfig(seed=seed, basis_size=BASIS_SIZE))


def wire_batches(basis, rng, n_batches: int, n_wires: int):
    """``[(packed bitset, known element per wire, batch)]``."""
    from repro.backend.batch import SpikeTrainBatch

    grid = basis.grid
    source = basis.as_batch()
    batches = []
    for _ in range(n_batches):
        elements = rng.integers(basis.size, size=n_wires)
        packed = np.ascontiguousarray(source.select_rows(elements).packbits())
        batch = SpikeTrainBatch.from_packed(packed, grid)
        batches.append((packed, elements.astype(np.int64), batch))
    return batches


def membership_reference(basis, batch) -> Dict[str, np.ndarray]:
    from repro.logic.correlator import CoincidenceCorrelator

    outcome = CoincidenceCorrelator(basis).detect_members_batch(batch)
    return {
        "membership": np.asarray(outcome.membership, dtype=bool),
        "first_slots": np.asarray(outcome.first_slots, dtype=np.int64),
    }


def _spawn_servers(ctx: Context, argv: List[str], before_each=None):
    """Set up ``SETUPS`` times; keep the last server, stop the others."""
    env = ctx.child_env()
    setups, server = [], None
    for _ in range(SETUPS):
        if server is not None:
            server.stop()
        extra = before_each() if before_each is not None else 0.0
        server = procs.ServerProcess(argv, env)
        setups.append(extra + server.setup_s)
    return server, setups


# ----------------------------------------------------------------------
# serve-small
# ----------------------------------------------------------------------


def serve_small(ctx: Context) -> Measurement:
    """Open loop: 16-wire identify/membership at a fixed rate, 2 conns."""
    rng = np.random.default_rng(ctx.seed)
    basis = serving_basis(ctx.seed)
    grid = basis.grid
    batches = wire_batches(basis, rng, 64, SMALL_WIRES)
    # Requests go out in pairs, one per connection, alternating the kind
    # pair by pair: two callers asking the same question at once is what
    # the coalescer merges.
    requests = []
    for (p0, e0, b0), (p1, e1, b1) in zip(batches[::2], batches[1::2]):
        requests += [
            ("identify", p0, {"elements": e0}),
            ("identify", p1, {"elements": e1}),
            ("membership", p0, membership_reference(basis, b0)),
            ("membership", p1, membership_reference(basis, b1)),
        ]

    server, setups = _spawn_servers(
        ctx,
        ctx.repro(
            "serve", "--port", "0", "--jobs", "1", "--seed", str(ctx.seed),
            "--basis-size", str(BASIS_SIZE), "--coalesce-window-ms", "2",
        ),
    )
    try:
        return asyncio.run(_drive_small(ctx, server, setups, grid, requests))
    finally:
        server.stop()


async def _drive_small(ctx, server, setups, grid, requests) -> Measurement:
    from repro.serving.client import AsyncServingClient

    clients = [
        await AsyncServingClient.open(server.host, server.port)
        for _ in range(SMALL_CONNECTIONS)
    ]
    measurement = Measurement("serve-small", setups, [], 0.0, 0.0)
    try:
        # Warm both connections and the server's code paths.
        for index in range(8 * SMALL_CONNECTIONS):
            kind, packed, _ = requests[index % len(requests)]
            await getattr(clients[index % SMALL_CONNECTIONS], kind)(packed, grid)
        tree = server.tree()
        for seconds, traced in _phases(ctx):
            tracer = ctx.tracer if traced else Tracer(False)
            before = await clients[0].stats()
            cpu0 = procs.cpu_seconds(tree)
            outcomes, lateness = await _open_loop(
                tracer, clients, grid, requests, seconds
            )
            cpu1 = procs.cpu_seconds(tree)
            after = await clients[0].stats()
            if traced:
                measurement.baseline = measurement.outcomes
            measurement.outcomes = measurement.requests = outcomes
            measurement.lateness_s = lateness
            measurement.cpu_s = cpu1 - cpu0
            measurement.stats_before, measurement.stats_after = before, after
        measurement.peak_rss_mb = procs.peak_rss_mb(server.tree())
    finally:
        for client in clients:
            await client.aclose()
    return measurement


async def _open_loop(tracer, clients, grid, requests, seconds):
    """Send pairs on a fixed schedule; time each from its due time."""
    loop = asyncio.get_running_loop()
    n_requests = int(seconds * SMALL_RATE)
    outcomes: List[Optional[Outcome]] = [None] * n_requests
    lateness = [0.0] * n_requests

    async def one(index: int, due: float) -> None:
        kind, packed, expected = requests[index % len(requests)]
        client = clients[index % len(clients)]
        lateness[index] = loop.time() - due
        error = None
        with tracer.span(f"op.{kind}", request=index):
            try:
                with tracer.span(f"client.{kind}"):
                    reply = await asyncio.wait_for(
                        getattr(client, kind)(packed, grid), SMALL_TIMEOUT_S
                    )
                latency = loop.time() - due
                if not reply_matches(reply, expected):
                    error = "wrong_reply"
            except Exception as exc:  # noqa: BLE001 - classify re-raises bugs
                latency = loop.time() - due
                error = classify(exc)
        outcomes[index] = Outcome(kind, latency, error, due - start)

    tasks = []
    gc.collect()
    gc.disable()
    start = loop.time() + 0.01
    for index in range(n_requests):
        due = start + (index // SMALL_CONNECTIONS) * SMALL_CONNECTIONS / SMALL_RATE
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(index, due)))
    try:
        await asyncio.gather(*tasks)
    finally:
        gc.enable()
    return outcomes, lateness


# ----------------------------------------------------------------------
# serve-bulk
# ----------------------------------------------------------------------


def serve_bulk(ctx: Context) -> Measurement:
    """Closed loop of jobs, each a fresh connection sending four kinds."""
    from repro.logic.correlator import CoincidenceCorrelator
    from repro.logic.netbatch import LogicNetBatch
    from repro.pipeline.corpus import CorpusStore

    rng = np.random.default_rng(ctx.seed)
    basis = serving_basis(ctx.seed)
    grid = basis.grid
    batches = wire_batches(basis, rng, BULK_BATCHES, BULK_WIRES)
    corpus_chunks = [
        batch for _, _, batch in wire_batches(
            basis, rng, BULK_CORPUS_ROWS // BULK_WIRES, BULK_WIRES
        )
    ]
    corpus_dir = ctx.work / "bulk-corpus"

    def write_corpus() -> float:
        shutil.rmtree(corpus_dir, ignore_errors=True)
        started = time.perf_counter()
        store = CorpusStore.create(corpus_dir, grid)
        with store.writer() as writer:
            for chunk in corpus_chunks:
                writer.append(chunk)
        return time.perf_counter() - started

    server, setups = _spawn_servers(
        ctx,
        ctx.repro(
            "serve", "--port", "0", "--jobs", "2", "--seed", str(ctx.seed),
            "--basis-size", str(BASIS_SIZE), "--corpus", str(corpus_dir),
        ),
        before_each=write_corpus,
    )
    try:
        # References for the corpus come back off disk, through the
        # store's own reader: this also checks what the writer wrote.
        store = CorpusStore(corpus_dir)
        correlator = CoincidenceCorrelator(basis)
        corpus_rows = [
            store.open_rows(lo, lo + BULK_WIRES)
            for lo in range(0, BULK_CORPUS_ROWS, BULK_WIRES)
        ]
        words = basis.as_batch().packed_words()
        requests = []
        for index, (packed, elements, batch) in enumerate(batches):
            rows = corpus_rows[index % len(corpus_rows)]
            lo = (index % len(corpus_rows)) * BULK_WIRES
            found = correlator.identify_batch(rows, missing="none")
            net_start = index * BULK_NETS
            nets = LogicNetBatch.random(
                BULK_NETS, BULK_GATES, BULK_DEPTH, basis.size, ctx.seed,
                net_start=net_start,
            )
            popcounts, checksums = nets.evaluate(words, grid.n_samples)
            requests += [
                ("identify", (packed, grid), {}, {"elements": elements}),
                ("membership", (packed, grid), {},
                 membership_reference(basis, batch)),
                ("corpus_identify", (corpus_dir.name, lo, lo + BULK_WIRES),
                 {}, {
                     "elements": np.asarray(found.elements, np.int64),
                     "decision_slots": np.asarray(found.decision_slots, np.int64),
                     "spikes_inspected": np.asarray(
                         found.spikes_inspected, np.int64
                     ),
                 }),
                ("logicnet", (ctx.seed, net_start, net_start + BULK_NETS),
                 {"n_gates": BULK_GATES, "depth": BULK_DEPTH},
                 {"popcounts": popcounts, "checksums": checksums}),
            ]
        del corpus_rows, store
        return _drive_bulk(ctx, server, setups, requests)
    finally:
        server.stop()
        shutil.rmtree(corpus_dir, ignore_errors=True)


def _drive_bulk(ctx, server, setups, requests) -> Measurement:
    from repro.serving.client import ServingClient

    def connect():
        return ServingClient(server.host, server.port, timeout=BULK_TIMEOUT_S)

    def send(tracer, done, phase_start, kind, args, kwargs, expected):
        """One request, re-sent on a fresh connection after a stall."""
        nonlocal client, reconnects
        for _attempt in range(BULK_ATTEMPTS):
            error = None
            started = time.perf_counter()
            with tracer.span(f"op.{kind}", request=len(done)):
                try:
                    with tracer.span(f"client.{kind}"):
                        reply = getattr(client, kind)(*args, **kwargs)
                    latency = time.perf_counter() - started
                    if not reply_matches(reply, expected):
                        error = "wrong_reply"
                except Exception as exc:  # noqa: BLE001 - classify re-raises
                    latency = time.perf_counter() - started
                    error = classify(exc)
                    if error in ("timeout", "connection_lost"):
                        client.close()
                        client = connect()
                        reconnects += 1
            done.append(Outcome(kind, latency, error, started - phase_start))
            if error not in ("timeout", "connection_lost"):
                break
        return error

    measurement = Measurement("serve-bulk", setups, [], 0.0, 0.0)
    client = connect()
    reconnects = 0
    try:
        # Warm the server's path for each request kind once, untimed.  A
        # warm-up request that stalls is retried on a fresh connection.
        for kind, args, kwargs, _ in requests[:BULK_SESSION]:
            for _attempt in range(5):
                try:
                    getattr(client, kind)(*args, **kwargs)
                    break
                except Exception as exc:  # noqa: BLE001 - classify re-raises
                    classify(exc)
                    client.close()
                    client = connect()
        tree = server.tree()
        for seconds, traced in _phases(ctx):
            tracer = ctx.tracer if traced else Tracer(False)
            with connect() as probe:
                before = probe.stats()
            cpu0 = procs.cpu_seconds(tree)
            jobs: List[Outcome] = []
            done: List[Outcome] = []
            reconnects = 0
            phase_start = time.perf_counter()
            while time.perf_counter() < phase_start + seconds:
                job_start = time.perf_counter()
                job_error = None
                with tracer.span("job"):
                    client.close()
                    client = connect()
                    first = len(jobs) * BULK_SESSION % len(requests)
                    for request in requests[first:first + BULK_SESSION]:
                        error = send(tracer, done, phase_start, *request)
                        job_error = job_error or error
                jobs.append(Outcome(
                    "job", time.perf_counter() - job_start, job_error,
                    job_start - phase_start,
                ))
            cpu1 = procs.cpu_seconds(tree)
            with connect() as probe:
                after = probe.stats()
            if traced:
                measurement.baseline = measurement.outcomes
            measurement.outcomes, measurement.requests = jobs, done
            measurement.cpu_s = cpu1 - cpu0
            measurement.reconnects = reconnects
            measurement.stats_before, measurement.stats_after = before, after
        measurement.peak_rss_mb = procs.peak_rss_mb(server.tree())
    finally:
        client.close()
    return measurement


WORKLOADS = {
    "serve-small": serve_small,
    "serve-bulk": serve_bulk,
}
