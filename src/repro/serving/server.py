"""Asyncio serving front-end: stream packed-bitset wires into the shard pool.

:class:`SpikeServer` is the repo's network entry point — the layer the
ROADMAP called "stream wires into batches at an RPC boundary".  One
asyncio TCP server accepts length-prefixed protocol frames
(:mod:`repro.serving.protocol`), and each request flows through the
four existing layers without the payload ever unpacking to a raster:

1. the frame's bitset wraps as a *packed-primary*
   :class:`~repro.backend.batch.SpikeTrainBatch` (``from_packed`` —
   no CSR decode, no raster);
2. the batch exports into a per-request
   :class:`~repro.backend.shared.SharedArena`
   (``to_shared`` ships the word-aligned bitset; the row offsets come
   from a popcount pass, still no decode);
3. contiguous row-range :class:`~repro.serving.dispatch.ShardTask`\\ s
   dispatch onto the :class:`~repro.pipeline.runner.Runner`'s
   persistent pool (``Runner.supervised_results``), where workers
   attach the mapped bitset and run the packed receiver kernels on it;
4. each shard's result streams back to the client as one binary result
   frame, in shard order as results complete (a slow early shard
   delays the later shards' *frames*, never their compute), followed
   by a summary frame recording wall time and the shard batches'
   representation residency.

Single-job servers (or hosts without shared memory) run the same
shards in-process on a worker thread — bit-identical results, one code
path for the compute (:func:`~repro.serving.dispatch.compute_shard`).

Every compute frame kind — identify, membership, corpus query,
logicnet — takes that one request path (``SpikeServer._serve``).  A
private kind table supplies only what differs between kinds (parse,
check, shard plan, the DONE summary's extra keys); error answering,
deadlines, budget admission, shard streaming, the STATS counters and
the DONE frame live in the path, once.  Corpus queries plan chunks
computed one at a time off the server's memmap; logicnet queries plan
seed-rebuild tasks, which the pool runs through the same supervised
fan-out as bitset shards.

Three hot-path optimisations sit in front of that sharded pipeline,
all serving bit-identical results through the same
:func:`~repro.serving.dispatch.compute_shard` core:

* **fast path** — a request smaller than ``fast_path_bytes`` that does
  not ask for explicit sharding skips the arena export, the pool
  dispatch *and* the in-flight byte budget: the payload wraps
  ``from_packed`` and computes directly, answering in one result
  frame (transport ``"fast-path"``).  The budget exists to bound
  bytes pinned in per-request arenas; a fast-path request pins
  nothing beyond its own frame, so counting it would let a burst of
  tiny requests spuriously starve (or OVERLOAD) real arena work.
* **pipelining** — each request frame is served by its own asyncio
  task, so many requests per connection are in flight concurrently
  and responses interleave by request id (every frame is written in
  one ``write()`` call, keeping frames atomic on the stream).
* **coalescing** — with ``coalesce_window > 0``, fast-path-sized
  requests whose scan headers match (mode, ``start_slot``,
  ``limit``; the grid is already checked) accumulate for up to the
  window and compute as *one* wide batch — one ``from_packed``, one
  receiver pass — then split back per request id (transport
  ``"coalesced"``).  Many small clients thus amortise into the wide
  batched operations the packed kernels are built for.

Flow control is a bounded **in-flight arena budget**: request payloads
admit to the sharded path only while the bytes pinned in per-request
arenas stay under ``max_inflight_bytes``; later requests wait (the TCP
receive window then pushes back on the client) instead of growing
server memory.  Graceful shutdown drains in-flight requests, then
releases every worker's shared-memory attachments through the runner's
end-of-run broadcast and discards the installed basis.

Every server keeps a :class:`ServerStats` — request counts per path,
coalesced batches, error count and a rolling latency window — served
to any client as a JSON ``STATS`` reply and printed as the
``repro serve`` shutdown summary.

``ServerThread`` runs the whole server on a private event loop in a
daemon thread — the harness the tests, the benchmark, the example and
the CI smoke job all share.  ``serve_forever`` is the blocking entry
behind ``repro serve``.
"""

from __future__ import annotations

import asyncio
import pathlib
import socket
import sys
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from ..backend.batch import SpikeTrainBatch
from ..backend.shared import HAVE_SHARED_MEMORY, SharedArena
from ..errors import ProtocolError, ServingError
from ..hyperspace.basis import HyperspaceBasis
from ..noise.synthesis import make_rng
from ..orthogonator.demux import DemuxOrthogonator
from ..pipeline.corpus import CorpusStore
from ..pipeline.runner import Runner
from ..spikes.generators import poisson_train
from ..testing import faults
from ..units import paper_white_grid
from . import dispatch, log, protocol

__all__ = [
    "ServerConfig",
    "ServerStats",
    "SpikeServer",
    "ServerThread",
    "build_serving_basis",
    "serve_forever",
]


@dataclass(frozen=True)
class ServerConfig:
    """Everything one serving process needs to know.

    The basis knobs (``seed``, ``basis_size``, ``source_isi_samples``,
    ``n_samples``) deterministically fix the hyperspace the server
    identifies against — the same synthesis path as the ``identify``
    experiment, so a client holding the same knobs can reproduce the
    server's basis exactly.  ``port`` 0 binds an ephemeral port
    (exposed as :attr:`SpikeServer.port` once started).

    ``fast_path_bytes`` caps the payload size served inline without an
    arena or pool dispatch (0 disables the fast path entirely — every
    request takes the sharded pipeline).  ``coalesce_window`` > 0
    turns on request coalescing: fast-path-sized requests with equal
    scan headers buffer up to that many seconds (or until
    ``coalesce_max_wires`` rows accumulate) and compute as one wide
    batch.

    ``workers`` > 1 turns ``repro serve`` into a process cluster: that
    many server processes accept on **one** port (``SO_REUSEPORT``
    where the OS has it, a small front proxy otherwise) and report one
    aggregated STATS reply — see :mod:`repro.serving.cluster`.  A
    single :class:`SpikeServer` ignores the field.

    ``corpus`` names a :class:`~repro.pipeline.corpus.CorpusStore`
    directory to host read-only: the server then answers
    ``FRAME_CORPUS_QUERY`` requests against it (by the directory's
    basename), computing chunk-at-a-time straight off the memmap —
    ``corpus_chunk_rows`` caps the rows any one chunk maps and
    therefore the peak working set of a corpus scan, no matter how
    many rows the query spans.  The corpus must live on the serving
    basis's exact grid (checked at startup).  Cluster workers each
    open their own read-only mapping of the same files; the OS page
    cache is shared between them for free.
    """

    host: str = "127.0.0.1"
    port: int = 0
    seed: int = 2016
    basis_size: int = 16
    source_isi_samples: int = 28
    n_samples: int = 65536
    jobs: int = 1
    n_shards: int = 0  # per-request default: 0 → one shard per job
    max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES
    max_inflight_bytes: int = 256 * 1024 * 1024
    fast_path_bytes: int = 4 * 1024 * 1024
    coalesce_window: float = 0.0  # seconds; 0 → coalescing off
    coalesce_max_wires: int = 4096
    workers: int = 1
    corpus: Optional[str] = None
    corpus_chunk_rows: int = 4096
    #: Seconds a connection may sit with no bytes arriving and no
    #: request in flight before the server closes it (0: never) — a
    #: dead client must not pin receive buffers forever.
    idle_timeout: float = 0.0
    #: Per-attempt timeout awaiting one pool shard's result.  The
    #: backstop for a hung worker; a *dead* worker is detected within
    #: a probe interval regardless (see
    #: :meth:`repro.pipeline.runner.Runner.await_result`).
    shard_timeout: float = 120.0
    #: Pool attempts for a lost shard before it degrades to in-process
    #: execution (:meth:`repro.pipeline.runner.Runner.submit_supervised`).
    shard_retries: int = 2


def build_serving_basis(config: ServerConfig) -> HyperspaceBasis:
    """The server's reference basis, deterministic in the config knobs."""
    grid = paper_white_grid(n_samples=config.n_samples)
    rng = make_rng(config.seed)
    source = poisson_train(
        rate_hz=1.0 / (config.source_isi_samples * grid.dt),
        grid=grid,
        rng=rng,
    )
    output = DemuxOrthogonator.with_outputs(config.basis_size).transform(
        source
    )
    return HyperspaceBasis.from_orthogonator(output)


class ServerStats:
    """Per-server counters plus a rolling latency window.

    Updated on the event loop only (no locking).  ``snapshot()`` is
    the JSON payload of a ``STATS`` reply; ``summary()`` is the
    one-line shutdown log.  Latency quantiles are computed over the
    last ``window`` request wall times (arrival to DONE frame written),
    so a long-running server reports current behaviour, not its whole
    history.
    """

    def __init__(self, window: int = 1024) -> None:
        self._reset_counters()
        self._latencies: Deque[float] = deque(maxlen=int(window))

    def _reset_counters(self) -> None:
        """Zero every counter; subclasses backed by shared memory that
        must survive a process respawn override this to preserve the
        predecessor's counts (cluster STATS stays monotonic)."""
        self.requests_served = 0
        self.fast_path_requests = 0
        self.pool_path_requests = 0
        self.coalesced_requests = 0
        self.coalesced_batches = 0
        self.errors = 0

    def record(self, transport: str, seconds: float) -> None:
        """Count one served request and its wall time."""
        self.requests_served += 1
        if transport == "fast-path":
            self.fast_path_requests += 1
        elif transport == "coalesced":
            self.coalesced_requests += 1
        else:
            self.pool_path_requests += 1
        self._latencies.append(float(seconds))

    def _quantile(self, q: float) -> Optional[float]:
        if not self._latencies:
            return None
        return float(np.quantile(np.asarray(self._latencies), q))

    def snapshot(self) -> dict:
        """The JSON-ready stats payload served to STATS requests."""
        return {
            "kind": "stats",
            "requests_served": self.requests_served,
            "fast_path_requests": self.fast_path_requests,
            "pool_path_requests": self.pool_path_requests,
            "coalesced_requests": self.coalesced_requests,
            "coalesced_batches": self.coalesced_batches,
            "errors": self.errors,
            "latency_window": len(self._latencies),
            "latency_p50_seconds": self._quantile(0.50),
            "latency_p99_seconds": self._quantile(0.99),
        }

    def summary(self) -> str:
        """One human line for the shutdown log."""
        p50 = self._quantile(0.50)
        p99 = self._quantile(0.99)
        latency = (
            f"p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms "
            f"over last {len(self._latencies)}"
            if p50 is not None
            else "no latency samples"
        )
        return (
            f"served {self.requests_served} requests "
            f"({self.fast_path_requests} fast-path, "
            f"{self.pool_path_requests} pool, "
            f"{self.coalesced_requests} coalesced in "
            f"{self.coalesced_batches} batches), "
            f"{self.errors} errors, {latency}"
        )


class _Coalescer:
    """Short-window accumulator stacking small requests into one batch.

    Requests routed here buffer per bucket — keyed by the scan header
    ``(mode, start_slot, limit)``; the grid was already checked against
    the basis — until either ``window`` seconds pass since the bucket
    opened or ``max_wires`` rows accumulate.  A flush concatenates the
    buckets' packed payloads row-wise (still packed — no decode), runs
    **one** ``compute_shard`` over the wide batch off-loop, and splits
    the per-row result arrays back per request id.  Both receiver modes
    are row-independent, so the split results are bit-identical to
    per-request serial computes — the tests assert it.
    """

    def __init__(
        self, server: "SpikeServer", window: float, max_wires: int
    ) -> None:
        self._server = server
        self._window = float(window)
        self._max_wires = int(max_wires)
        self._buckets: Dict[tuple, List[Tuple[protocol.Request, asyncio.Future]]] = {}
        self._timers: Dict[tuple, asyncio.TimerHandle] = {}
        self._flushes: Set[asyncio.Task] = set()

    def results(self, request: protocol.Request) -> Iterator[Awaitable[dict]]:
        """The request's one shard result: its slice of the batch."""
        yield self.submit(request)

    async def submit(self, request: protocol.Request) -> dict:
        """Buffer one request; resolves to its slice of the batch result."""
        loop = asyncio.get_running_loop()
        key = (request.mode, request.start_slot, request.limit)
        future: asyncio.Future = loop.create_future()
        bucket = self._buckets.setdefault(key, [])
        bucket.append((request, future))
        if sum(r.n_wires for r, _ in bucket) >= self._max_wires:
            self._flush_now(key)
        elif len(bucket) == 1:
            self._timers[key] = loop.call_later(
                self._window, self._flush_now, key
            )
        return await future

    def _flush_now(self, key: tuple) -> None:
        """Detach one bucket and start its flush task."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        bucket = self._buckets.pop(key, None)
        if not bucket:
            return
        task = asyncio.create_task(self._flush(key, bucket))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _flush(self, key, bucket) -> None:
        mode, start_slot, limit = key
        try:
            rows = [request.packed for request, _ in bucket]
            packed = rows[0] if len(rows) == 1 else np.concatenate(rows)
            batch = SpikeTrainBatch.from_packed(
                packed, self._server.basis.grid
            )
            compute = partial(
                dispatch.compute_shard,
                self._server.basis,
                batch,
                0,
                int(packed.shape[0]),
                mode=mode,
                start_slot=start_slot,
                limit=limit,
            )
            if packed.nbytes <= self._server.config.fast_path_bytes:
                # Micro-batches are fast-path-sized by construction:
                # the receiver pass is cheaper than a thread handoff
                # (the same trade the fast path makes), so compute
                # inline on the loop.
                payload = compute()
            else:
                payload = await asyncio.to_thread(compute)
            self._server.stats.coalesced_batches += 1
            lo = 0
            for request, future in bucket:
                hi = lo + request.n_wires
                if not future.done():
                    future.set_result(self._slice(payload, mode, lo, hi))
                lo = hi
        except Exception as exc:  # noqa: BLE001 - handed to each waiter
            for _, future in bucket:
                if not future.done():
                    future.set_exception(exc)

    @staticmethod
    def _slice(payload: dict, mode: str, lo: int, hi: int) -> dict:
        """One request's rows of the wide batch payload, re-rooted at 0."""
        fields = (
            ("elements", "decision_slots", "spikes_inspected")
            if mode == "identify"
            else ("membership", "first_slots")
        )
        sub = {field: payload[field][lo:hi] for field in fields}
        sub.update(
            row_start=0,
            row_stop=hi - lo,
            wall_seconds=payload["wall_seconds"],
            residency=payload["residency"],
        )
        return sub

    async def close(self) -> None:
        """Flush everything buffered and wait for the flush tasks."""
        for key in list(self._buckets):
            self._flush_now(key)
        while self._flushes:
            await asyncio.gather(
                *list(self._flushes), return_exceptions=True
            )


class _InflightBudget:
    """Async byte budget bounding the arenas pinned by live requests.

    Admission is FIFO: a waiter is admitted only when it is at the
    head of the arrival queue *and* its bytes fit — without the queue,
    a stream of small requests could starve a large one forever (each
    small acquire would slip into the headroom the large waiter is
    waiting for).
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        self.in_flight = 0
        self._queue: Deque[int] = deque()
        self._next_ticket = 0
        self._condition: Optional[asyncio.Condition] = None

    @property
    def _changed(self) -> asyncio.Condition:
        # Created lazily inside the running loop: constructing an
        # asyncio primitive outside one misbinds on Python 3.9.
        if self._condition is None:
            self._condition = asyncio.Condition()
        return self._condition

    async def acquire(self, nbytes: int) -> None:
        """Wait until ``nbytes`` fits under the cap, then claim it.

        A single payload larger than the whole budget can never fit —
        that is rejected immediately as OVERLOADED instead of
        deadlocking the connection.
        """
        if nbytes > self.max_bytes:
            raise ServingError(
                protocol.ERR_OVERLOADED,
                f"request pins {nbytes} bytes, over the server's "
                f"{self.max_bytes}-byte in-flight budget",
            )
        async with self._changed:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._queue.append(ticket)
            try:
                await self._changed.wait_for(
                    lambda: self._queue[0] == ticket
                    and self.in_flight + nbytes <= self.max_bytes
                )
            except BaseException:
                # Cancellation (a dropped connection) must not leave a
                # dead ticket blocking the queue head.
                self._queue.remove(ticket)
                self._changed.notify_all()
                raise
            self._queue.popleft()
            self.in_flight += nbytes
            self._changed.notify_all()

    async def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget and wake waiters."""
        async with self._changed:
            self.in_flight -= nbytes
            self._changed.notify_all()

    async def drained(self) -> None:
        """Block until no request bytes are in flight."""
        async with self._changed:
            await self._changed.wait_for(lambda: self.in_flight == 0)


class _Connection(asyncio.BufferedProtocol):
    """One accepted connection: transport bytes straight into frames.

    A hand-rolled :class:`asyncio.BufferedProtocol` instead of the
    stream reader/writer pair: the transport ``recv_into``\\ s the
    :class:`~repro.serving.protocol.FrameReader`'s own buffers, so a
    large request's payload lands **in place** in an exact-size frame
    buffer — zero user-space copies between the socket and
    ``np.frombuffer``, where the stream-reader path cost three (stream
    buffer append, ``read()`` slice, join) plus small-chunk reads.
    At multi-megabyte requests that copy tax was a measurable slice of
    the serving overhead this module exists to delete.

    Connections are **pipelined**: every complete frame starts its own
    task, so a connection may have many requests in flight and
    response frames from different requests interleave — each carries
    its request id, and each is written atomically (one ``write()``
    per frame).  Framing errors (bad magic / version / length) poison
    the byte stream: in-flight requests finish answering, then one
    connection-scope error frame (request id 0) closes the connection.
    Request-level errors are answered upstream and keep the connection
    alive.

    The object doubles as the writer handed to the request handlers:
    ``write``/``drain`` front the transport with its high-water flow
    control, and ``close``/``wait_closed``/``get_extra_info`` mirror
    the ``StreamWriter`` surface the shutdown path expects.
    """

    def __init__(self, server: "SpikeServer") -> None:
        self._server = server
        self._frames = protocol.FrameReader(server.config.max_frame_bytes)
        self._transport: Optional[asyncio.Transport] = None
        self._tasks: Set[asyncio.Task] = set()
        self._can_write = asyncio.Event()
        self._can_write.set()
        self._closed = asyncio.get_running_loop().create_future()
        self._poisoned = False
        self._idle_timer: Optional[asyncio.TimerHandle] = None

    # -- transport callbacks -------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            # Shard frames are small and latency-bound: never Nagle them.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Multi-megabyte requests should fit the kernel buffer in
            # one piece: every extra exchange is a scheduler round trip
            # between the client and this loop.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * 1024 * 1024
            )
        self._server._writers.add(self)
        self._touch_idle()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._frames.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        self._touch_idle()
        if self._poisoned:
            return
        try:
            complete = self._frames.buffer_updated(nbytes)
        except ProtocolError as exc:
            self._poison(exc)
            return
        for frame in complete:
            self._spawn(self._server._handle_frame(frame, self))
        poison = self._frames.pending_error
        if poison is not None:
            self._poison(poison)

    def eof_received(self) -> bool:
        # Half-close: the client is done sending but still expects the
        # responses for requests already in flight.
        self._spawn(self._finish_and_close())
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None
        self._server._writers.discard(self)
        self._can_write.set()  # unblock drains; they raise on the check
        if not self._closed.done():
            self._closed.set_result(None)

    # -- idle-connection reaping ---------------------------------------

    def _touch_idle(self) -> None:
        """(Re)arm the idle timer: bytes arrived or the check deferred."""
        timeout = self._server.config.idle_timeout
        if timeout <= 0:
            return
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        self._idle_timer = asyncio.get_running_loop().call_later(
            timeout, self._idle_expired
        )

    def _idle_expired(self) -> None:
        """Close the connection unless a request is still in flight.

        A slow *response* (long shard compute, flow-controlled write)
        keeps its task alive — only a connection with nothing in
        flight and nothing arriving is dead weight pinning its receive
        buffers, which is exactly what the timeout exists to reap.
        """
        self._idle_timer = None
        if self._tasks:
            self._touch_idle()
            return
        self.close()

    def pause_writing(self) -> None:
        self._can_write.clear()

    def resume_writing(self) -> None:
        self._can_write.set()

    # -- frame dispatch ------------------------------------------------

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        self._server._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(self._server._tasks.discard)

    def _poison(self, exc: ProtocolError) -> None:
        self._poisoned = True
        self._spawn(self._answer_poison(exc))

    async def _answer_poison(self, exc: ProtocolError) -> None:
        # Frames completed before the violation are already in flight;
        # let them answer, then report the violation and drop the
        # connection — the stream boundary is lost.
        await self._settle()
        try:
            self.write(protocol.encode_error(0, exc.code, str(exc)))
            await self.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self.close()

    async def _finish_and_close(self) -> None:
        await self._settle()
        self.close()

    async def _settle(self) -> None:
        """Wait for every other in-flight task on this connection."""
        while True:
            others = self._tasks - {asyncio.current_task()}
            if not others:
                return
            await asyncio.gather(*others, return_exceptions=True)

    # -- the writer surface handed to request handlers -----------------

    def write(self, data: bytes) -> None:
        if self._transport is None or self._transport.is_closing():
            raise ConnectionResetError("connection is closed")
        self._transport.write(data)

    async def drain(self) -> None:
        await self._can_write.wait()
        if self._transport is None or self._transport.is_closing():
            raise ConnectionResetError("connection is closed")

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    async def wait_closed(self) -> None:
        await self._closed

    def get_extra_info(self, name: str, default=None):
        if self._transport is None:
            return default
        return self._transport.get_extra_info(name, default)


class SpikeServer:
    """The packed-bitset RPC server (see the module docstring).

    Construct, ``await start()``, and either hold onto it (tests) or
    ``await`` :meth:`wait_closed`.  ``runner=None`` makes the server
    own a :class:`~repro.pipeline.runner.Runner` with ``config.jobs``
    workers and close it on shutdown; passing a runner shares an
    existing pool (the caller keeps ownership).
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        runner: Optional[Runner] = None,
        *,
        sock=None,
        stats: Optional[ServerStats] = None,
        stats_aggregator=None,
        basis: Optional[HyperspaceBasis] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._runner = runner
        self._owns_runner = runner is None
        self._server: Optional[asyncio.AbstractServer] = None
        self._basis: Optional[HyperspaceBasis] = basis
        self._basis_token: Optional[str] = None
        self._budget = _InflightBudget(self.config.max_inflight_bytes)
        self._writers: Set["_Connection"] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._coalescer: Optional[_Coalescer] = None
        self._closing = False
        # The cluster tier injects all three: a pre-bound SO_REUSEPORT
        # socket (every worker accepts on one port), a stats object
        # mirroring into the cluster's shared block, and the aggregator
        # answering cluster-scope STATS from that block.
        self._sock = sock
        self.stats = stats if stats is not None else ServerStats()
        self._stats_aggregator = stats_aggregator
        self._corpus = None  # CorpusStore once start() opens config.corpus
        self._corpus_name: Optional[str] = None

    @property
    def requests_served(self) -> int:
        """Total requests answered successfully (all transports)."""
        return self.stats.requests_served

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``config.port == 0``)."""
        if self._server is None:
            raise ServingError(protocol.ERR_INTERNAL, "server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def basis(self) -> HyperspaceBasis:
        """The reference basis requests are identified against."""
        if self._basis is None:
            raise ServingError(protocol.ERR_INTERNAL, "server not started")
        return self._basis

    def _use_pool(self) -> bool:
        """True when shards go to the worker pool (vs in-process)."""
        return (
            self._runner is not None
            and self._runner.jobs > 1
            and HAVE_SHARED_MEMORY
        )

    async def start(self) -> None:
        """Build the basis, warm the pool, bind the socket."""
        if self._runner is None:
            self._runner = Runner(jobs=self.config.jobs)
        if self._basis is None:
            # Cluster workers inject a basis attached from the shared
            # startup arena instead of re-running the synthesis.
            self._basis = build_serving_basis(self.config)
        table = dispatch.export_basis(self._basis)
        self._basis_token = table.token
        # Install in this process first: a pool forked later inherits
        # the registry for free.  The broadcast covers pools that
        # already exist (shared runners) and spawn-based hosts.
        dispatch.install_basis(table)
        if self._use_pool():
            self._runner.broadcast(dispatch.install_basis, table)
        if self.config.corpus is not None:
            self._open_corpus()
        if self.config.coalesce_window > 0:
            self._coalescer = _Coalescer(
                self,
                self.config.coalesce_window,
                self.config.coalesce_max_wires,
            )
        loop = asyncio.get_running_loop()
        if self._sock is not None:
            self._server = await loop.create_server(
                lambda: _Connection(self), sock=self._sock
            )
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), self.config.host, self.config.port
            )

    def _open_corpus(self) -> None:
        """Open the configured corpus read-only and pin its identity.

        Startup-time validation: the corpus must live on the serving
        basis's exact grid, so a query can never silently score mapped
        rows against a basis from a different geometry.  The corpus is
        addressed by its directory basename in ``FRAME_CORPUS_QUERY``
        frames (also advertised in PONG replies).
        """
        root = pathlib.Path(self.config.corpus)
        store = CorpusStore(root)
        grid = self.basis.grid
        corpus_grid = store.grid()
        if corpus_grid != grid:
            raise ServingError(
                protocol.ERR_BAD_GRID,
                f"corpus at {root} lives on n_samples="
                f"{corpus_grid.n_samples}, dt={corpus_grid.dt}; the serving "
                f"basis needs n_samples={grid.n_samples}, dt={grid.dt}",
            )
        self._corpus = store
        self._corpus_name = root.name

    @property
    def corpus_name(self) -> Optional[str]:
        """Name the hosted corpus answers to (None: no corpus hosted)."""
        return self._corpus_name

    async def wait_closed(self) -> None:
        """Block until the listening socket shuts down."""
        if self._server is not None:
            await self._server.wait_closed()

    async def close(self, drain_timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, release worker attachments, stop.

        Stops accepting, waits up to ``drain_timeout`` seconds for
        in-flight requests (their arenas) to finish — then **forcibly
        cancels** whatever is still running (logging a summary of what
        was cut down) rather than leaking stuck tasks: shutdown must
        terminate even when a request hangs.  Closes the remaining
        connections, then broadcasts the basis discard and the
        end-of-run attachment release over the pool so workers drop
        every mapping of this serving session before the runner (if
        owned) tears down.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._coalescer is not None:
            await self._coalescer.close()
        if self._tasks:
            _done, stuck = await asyncio.wait(
                list(self._tasks), timeout=drain_timeout
            )
            if stuck:
                # Forced cancel: a request that did not finish inside
                # the drain window is cut down so shutdown terminates;
                # its budget bytes release through the cancel's finally.
                for task in stuck:
                    task.cancel()
                await asyncio.gather(*stuck, return_exceptions=True)
                log.get_logger("server").warning(
                    "shutdown drain expired after %.1fs: force-cancelled "
                    "%d in-flight request task(s)",
                    drain_timeout,
                    len(stuck),
                )
        try:
            await asyncio.wait_for(self._budget.drained(), drain_timeout)
        except asyncio.TimeoutError:
            log.get_logger("server").warning(
                "shutdown proceeding with %d byte(s) still pinned in the "
                "in-flight budget (stuck shard work)",
                self._budget.in_flight,
            )
        for writer in list(self._writers):
            writer.close()
        if self._runner is not None:
            if self._use_pool() and self._basis_token is not None:
                try:
                    self._runner.broadcast(
                        dispatch.discard_basis, self._basis_token
                    )
                except Exception:  # pragma: no cover - dying pool
                    pass
            self._runner.release_worker_attachments()
            if self._owns_runner:
                self._runner.close()
        if self._basis_token is not None:
            dispatch.discard_basis(self._basis_token)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _send(
        self, writer: "_Connection", frame: bytes, *, drain: bool = True
    ) -> None:
        """Write one encoded frame; ``drain`` waits out flow control."""
        fault = faults.maybe_fire("serving.send_frame")
        if fault is not None and fault.action == "truncate":
            # Chaos harness: deliver a prefix of the frame and drop the
            # connection — the mid-write crash a client must survive.
            writer.write(bytes(frame[: fault.param_int]))
            writer.close()
            raise ConnectionResetError("fault injected: frame truncated")
        writer.write(frame)
        if drain:
            await writer.drain()

    async def _handle_frame(
        self, frame: protocol.Frame, writer: "_Connection"
    ) -> None:
        """Answer STATS and PING inline; serve every other frame."""
        if frame.frame_type == protocol.FRAME_STATS:
            # Clustered workers answer cluster-wide counters unless the
            # client explicitly asked for this worker's ("local").  A
            # plain server has no aggregator and always answers itself.
            scope = protocol.stats_scope(frame)
            if self._stats_aggregator is not None and scope != "local":
                payload = self._stats_aggregator()
            else:
                payload = self.stats.snapshot()
            await self._send(
                writer,
                protocol.encode_json_frame(
                    protocol.FRAME_STATS_REPLY, frame.request_id, payload
                ),
            )
            return
        if frame.frame_type == protocol.FRAME_PING:
            # The load-balancer probe: answered inline on the event
            # loop, no compute, no pool, no aggregation — a server that
            # answers PONG is accepting and parsing frames.  The reply
            # advertises the hosted corpus (if any) so a probe doubles
            # as discovery.
            await self._send(
                writer,
                protocol.encode_json_frame(
                    protocol.FRAME_PONG,
                    frame.request_id,
                    {
                        "kind": "pong",
                        "ready": not self._closing,
                        "protocol_version": protocol.PROTOCOL_VERSION,
                        "corpus": self._corpus_name,
                        "corpus_rows": (
                            self._corpus.n_rows
                            if self._corpus is not None
                            else None
                        ),
                    },
                ),
            )
            return
        if self._closing:
            # A typed refusal instead of silence: the request is
            # retryable by definition (it never started computing), and
            # answering it is what lets a client fail over to a healthy
            # worker instead of hanging until its own timeout.
            try:
                await self._send(
                    writer,
                    protocol.encode_error(
                        frame.request_id,
                        protocol.ERR_RETRYABLE,
                        "server is draining for shutdown; retry the request",
                    ),
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
            return
        faults.maybe_fire("serving.handle_frame")
        await self._serve(frame, writer)

    async def _serve(
        self, frame: protocol.Frame, writer: "_Connection"
    ) -> None:
        """Serve one compute frame of any kind: the one request path.

        The frame's :data:`_KINDS` entry supplies only what differs
        between kinds — parse, check, shard plan, the DONE summary's
        extra keys.  Everything else happens here, once: the deadline,
        in-flight budget admission (only plans that pin an arena
        charge it — fast-path and coalesced requests pin nothing, so
        charging them would let a burst of tiny requests queue behind,
        or spuriously OVERLOAD, real arena work), streaming each
        shard's result frame, ``stats.record`` and the DONE frame.  Any
        failure answers exactly one typed error frame and no DONE: a
        :class:`~repro.errors.ServingError` (parse errors included)
        with its own code, anything unexpected as ``ERR_INTERNAL``.
        """
        loop = asyncio.get_running_loop()
        try:
            kind = _KINDS.get(frame.frame_type)
            if kind is None:
                raise ProtocolError(
                    protocol.ERR_BAD_TYPE,
                    f"frame type 0x{frame.frame_type:02x} is not a request",
                )
            query = kind.parse(frame)
            deadline = self._deadline_at(query.deadline_ms)
            kind.check(self, query)
            plan = kind.plan(self, query)
            if plan.budget_bytes:
                await self._acquire_budget(plan.budget_bytes, deadline)
            try:
                started = loop.time()
                residency = await self._stream(plan, query, writer, deadline)
                wall_seconds = loop.time() - started
            finally:
                if plan.budget_bytes:
                    await self._budget.release(plan.budget_bytes)
            summary = {
                "kind": "done",
                "mode": query.mode,
                "n_shards": plan.n_shards,
                "labels": list(self.basis.labels),
                "transport": plan.transport,
                "wall_seconds": wall_seconds,
                "server_residency": residency,
                **kind.done_keys(query),
            }
            # Recorded before the DONE frame leaves the process: a
            # client that holds the reply must find the request in the
            # counters, even when its next STATS lands on a clustered
            # sibling.
            self.stats.record(plan.transport, wall_seconds)
            await self._send(
                writer,
                protocol.encode_json_frame(
                    protocol.FRAME_DONE, frame.request_id, summary
                ),
            )
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:  # noqa: BLE001 - must answer the client
            self.stats.errors += 1
            if isinstance(exc, ServingError):
                code, message = exc.code, str(exc)
            else:
                code = protocol.ERR_INTERNAL
                message = f"{type(exc).__name__}: {exc}"
            await self._send(
                writer, protocol.encode_error(frame.request_id, code, message)
            )

    async def _stream(self, plan: "_Plan", query, writer, deadline) -> dict:
        """Write each shard result of ``plan`` as it lands.

        Results arrive in shard order, one at a time (on the pool, a
        slow early shard delays the later shards' *frames*, never their
        compute).  The deadline is checked before each shard: once it
        passes, no further shard is awaited or streamed and the request
        fails with ``ERR_DEADLINE``.  Every shard frame but the last
        drains; the last leaves with the DONE frame's drain, so a
        single-shard reply (fast path, coalesced) costs one
        flow-control round trip.  Returns the shards' merged
        representation residency.
        """
        residency = {"packed": False, "csr": False, "raster": False}
        try:
            for index in range(plan.n_shards):
                self._check_deadline(deadline, "while streaming shards")
                payload = await next(plan.shards)
                for key in residency:
                    residency[key] |= bool(payload["residency"][key])
                await self._send(
                    writer,
                    protocol.encode_result_frame(
                        query.request_id, payload, mode=query.mode
                    ),
                    drain=index + 1 < plan.n_shards,
                )
        finally:
            # Ends the plan's stream early on failure — a pool plan's
            # arena closes here, before the budget bytes release.
            plan.shards.close()
        return residency

    # ------------------------------------------------------------------
    # Deadlines and budget admission
    # ------------------------------------------------------------------

    @staticmethod
    def _deadline_at(deadline_ms: int) -> Optional[float]:
        """The request's absolute loop-time deadline (None: none).

        The budget starts the moment the server looks at the request —
        client and server clocks are never compared, only the duration
        crosses the wire.
        """
        if not deadline_ms:
            return None
        return asyncio.get_running_loop().time() + deadline_ms / 1000.0

    @staticmethod
    def _check_deadline(deadline: Optional[float], where: str) -> None:
        """Abandon the request once its deadline passed.

        Called between pipeline stages (never inside a kernel): expired
        work stops at the next stage boundary, its budget bytes release
        through the caller's ``finally``, and the client gets the typed
        :data:`~repro.serving.protocol.ERR_DEADLINE` instead of a
        result it has stopped waiting for.
        """
        if (
            deadline is not None
            and asyncio.get_running_loop().time() >= deadline
        ):
            raise ServingError(
                protocol.ERR_DEADLINE, f"request deadline expired {where}"
            )

    async def _acquire_budget(
        self, nbytes: int, deadline: Optional[float]
    ) -> None:
        """Budget admission bounded by the request deadline.

        A request whose deadline expires while *queued* is the cheapest
        possible deadline miss — nothing was computed, nothing pinned
        (the cancelled acquire retracts its ticket), and the waiters
        behind it move up.
        """
        if deadline is None:
            await self._budget.acquire(nbytes)
            return
        remaining = deadline - asyncio.get_running_loop().time()
        if remaining > 0:
            try:
                await asyncio.wait_for(
                    self._budget.acquire(nbytes), remaining
                )
                return
            except asyncio.TimeoutError:
                pass
        raise ServingError(
            protocol.ERR_DEADLINE,
            "request deadline expired waiting for the in-flight budget",
        )

    # ------------------------------------------------------------------
    # The kinds: checks and shard plans
    # ------------------------------------------------------------------

    def _check_grid(self, request: protocol.Request) -> None:
        """Bitset requests must live on the server basis's exact grid."""
        grid = self.basis.grid
        if request.n_samples != grid.n_samples or request.dt != grid.dt:
            raise ServingError(
                protocol.ERR_BAD_GRID,
                f"request grid (n_samples={request.n_samples}, "
                f"dt={request.dt}) does not match the serving basis grid "
                f"(n_samples={grid.n_samples}, dt={grid.dt})",
            )

    def _plan_bitset(self, request: protocol.Request) -> "_Plan":
        """Route one bitset request: sharded, coalesced or fast path.

        Explicit sharding (a nonzero request or config shard count) and
        payloads over ``fast_path_bytes`` take the sharded pipeline —
        over the pool through a per-request arena, else in-process on a
        worker thread — and only they charge the in-flight budget.
        Below that, payloads go to the coalescer when one is running,
        else straight to the fast path, computed inline on the loop:
        below the size cap a receiver pass is far cheaper than a thread
        handoff, and the packed kernels release no locks a worker
        thread could exploit anyway.
        """
        wants_shards = bool(request.n_shards or self.config.n_shards)
        if wants_shards or request.packed.nbytes > self.config.fast_path_bytes:
            batch = SpikeTrainBatch.from_packed(request.packed, request.grid())
            # The default follows the runner actually dispatching —
            # possibly a shared runner with more jobs than the config.
            pool_jobs = (
                self._runner.jobs
                if self._runner is not None
                else self.config.jobs
            )
            wanted = request.n_shards or self.config.n_shards or pool_jobs
            ranges = _split(0, request.n_wires, wanted)
            if self._use_pool():
                shards = self._arena_shards(request, batch, ranges)
                transport = "shared-arena"
            else:
                shards = _off_loop(
                    partial(self._compute_rows, request, batch, lo, hi)
                    for lo, hi in ranges
                )
                transport = "in-process"
            return _Plan(transport, len(ranges), shards, request.packed.nbytes)
        if (
            self._coalescer is not None
            and request.n_wires <= self.config.coalesce_max_wires
        ):
            return _Plan("coalesced", 1, self._coalescer.results(request))
        batch = SpikeTrainBatch.from_packed(request.packed, request.grid())
        compute = partial(
            self._compute_rows, request, batch, 0, request.n_wires
        )
        return _Plan("fast-path", 1, _on_loop(compute))

    def _compute_rows(self, request, batch, lo: int, hi: int) -> dict:
        """One in-process shard: rows ``[lo, hi)`` of a request batch."""
        rows = (
            batch
            if (lo, hi) == (0, request.n_wires)
            else batch.select_rows(np.arange(lo, hi))
        )
        return dispatch.compute_shard(
            self.basis, rows, lo, hi, mode=request.mode,
            start_slot=request.start_slot, limit=request.limit,
        )

    def _arena_shards(self, request, batch, ranges):
        """Pool shards of one request batch through a per-request arena.

        The arena outlives every supervised result: a shard recovered
        after a worker loss re-reads the same operands, so the stream
        stays bit-identical to an undisturbed run.  It closes when the
        stream ends (segments unlink once the last worker detaches;
        the runner's release broadcast covers shutdown).
        """
        scan = {"start_slot": request.start_slot, "limit": request.limit}
        with SharedArena() as arena:
            wires = batch.to_shared(arena)
            tasks = [
                dispatch.ShardTask(
                    self._basis_token, request.mode, lo, hi, scan, wires
                )
                for lo, hi in ranges
            ]
            yield from self._pooled(tasks)

    def _pooled(self, tasks):
        """Pool results of ``tasks`` in task order, each awaited off-loop.

        The runner's supervised fan-out detects a dead worker (its pid
        set changed) or a hung one (``shard_timeout``) and re-runs the
        shard down the recovery ladder to the in-process floor, so a
        served request never hangs on a dead pool.
        """
        results = self._runner.supervised_results(
            dispatch.run_shard,
            tasks,
            timeout=self.config.shard_timeout,
            retries=self.config.shard_retries,
        )
        for _ in tasks:
            yield asyncio.to_thread(next, results)

    def _check_corpus(self, query: protocol.CorpusQuery) -> None:
        """The query must name the hosted corpus and fit inside it."""
        if self._corpus is None:
            raise ServingError(
                protocol.ERR_NO_CORPUS,
                "this server hosts no corpus (start it with --corpus)",
            )
        if query.corpus != self._corpus_name:
            raise ServingError(
                protocol.ERR_NO_CORPUS,
                f"no corpus named {query.corpus!r} here "
                f"(hosting {self._corpus_name!r})",
            )
        if query.row_stop > self._corpus.n_rows:
            raise ServingError(
                protocol.ERR_BAD_FRAME,
                f"row range [{query.row_start}, {query.row_stop}) outside "
                f"corpus of {self._corpus.n_rows} rows",
            )

    def _plan_corpus(self, query: protocol.CorpusQuery) -> "_Plan":
        """Chunks of one corpus scan, computed one at a time off-loop.

        At least enough chunks that none maps more than
        ``corpus_chunk_rows`` rows — the peak-memory contract — and at
        least as many as the client asked for.  Result frames reach the
        client as the scan advances, and at no point is more than one
        window's pages plus one result frame in flight.
        """
        chunk_rows = max(1, self.config.corpus_chunk_rows)
        budget_chunks = -(-query.n_wires // chunk_rows)
        ranges = _split(
            query.row_start, query.row_stop, max(query.n_shards, budget_chunks)
        )
        steps = (
            partial(self._compute_corpus_chunk, query, lo, hi)
            for lo, hi in ranges
        )
        return _Plan("corpus-mmap", len(ranges), _off_loop(steps))

    def _compute_corpus_chunk(
        self, query: protocol.CorpusQuery, lo: int, hi: int
    ) -> dict:
        """Map one row window and run the receiver pass on it.

        Runs off-loop: the kernels compute straight on the mapped
        words, so this is where the file pages actually fault in — and
        the mapping is dropped with the chunk batch, keeping the scan's
        working set at one window.
        """
        return dispatch.compute_shard(
            self.basis,
            self._corpus.open_rows(lo, hi),
            lo,
            hi,
            mode=query.mode,
            start_slot=query.start_slot,
            limit=query.limit,
        )

    #: Cap on evaluated gates per logicnet request (networks × depth ×
    #: gates) — bounds the packed working set the same way the frame
    #: size cap bounds bitset requests.
    _LOGICNET_MAX_GATES = 1 << 24

    def _check_logicnet(self, query: protocol.LogicNetQuery) -> None:
        """The query's shape must fit the server's compute budget."""
        total = query.n_networks * query.depth * query.n_gates
        if total > self._LOGICNET_MAX_GATES:
            raise ServingError(
                protocol.ERR_OVERLOADED,
                f"logicnet query evaluates {total} gates, over this "
                f"server's cap of {self._LOGICNET_MAX_GATES}; "
                f"split the network range across requests",
            )

    def _plan_logicnet(self, query: protocol.LogicNetQuery) -> "_Plan":
        """Shards of one logicnet query along the network axis.

        The request ships no payload, so there is no arena and no byte
        budget: each pool task is a few integers, and workers rebuild
        their networks from spawn keys against the basis they already
        hold installed.
        """
        ranges = _split(
            query.net_start,
            query.net_stop,
            query.n_shards or self.config.n_shards or 1,
        )
        family = {
            "seed": query.seed, "n_gates": query.n_gates, "depth": query.depth
        }
        if self._use_pool():
            token = self._basis_token
            tasks = [
                dispatch.ShardTask(token, "logicnet", lo, hi, family)
                for lo, hi in ranges
            ]
            return _Plan("seed-rebuild", len(ranges), self._pooled(tasks))
        compute = partial(dispatch.compute_logicnet_shard, self.basis)
        steps = (partial(compute, lo, hi, **family) for lo, hi in ranges)
        return _Plan("in-process", len(ranges), _off_loop(steps))


class _Plan(NamedTuple):
    """How one admitted request produces its shard results."""

    transport: str
    n_shards: int
    #: Yields one awaitable per shard, in shard order, resolving to the
    #: shard's payload; the request path awaits them one at a time.
    shards: Iterator[Awaitable[dict]]
    #: Bytes the request holds in the in-flight budget while its shards
    #: stream (0: the plan pins no arena).
    budget_bytes: int = 0


@dataclass(frozen=True)
class _Kind:
    """What one compute frame kind brings to :meth:`SpikeServer._serve`."""

    parse: Callable[[protocol.Frame], Any]
    check: Callable[[SpikeServer, Any], None]
    plan: Callable[[SpikeServer, Any], _Plan]
    #: The DONE summary's kind-specific keys.
    done_keys: Callable[[Any], dict]


_BITSET = _Kind(
    parse=protocol.parse_request,
    check=SpikeServer._check_grid,
    plan=SpikeServer._plan_bitset,
    done_keys=lambda request: {"n_wires": request.n_wires},
)

#: frame type → kind: every compute request the server answers.
_KINDS: Dict[int, _Kind] = {
    protocol.FRAME_IDENTIFY: _BITSET,
    protocol.FRAME_MEMBERSHIP: _BITSET,
    protocol.FRAME_CORPUS_QUERY: _Kind(
        parse=protocol.parse_corpus_query,
        check=SpikeServer._check_corpus,
        plan=SpikeServer._plan_corpus,
        done_keys=lambda query: {
            "n_wires": query.n_wires,
            "corpus": query.corpus,
            "row_start": query.row_start,
            "row_stop": query.row_stop,
        },
    ),
    protocol.FRAME_LOGICNET: _Kind(
        parse=protocol.parse_logicnet_query,
        check=SpikeServer._check_logicnet,
        plan=SpikeServer._plan_logicnet,
        done_keys=lambda query: {
            "n_networks": query.n_networks,
            "n_gates": query.n_gates,
            "depth": query.depth,
            "row_start": query.net_start,
            "row_stop": query.net_stop,
        },
    ),
}


def _split(start: int, stop: int, n_chunks: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` as ``n_chunks`` contiguous ranges.

    ``n_chunks`` is clamped to ``[1, stop - start]``.  Every shard plan
    is a pure function of the request and the config — never of which
    workers pick the shards up — which is what keeps a served reply
    bit-identical however many workers execute it.
    """
    n_chunks = max(1, min(int(n_chunks), stop - start))
    bounds = np.linspace(start, stop, n_chunks + 1).astype(np.int64)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _on_loop(compute) -> Iterator[Awaitable[dict]]:
    """One result computed inline on the event loop (the fast path)."""
    yield _inline(compute)


async def _inline(compute) -> dict:
    return compute()


def _off_loop(steps) -> Iterator[Awaitable[dict]]:
    """Each step's result computed on a worker thread, one at a time."""
    for step in steps:
        yield asyncio.to_thread(step)


class ServerThread:
    """A :class:`SpikeServer` on a private event loop in a daemon thread.

    The embedding harness shared by the tests, the benchmark, the
    example and the CI smoke job::

        with ServerThread(ServerConfig(n_samples=4096)) as handle:
            client = ServingClient(handle.host, handle.port)
            ...

    ``close()`` (or leaving the ``with`` block) performs the server's
    graceful shutdown and joins the thread.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        runner: Optional[Runner] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._runner = runner
        self.server: Optional[SpikeServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.port: Optional[int] = None

    @property
    def host(self) -> str:
        """The configured bind host."""
        return self.config.host

    def start(self) -> "ServerThread":
        """Start the loop thread and block until the socket is bound."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serving",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise ServingError(
                protocol.ERR_INTERNAL, "server thread failed to start in 60s"
            )
        if self._startup_error is not None:
            raise self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = SpikeServer(self.config, self._runner)
        try:
            await server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            self._startup_error = exc
            self._ready.set()
            return
        self.server = server
        self.port = server.port
        self._ready.set()
        await self._stop.wait()
        await server.close()

    def close(self) -> None:
        """Gracefully shut the server down and join the thread."""
        if self._thread is None or not self._thread.is_alive():
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


async def _serve_until_signal(config: ServerConfig, out) -> None:
    """Run one server until SIGINT/SIGTERM (or cancellation)."""
    import signal

    logger = log.configure(stream=out)
    server = SpikeServer(config)
    await server.start()
    logger.info(
        "repro serve: listening on %s:%d (M=%d, n_samples=%d, jobs=%d, "
        "seed=%d)",
        config.host,
        server.port,
        config.basis_size,
        config.n_samples,
        config.jobs,
        config.seed,
    )
    if server.corpus_name is not None:
        logger.info(
            "repro serve: hosting corpus %r (%d rows, chunk window %d rows)",
            server.corpus_name,
            server._corpus.n_rows,
            config.corpus_chunk_rows,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    try:
        await stop.wait()
    finally:
        logger.info("repro serve: shutting down")
        await server.close()
        logger.info("repro serve: %s", server.stats.summary())


def serve_forever(config: ServerConfig, out=sys.stdout) -> int:
    """Blocking entry point behind ``repro serve``.

    ``config.workers > 1`` hands off to the multi-process cluster
    (:func:`repro.serving.cluster.serve_cluster`); otherwise one
    in-process server runs until a signal.
    """
    if config.workers > 1:
        from .cluster import serve_cluster

        return serve_cluster(config, out=out)
    try:
        asyncio.run(_serve_until_signal(config, out))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0
