"""Reference clients for the packed-bitset serving protocol.

:class:`ServingClient` is the canonical consumer of
:mod:`repro.serving.protocol` — a small blocking-socket client used by
the integration tests, ``benchmarks/bench_serving.py``,
``examples/serve_and_query.py`` and the CI smoke job, and the
copy-pasteable starting point documented in ``docs/serving.md``.
:class:`AsyncServingClient` is its asyncio sibling for **pipelined**
use: many requests in flight on one connection, responses demuxed by
request id as the server interleaves them.

Neither client ever touches spike indices: both take a
:class:`~repro.backend.batch.SpikeTrainBatch` (or an already-packed
bitset), frame its ``packbits`` transport form — packed straight from
the CSR, no raster, and handed to the socket as buffer views without
an intermediate concatenation copy — and merge the per-shard binary
result frames (:func:`~repro.serving.protocol.parse_result_frame`) the
server streams back into whole-batch result arrays.

The *corpus* methods (``corpus_identify`` / ``corpus_membership``)
name a corpus the server hosts (``repro serve --corpus``) plus a row
range instead of shipping a bitset, and the server streams back chunk
results computed straight off its memmap — the reply merges exactly
like a bitset request's.  ``logicnet()`` sends a 20-byte query naming
a seeded network family and a network range; the server rebuilds and
evaluates the networks against its own basis and streams back
per-network summaries.  ``ping()`` is the one-frame health probe.
Both clients share one request API and send every request down one
round-trip path: encode with a fresh request id, send, collect the
response frames by that id.

Usage::

    with ServingClient(host, port) as client:
        reply = client.identify(batch)
        reply.elements          # (N,) identified element per wire
        reply.shards            # per-shard payloads, wall times included
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, List, Optional, Union

import numpy as np

from ..backend.batch import SpikeTrainBatch
from ..errors import ConnectionLostError, ProtocolError, ServingError
from ..units import SimulationGrid
from . import protocol

__all__ = [
    "ServingClient",
    "AsyncServingClient",
    "RetryPolicy",
    "IdentifyReply",
    "MembershipReply",
    "LogicNetReply",
]


@dataclass(frozen=True)
class RetryPolicy:
    """When and how a client re-issues a failed request.

    Retries apply only to failures that are *typed retryable*: a
    :class:`~repro.errors.ServingError` whose
    :attr:`~repro.errors.ServingError.retryable` is True (the server
    said "try again" — draining, deadline pressure), a
    :class:`~repro.errors.ConnectionLostError` (the channel died, the
    request was never refuted), or an ``OSError``/``EOFError`` from the
    transport (reset, refused, timed out).  Structural failures — bad
    grids, malformed frames, unknown corpora — raise immediately; they
    would fail identically forever.

    Every request this library's clients issue is idempotent (pure
    reads of a deterministic function), so re-issuing is always safe;
    the policy still lives behind an explicit opt-in (``retry=``)
    because retrying multiplies worst-case latency.

    Delays follow capped exponential backoff with full-range jitter::

        delay(k) = uniform(0, min(max_delay, base_delay * factor**k))

    — the standard decorrelation so a fleet of clients that failed
    together does not reconnect together.
    """

    attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0

    def delay(self, retry_index: int) -> float:
        """The sleep before retry ``retry_index`` (0-based), jittered."""
        ceiling = min(
            float(self.max_delay),
            float(self.base_delay) * float(self.factor) ** retry_index,
        )
        return random.random() * ceiling


def _retryable(exc: BaseException) -> bool:
    """Is ``exc`` a failure a fresh attempt could outlive?"""
    if isinstance(exc, ServingError):
        return exc.retryable
    return isinstance(exc, (OSError, EOFError))


@dataclass(frozen=True)
class IdentifyReply:
    """A merged identify response.

    The arrays are the concatenation of the per-shard results in row
    order — the same triplet
    :class:`~repro.logic.correlator.BatchIdentification` carries, so
    equality against a local ``identify_batch`` run is one array
    compare.
    """

    elements: np.ndarray
    decision_slots: np.ndarray
    spikes_inspected: np.ndarray
    labels: List[str]
    shards: List[dict]
    summary: dict


@dataclass(frozen=True)
class MembershipReply:
    """A merged membership response (``(N, M)`` matrices, row order)."""

    membership: np.ndarray
    first_slots: np.ndarray
    labels: List[str]
    shards: List[dict]
    summary: dict


@dataclass(frozen=True)
class LogicNetReply:
    """A merged logicnet response (network order).

    ``popcounts`` is the ``(N, G)`` int64 matrix of output spike
    counts and ``checksums`` the ``(N,)`` uint64 XOR folds — the same
    summaries :meth:`~repro.logic.netbatch.LogicNetBatch.evaluate`
    returns locally, so served-vs-local equality is two array
    compares.
    """

    popcounts: np.ndarray
    checksums: np.ndarray
    labels: List[str]
    shards: List[dict]
    summary: dict


def _server_error(payload: dict) -> ServingError:
    """The typed exception an ERROR frame's payload describes."""
    return ServingError(
        int(payload.get("code", protocol.ERR_INTERNAL)),
        f"server error {payload.get('error', 'UNKNOWN')}: "
        f"{payload.get('message', '')}",
    )


def _transport_form(wires, grid):
    """``(packed bitset, grid)`` of the caller's batch."""
    if isinstance(wires, SpikeTrainBatch):
        return wires.packbits(), wires.grid
    if grid is None:
        raise ServingError(
            protocol.ERR_BAD_FRAME,
            "a raw packed array needs an explicit grid",
        )
    return np.asarray(wires, dtype=np.uint8), grid


def _buffers(encoded) -> List[memoryview]:
    """One encoded request as a list of byte buffers, uncopied."""
    if isinstance(encoded, (bytes, bytearray)):
        return [memoryview(encoded)]
    return list(encoded)


def _identify_reply(shards: List[dict], summary: dict) -> IdentifyReply:
    return IdentifyReply(
        elements=_merged(shards, "elements"),
        decision_slots=_merged(shards, "decision_slots"),
        spikes_inspected=_merged(shards, "spikes_inspected"),
        labels=list(summary.get("labels", [])),
        shards=shards,
        summary=summary,
    )


def _membership_reply(shards: List[dict], summary: dict) -> MembershipReply:
    return MembershipReply(
        membership=_merged(shards, "membership").astype(bool),
        first_slots=_merged(shards, "first_slots"),
        labels=list(summary.get("labels", [])),
        shards=shards,
        summary=summary,
    )


def _logicnet_reply(shards: List[dict], summary: dict) -> LogicNetReply:
    n_gates = int(summary.get("n_gates", 0))
    if shards:
        popcounts = np.concatenate(
            [np.asarray(s["popcounts"], dtype=np.int64) for s in shards]
        )
        checksums = np.concatenate(
            [np.asarray(s["checksums"], dtype=np.uint64) for s in shards]
        )
    else:
        popcounts = np.empty((0, n_gates), dtype=np.int64)
        checksums = np.empty(0, dtype=np.uint64)
    return LogicNetReply(
        popcounts=popcounts,
        checksums=checksums,
        labels=list(summary.get("labels", [])),
        shards=shards,
        summary=summary,
    )


def _json_reply(_shards: List[dict], payload: dict) -> dict:
    """The reply of a PING or STATS request: its JSON payload."""
    return payload


class _RequestAPI:
    """The request methods both clients share.

    Each method encodes its request and hands it to the client's one
    round-trip path, ``_call(reply, terminal, encode)``: ``encode``
    turns a fresh request id into the request's bytes, the response
    frames are collected by that id until the ``terminal`` frame, and
    ``reply`` merges the shard payloads and the terminal JSON payload.
    :class:`ServingClient` returns the merged reply;
    :class:`AsyncServingClient` returns a coroutine resolving to it.
    """

    def identify(
        self,
        wires: Union[SpikeTrainBatch, np.ndarray],
        grid: Optional[SimulationGrid] = None,
        *,
        start_slot: int = 0,
        n_shards: int = 0,
    ):
        """Identify every wire in ``wires`` against the server's basis.

        Returns an :class:`IdentifyReply`.
        """
        packed, grid = _transport_form(wires, grid)
        return self._compute(
            _identify_reply, protocol.encode_request_parts,
            packed, grid.n_samples, grid.dt,
            mode="identify", start_slot=start_slot, n_shards=n_shards,
        )

    def membership(
        self,
        wires: Union[SpikeTrainBatch, np.ndarray],
        grid: Optional[SimulationGrid] = None,
        *,
        until_slot: Optional[int] = None,
        n_shards: int = 0,
    ):
        """Set-membership readout of every wire against the basis.

        Returns a :class:`MembershipReply`.
        """
        packed, grid = _transport_form(wires, grid)
        return self._compute(
            _membership_reply, protocol.encode_request_parts,
            packed, grid.n_samples, grid.dt,
            mode="membership", limit=until_slot, n_shards=n_shards,
        )

    def corpus_identify(
        self,
        corpus: str,
        row_start: int,
        row_stop: int,
        *,
        start_slot: int = 0,
        n_shards: int = 0,
    ):
        """Identify rows ``[row_start, row_stop)`` of a server-hosted corpus.

        No bitset leaves this process — the request names the corpus
        and the row range, the server computes chunk-at-a-time off its
        memmap, and the merged :class:`IdentifyReply` is bit-identical
        to fetching those rows locally and calling :meth:`identify`.
        """
        return self._compute(
            _identify_reply, protocol.encode_corpus_query,
            corpus, row_start, row_stop,
            mode="identify", start_slot=start_slot, n_shards=n_shards,
        )

    def corpus_membership(
        self,
        corpus: str,
        row_start: int,
        row_stop: int,
        *,
        until_slot: Optional[int] = None,
        n_shards: int = 0,
    ):
        """Set-membership readout of a server-hosted corpus row range."""
        return self._compute(
            _membership_reply, protocol.encode_corpus_query,
            corpus, row_start, row_stop,
            mode="membership", limit=until_slot, n_shards=n_shards,
        )

    def logicnet(
        self,
        seed: int,
        net_start: int,
        net_stop: int,
        *,
        n_gates: int,
        depth: int,
        n_shards: int = 0,
    ):
        """Evaluate networks ``[net_start, net_stop)`` of a seeded family.

        The request is 20 bytes — no bitset leaves this process.  The
        server rebuilds each network from its ``spawn_rng(seed, i)``
        spawn key, evaluates it against the serving basis's packed
        input lines, and streams per-network output popcounts and
        checksums; the merged :class:`LogicNetReply` is bit-identical
        to building and evaluating the same range locally.
        """
        return self._compute(
            _logicnet_reply, protocol.encode_logicnet_query,
            seed, net_start, net_stop,
            n_gates=n_gates, depth=depth, n_shards=n_shards,
        )

    def ping(self):
        """One PING/PONG health round-trip (the load-balancer probe).

        Returns the PONG payload — ``{"ready": true, ...}`` plus the
        served protocol version and the hosted corpus name (if any).
        The cheapest possible liveness check: no compute, no STATS
        aggregation.
        """
        return self._call(
            _json_reply, protocol.FRAME_PONG, protocol.encode_ping
        )

    def stats(self, scope: Optional[str] = None):
        """The server's :class:`~repro.serving.server.ServerStats` snapshot.

        ``scope`` is forwarded on the wire (see
        :func:`~repro.serving.protocol.encode_stats_request`): against
        a ``--workers N`` cluster, the default answers cluster-wide
        aggregated counters and ``"local"`` answers only the worker
        this connection landed on.  Single servers ignore it.
        """
        return self._call(
            _json_reply,
            protocol.FRAME_STATS_REPLY,
            partial(protocol.encode_stats_request, scope=scope),
        )

    def _compute(self, reply, encode, *args, **options):
        """One compute request, stamped with the client's deadline."""
        return self._call(
            reply,
            protocol.FRAME_DONE,
            lambda request_id: encode(
                *args,
                request_id=request_id,
                deadline_ms=self._deadline_ms,
                **options,
            ),
        )


class ServingClient(_RequestAPI):
    """Blocking client for one serving endpoint.

    One TCP connection, reused across requests; close with
    :meth:`close` or a ``with`` block.  Not thread-safe — use one
    client per thread (the benchmark does exactly that).

    ``retry`` opts into re-issuing failed requests per
    :class:`RetryPolicy` — every retry reconnects first, so a crashed
    (and respawned) serving worker is transparent to the caller.
    ``deadline_ms`` stamps every compute request with a server-side
    deadline (0: none).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: int = 0,
    ) -> None:
        self._deadline_ms = protocol._check_deadline_ms(deadline_ms)
        self._retry = retry
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self._max_frame_bytes = int(max_frame_bytes)
        self._sock: Optional[socket.socket] = None
        self._reader = protocol.FrameReader(self._max_frame_bytes)
        self._pending: Deque[protocol.Frame] = deque()
        self._request_ids = itertools.count(1)
        self._connect()

    def _connect(self) -> None:
        """(Re)establish the TCP connection with a fresh frame parser."""
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        # Request/response frames are latency-bound: never Nagle them,
        # and let a whole multi-megabyte request enter the send buffer
        # in one call instead of draining it in scheduler round trips.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4 * 1024 * 1024
        )
        self._reader = protocol.FrameReader(self._max_frame_bytes)
        self._pending = deque()

    def _retrying(self, issue):
        """Run ``issue`` under the retry policy (reconnect per retry).

        ``issue`` must be self-contained — it draws a fresh request id
        each call, so a retried request is a brand-new request on a
        brand-new connection, never a replay into a half-dead stream.
        Only typed-retryable failures loop; anything else propagates
        on the spot.
        """
        attempts = self._retry.attempts if self._retry is not None else 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._retry.delay(attempt - 1))
                try:
                    self.close()
                    self._connect()
                except OSError as exc:
                    if attempt + 1 >= attempts:
                        raise ConnectionLostError(
                            protocol.ERR_RETRYABLE,
                            f"reconnect failed after {attempts} attempts: "
                            f"{exc}",
                        ) from exc
                    continue
            try:
                return issue()
            except Exception as exc:  # noqa: BLE001 - classified below
                if attempt + 1 >= attempts or not _retryable(exc):
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already dead
            pass

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire mechanics
    # ------------------------------------------------------------------

    def _call(self, reply, terminal: int, encode):
        """Send one request, collect its frames by id, merge the reply."""

        def issue():
            request_id = next(self._request_ids)
            self._send(encode(request_id))
            return reply(*self._collect(request_id, terminal))

        return self._retrying(issue)

    def _send(self, encoded) -> None:
        """Send every byte of one encoded request, the payload uncopied.

        ``sendmsg`` scatter-gathers the header and the caller's bitset
        straight from their own buffers — but on a socket with a
        timeout it may take only part of them.  The rest goes out
        through ``sendall`` on memoryview slices: no byte is dropped
        (the server would wait for the rest of the frame forever), and
        the payload is still never concatenated.
        """
        parts = _buffers(encoded)
        sent = self._sock.sendmsg(parts)
        for part in parts:
            if sent < len(part):
                self._sock.sendall(part[sent:])
            sent = max(0, sent - len(part))

    def _collect(self, request_id: int, terminal: int):
        """One request's ``(shards, payload)`` up to its terminal frame.

        An ERROR frame — on this request or connection-scope (request
        id 0) — raises the typed error it carries instead.
        """
        shards: List[dict] = []
        while True:
            frame = self._next_frame()
            if frame.request_id not in (0, request_id):
                raise ProtocolError(
                    protocol.ERR_BAD_FRAME,
                    f"response for request {frame.request_id}, "
                    f"expected {request_id}",
                )
            if frame.frame_type == protocol.FRAME_RESULT:
                shards.append(protocol.parse_result_frame(frame))
                continue
            payload = protocol.parse_json_frame(frame)
            if frame.frame_type == protocol.FRAME_ERROR:
                raise _server_error(payload)
            if frame.frame_type != terminal:
                raise ProtocolError(
                    protocol.ERR_BAD_TYPE,
                    f"unexpected frame type 0x{frame.frame_type:02x}",
                )
            shards.sort(key=lambda shard: shard["row_start"])
            return shards, payload

    def _next_frame(self) -> protocol.Frame:
        """Read from the socket until one complete frame arrives.

        ``feed`` may complete several frames from one ``recv``; the
        surplus queues in ``_pending`` for the following calls.
        """
        while not self._pending:
            data = self._sock.recv(1024 * 1024)
            if not data:
                raise ConnectionLostError(
                    protocol.ERR_RETRYABLE,
                    "connection closed mid-response",
                )
            self._pending.extend(self._reader.feed(data))
        return self._pending.popleft()


@dataclass
class _Inflight:
    """One pipelined request awaiting its terminal frame."""

    future: asyncio.Future
    shards: List[dict] = field(default_factory=list)


class AsyncServingClient(_RequestAPI):
    """Pipelined asyncio client: many requests in flight per connection.

    A background reader task demuxes the server's interleaved response
    frames by request id, so concurrent ``identify`` / ``membership``
    coroutines share one connection::

        client = await AsyncServingClient.open(host, port)
        replies = await asyncio.gather(
            *[client.identify(batch) for batch in batches]
        )
        await client.aclose()

    This is what makes the server's coalescing window reachable from a
    single process: requests issued together arrive together.  The
    request API is :class:`ServingClient`'s (same replies, same
    defaults — including ``retry`` / ``deadline_ms``); each method
    returns a coroutine.

    A retried request reconnects first; because the connection is
    shared, one reconnect serves every concurrent coroutine whose
    request died with it (each observes its own typed-retryable
    failure and re-issues on the fresh connection — a connection
    *generation* counter keeps N failed coroutines from reconnecting
    N times).
    """

    def __init__(
        self,
        *,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: int = 0,
    ) -> None:
        self._deadline_ms = protocol._check_deadline_ms(deadline_ms)
        self._retry = retry
        self._max_frame_bytes = int(max_frame_bytes)
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._frames = protocol.FrameReader(self._max_frame_bytes)
        self._request_ids = itertools.count(1)
        self._inflight: Dict[int, _Inflight] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._generation = 0
        self._conn_lock: Optional[asyncio.Lock] = None

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        *,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: int = 0,
    ) -> "AsyncServingClient":
        """Connect and start the demux reader."""
        client = cls(
            max_frame_bytes=max_frame_bytes,
            retry=retry,
            deadline_ms=deadline_ms,
        )
        client._host, client._port = host, int(port)
        client._conn_lock = asyncio.Lock()
        await client._establish()
        return client

    async def _establish(self) -> None:
        """Open the connection and start a fresh demux reader."""
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._frames = protocol.FrameReader(self._max_frame_bytes)
        self._reader_task = asyncio.create_task(self._read_loop())
        self._generation += 1

    async def _reconnect(self, seen_generation: int) -> None:
        """Tear down and re-open, once per connection generation.

        Concurrent coroutines whose requests died together all call
        this; whoever wins the lock reconnects, the rest observe the
        advanced generation and reuse the new connection.
        """
        async with self._conn_lock:
            if self._generation != seen_generation:
                return  # a sibling coroutine already reconnected
            if self._reader_task is not None:
                self._reader_task.cancel()
                try:
                    await self._reader_task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                self._reader_task = None
            if self._writer is not None:
                self._writer.close()
                try:
                    await self._writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
                self._writer = None
            await self._establish()

    async def _retrying(self, issue):
        """Async twin of :meth:`ServingClient._retrying`."""
        attempts = self._retry.attempts if self._retry is not None else 1
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(self._retry.delay(attempt - 1))
            generation = self._generation
            try:
                return await issue()
            except Exception as exc:  # noqa: BLE001 - classified below
                if attempt + 1 >= attempts or not _retryable(exc):
                    raise
                try:
                    await self._reconnect(generation)
                except OSError:
                    continue  # next attempt backs off and retries
        raise AssertionError("unreachable")  # pragma: no cover

    async def aclose(self) -> None:
        """Stop the reader, fail anything still pending, close the socket."""
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        self._fail_all(
            ProtocolError(protocol.ERR_BAD_FRAME, "client closed")
        )
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Wire mechanics
    # ------------------------------------------------------------------

    def _register(self, request_id: int) -> _Inflight:
        if self._writer is None:
            raise ServingError(
                protocol.ERR_INTERNAL,
                "client is not connected (use AsyncServingClient.open)",
            )
        if self._reader_task is not None and self._reader_task.done():
            # The demux died while idle (server idle-timeout, reset):
            # fail typed-retryable *before* writing into a dead stream,
            # so the retry path reconnects instead of hanging.
            raise ConnectionLostError(
                protocol.ERR_RETRYABLE, "connection lost while idle"
            )
        entry = _Inflight(future=asyncio.get_running_loop().create_future())
        self._inflight[request_id] = entry
        return entry

    async def _call(self, reply, terminal: int, encode):
        """Send one request, await its frames by id, merge the reply."""

        async def issue():
            request_id = next(self._request_ids)
            entry = self._register(request_id)
            # writelines hands the header and the caller's bitset to
            # the transport as separate buffers — no concatenation copy
            # — and every part enqueues in one synchronous call, so
            # concurrent requests cannot interleave their bytes.
            self._writer.writelines(_buffers(encode(request_id)))
            await self._writer.drain()
            return reply(*await entry.future)

        return await self._retrying(issue)

    async def _read_loop(self) -> None:
        """Demux every inbound frame to its request's inflight entry."""
        try:
            while True:
                data = await self._reader.read(1024 * 1024)
                if not data:
                    raise ConnectionLostError(
                        protocol.ERR_RETRYABLE,
                        "connection closed with requests in flight",
                    )
                for frame in self._frames.feed(data):
                    self._dispatch(frame)
                poison = self._frames.pending_error
                if poison is not None:
                    raise poison
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - delivered to waiters
            self._fail_all(exc)

    def _dispatch(self, frame: protocol.Frame) -> None:
        if frame.frame_type == protocol.FRAME_ERROR:
            error = _server_error(protocol.parse_json_frame(frame))
            if frame.request_id == 0:
                # Connection-scope error: the stream is done for.
                self._fail_all(error)
                return
            entry = self._inflight.pop(frame.request_id, None)
            if entry is not None and not entry.future.done():
                entry.future.set_exception(error)
            return
        entry = self._inflight.get(frame.request_id)
        if entry is None:
            raise ProtocolError(
                protocol.ERR_BAD_FRAME,
                f"response for unknown request {frame.request_id}",
            )
        if frame.frame_type == protocol.FRAME_RESULT:
            entry.shards.append(protocol.parse_result_frame(frame))
            return
        if frame.frame_type in (
            protocol.FRAME_DONE,
            protocol.FRAME_STATS_REPLY,
            protocol.FRAME_PONG,
        ):
            self._inflight.pop(frame.request_id, None)
            if not entry.future.done():
                entry.shards.sort(key=lambda shard: shard["row_start"])
                entry.future.set_result(
                    (entry.shards, protocol.parse_json_frame(frame))
                )
            return
        raise ProtocolError(
            protocol.ERR_BAD_TYPE,
            f"unexpected frame type 0x{frame.frame_type:02x}",
        )

    def _fail_all(self, exc: Exception) -> None:
        inflight, self._inflight = self._inflight, {}
        for entry in inflight.values():
            if not entry.future.done():
                entry.future.set_exception(exc)


def _merged(shards: List[dict], key: str) -> np.ndarray:
    """Concatenate one per-shard array field in row order."""
    if not shards:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [np.asarray(shard[key], dtype=np.int64) for shard in shards]
    )
