"""The packed-bitset wire protocol: length-prefixed binary frames.

The serving front-end (:mod:`repro.serving.server`) and the reference
client (:mod:`repro.serving.client`) speak a small binary protocol
whose request payload *is* the compute representation: the
``np.packbits`` bitset of a :class:`~repro.backend.batch.SpikeTrainBatch`
(N wires × ``ceil(n_samples / 8)`` bytes, MSB-first within each byte —
slot ``k`` of a row is bit ``7 - (k % 8)`` of byte ``k // 8``).  A
server therefore never parses, sorts or unpacks spike indices at the
boundary — it wraps the payload with
:meth:`~repro.backend.batch.SpikeTrainBatch.from_packed` and the batch
stays packed-primary all the way through shared-memory dispatch and the
packed kernels.

Framing (all integers little-endian)::

    u32 length | 16-byte frame header | payload (length - 16 bytes)

The frame header is ``magic "REPB" | version u8 | type u8 | flags u16 |
request_id u32 | deadline_ms u32``.  Bitset requests carry a fixed
28-byte request header (wire counts, grid geometry, scan options)
followed by the bitset.  The byte-level layout, the version policy and
the error codes are documented in ``docs/protocol.md`` — this module is
their single executable source.

Request kinds: the bitset requests above (``FRAME_IDENTIFY`` /
``FRAME_MEMBERSHIP``); the *corpus query* (``FRAME_CORPUS_QUERY``), a
24-byte query header naming a row range plus the UTF-8 name of a
corpus the server hosts — no bitset payload at all, the data already
lives on the server's disk (:mod:`repro.pipeline.corpus`); and the
*logicnet* query (``FRAME_LOGICNET``), a fixed 20-byte header asking
the server to evaluate a contiguous range of a deterministic
random-logic-network family
(:class:`~repro.logic.netbatch.LogicNetBatch`, keyed by seed and
shape) against its hosted basis lines.  ``FRAME_STATS`` and the
``FRAME_PING`` health probe round out the request side.

Every shard result travels as one binary ``FRAME_RESULT`` — a 24-byte
result header followed by little-endian arrays (identify), the
``np.packbits`` membership bits plus first-slot array (membership), or
per-gate output spike counts plus per-network checksums (logicnet) —
so the hot serving path never JSON-encodes per-shard arrays.  DONE,
ERROR, STATS and PONG payloads are JSON (one small frame per request;
clients must tolerate unknown keys there).  The frame header's last
``u32`` is ``deadline_ms``: a per-request deadline in milliseconds
(0: none), meaningful on request frames only; a server drops expired
work and answers :data:`ERR_DEADLINE`.  :data:`RETRYABLE_CODES` is the
executable half of the client retry contract
(``docs/fault_tolerance.md``).

Version policy: one version, :data:`PROTOCOL_VERSION`.  Every client
lives in this repository, so an incompatible header or payload change
bumps the version and every encoder moves with it; a decoder rejects a
frame stamped with any other version as :data:`ERR_BAD_VERSION` (the
magic never changes, so a version mismatch is always reportable).
``flags`` must be zero.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from ..backend import packed as packed_kernels
from ..errors import ProtocolError, ServingError
from ..units import SimulationGrid

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "FRAME_IDENTIFY",
    "FRAME_MEMBERSHIP",
    "FRAME_CORPUS_QUERY",
    "FRAME_LOGICNET",
    "FRAME_STATS",
    "FRAME_PING",
    "FRAME_DONE",
    "FRAME_RESULT",
    "FRAME_STATS_REPLY",
    "FRAME_PONG",
    "FRAME_ERROR",
    "LIMIT_FULL",
    "DEFAULT_MAX_FRAME_BYTES",
    "ERR_BAD_MAGIC",
    "ERR_BAD_VERSION",
    "ERR_BAD_FRAME",
    "ERR_FRAME_TOO_LARGE",
    "ERR_BAD_TYPE",
    "ERR_BAD_GRID",
    "ERR_OVERLOADED",
    "ERR_INTERNAL",
    "ERR_NO_CORPUS",
    "ERR_DEADLINE",
    "ERR_RETRYABLE",
    "ERROR_NAMES",
    "RETRYABLE_CODES",
    "MAX_DEADLINE_MS",
    "Frame",
    "Request",
    "CorpusQuery",
    "LogicNetQuery",
    "FrameReader",
    "encode_frame",
    "encode_request",
    "encode_request_parts",
    "parse_request",
    "encode_corpus_query",
    "parse_corpus_query",
    "encode_logicnet_query",
    "parse_logicnet_query",
    "encode_ping",
    "encode_json_frame",
    "parse_json_frame",
    "encode_result_frame",
    "parse_result_frame",
    "encode_stats_request",
    "stats_scope",
    "encode_error",
    "request_nbytes",
]

#: First four bytes of every frame body ("REpro Packed Bitset").
MAGIC = b"REPB"

#: The protocol version: the only one this build encodes or decodes,
#: bumped on incompatible layout changes.
PROTOCOL_VERSION = 5

# Frame types.  Requests sit below 0x80, responses at or above it, so a
# misdirected frame is caught by the type check rather than a payload
# parse.
FRAME_IDENTIFY = 0x01
FRAME_MEMBERSHIP = 0x02
FRAME_CORPUS_QUERY = 0x03
FRAME_LOGICNET = 0x04
FRAME_STATS = 0x10
FRAME_PING = 0x11
FRAME_DONE = 0x82
FRAME_RESULT = 0x83
FRAME_STATS_REPLY = 0x84
FRAME_PONG = 0x85
FRAME_ERROR = 0xFF

_REQUEST_TYPES = (FRAME_IDENTIFY, FRAME_MEMBERSHIP)
_JSON_RESPONSE_TYPES = (
    FRAME_DONE,
    FRAME_STATS_REPLY,
    FRAME_PONG,
    FRAME_ERROR,
)
_RESPONSE_TYPES = _JSON_RESPONSE_TYPES + (FRAME_RESULT,)

_MODE_BY_TYPE = {FRAME_IDENTIFY: "identify", FRAME_MEMBERSHIP: "membership"}
_TYPE_BY_MODE = {mode: ftype for ftype, mode in _MODE_BY_TYPE.items()}

#: ``limit`` sentinel meaning "the whole grid" (membership requests).
LIMIT_FULL = 0xFFFFFFFF

#: Default per-frame size cap (header + payload).  At the paper grid
#: (65536 slots → 8 KiB/wire) this admits ~8k wires per request.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

# Error codes (the ``code`` field of an error frame's JSON payload).
ERR_BAD_MAGIC = 1
ERR_BAD_VERSION = 2
ERR_BAD_FRAME = 3
ERR_FRAME_TOO_LARGE = 4
ERR_BAD_TYPE = 5
ERR_BAD_GRID = 6
ERR_OVERLOADED = 7
ERR_INTERNAL = 8
ERR_NO_CORPUS = 9
ERR_DEADLINE = 10
ERR_RETRYABLE = 11

#: code → symbolic name, echoed in error payloads for human readers.
ERROR_NAMES: Dict[int, str] = {
    ERR_BAD_MAGIC: "BAD_MAGIC",
    ERR_BAD_VERSION: "BAD_VERSION",
    ERR_BAD_FRAME: "BAD_FRAME",
    ERR_FRAME_TOO_LARGE: "FRAME_TOO_LARGE",
    ERR_BAD_TYPE: "BAD_TYPE",
    ERR_BAD_GRID: "BAD_GRID",
    ERR_OVERLOADED: "OVERLOADED",
    ERR_INTERNAL: "INTERNAL",
    ERR_NO_CORPUS: "NO_CORPUS",
    ERR_DEADLINE: "DEADLINE",
    ERR_RETRYABLE: "RETRYABLE",
}

#: Codes whose failures are transient: re-issuing the same idempotent
#: request (after reconnecting if need be) could succeed.  Everything
#: else is structural — the identical request would fail identically
#: forever — and a client must surface it instead of retrying.
#: ``DEADLINE`` is here because expiry measures transient load, not
#: the request; ``OVERLOADED`` is **not** — it is reserved for
#: requests that could never fit the server's whole budget.
RETRYABLE_CODES = frozenset({ERR_DEADLINE, ERR_RETRYABLE})

# The codes live here; ServingError.retryable consults them (the
# reverse assignment would invert the import direction).
ServingError.RETRYABLE_CODES = RETRYABLE_CODES

#: Largest encodable request deadline (the reserved field is u32).
MAX_DEADLINE_MS = 2**32 - 1

#: ``u32 length`` prefix framing each body.
_LENGTH = struct.Struct("<I")

#: Frame header: magic, version, type, flags, request_id, deadline_ms.
_HEADER = struct.Struct("<4sBBHII")

#: Request header: n_wires, n_samples, dt, start_slot, limit,
#: n_shards, reserved.
_REQUEST = struct.Struct("<IIdIIHH")

#: Binary result header: mode, residency bits, reserved,
#: row_start, row_stop, n_cols, wall_seconds.
_RESULT = struct.Struct("<BBHIIId")

#: Corpus-query header: mode, reserved, name_len,
#: row_start, row_stop, start_slot, limit, n_shards, reserved —
#: followed by ``name_len`` bytes of UTF-8 corpus name.  No bitset.
_CORPUS_QUERY = struct.Struct("<BBHIIIIHH")

#: Logicnet-query header: seed, net_start, net_stop,
#: n_gates, depth, n_shards.  The whole payload — no bitset, no name;
#: the family rebuilds from the seed and the server's basis lines.
_LOGICNET_QUERY = struct.Struct("<IIIIHH")

HEADER_BYTES = _HEADER.size  # 16
REQUEST_HEADER_BYTES = _REQUEST.size  # 28
RESULT_HEADER_BYTES = _RESULT.size  # 24
CORPUS_QUERY_HEADER_BYTES = _CORPUS_QUERY.size  # 24
LOGICNET_QUERY_BYTES = _LOGICNET_QUERY.size  # 20

#: Residency bits of the binary result header.
_RES_PACKED = 0x01
_RES_CSR = 0x02
_RES_RASTER = 0x04

_MODE_CODES = {"identify": 1, "membership": 2, "logicnet": 3}
_MODE_BY_CODE = {code: mode for mode, code in _MODE_CODES.items()}


@dataclass(frozen=True)
class Frame:
    """One decoded frame: header fields plus the raw payload bytes.

    ``payload`` is a read-only :class:`memoryview` over the frame body
    when decoded by :class:`FrameReader` (zero-copy — consumers like
    ``np.frombuffer`` and ``struct.unpack_from`` read it in place),
    but plain ``bytes`` are accepted anywhere a ``Frame`` is built by
    hand.
    """

    version: int
    frame_type: int
    request_id: int
    payload: bytes
    flags: int = 0
    #: Request deadline in milliseconds (0: none); always 0 on
    #: response frames.
    deadline_ms: int = 0


@dataclass(frozen=True)
class Request:
    """A parsed request frame.

    ``packed`` is a read-only ``(n_wires, ceil(n_samples / 8))``
    ``uint8`` view of the frame's payload bytes — parsing allocates no
    array and copies nothing.
    """

    mode: str
    request_id: int
    packed: np.ndarray
    n_samples: int
    dt: float
    start_slot: int
    limit: Optional[int]
    n_shards: int
    #: Request deadline in milliseconds (0: none).  The budget starts
    #: when the server *parses* the frame — clocks are never compared
    #: across hosts.
    deadline_ms: int = 0

    @property
    def n_wires(self) -> int:
        """Number of wire rows in the payload."""
        return int(self.packed.shape[0])

    def grid(self) -> SimulationGrid:
        """The simulation grid the payload claims to live on."""
        return SimulationGrid(n_samples=self.n_samples, dt=self.dt)


@dataclass(frozen=True)
class CorpusQuery:
    """A parsed corpus-query frame.

    References rows the *server* already holds — the request ships a
    corpus name and a row range instead of a bitset, so its size is
    ~tens of bytes no matter how many wires it asks about.
    """

    mode: str
    request_id: int
    corpus: str
    row_start: int
    row_stop: int
    start_slot: int
    limit: Optional[int]
    n_shards: int
    #: Request deadline in milliseconds (0: none).
    deadline_ms: int = 0

    @property
    def n_wires(self) -> int:
        """Number of corpus rows the query covers."""
        return int(self.row_stop - self.row_start)


@dataclass(frozen=True)
class LogicNetQuery:
    """A parsed logicnet-query frame.

    Names networks ``[net_start, net_stop)`` of the deterministic
    random-network family keyed by ``(seed, n_gates, depth)`` — the
    server evaluates them against its hosted basis lines, rebuilding
    each shard's tables from `SeedSequence` spawn keys.  No bitset, no
    corpus: the whole request is the 20-byte query header.
    """

    request_id: int
    seed: int
    net_start: int
    net_stop: int
    n_gates: int
    depth: int
    n_shards: int
    #: Request deadline in milliseconds (0: none).
    deadline_ms: int = 0

    @property
    def n_networks(self) -> int:
        """Number of networks the query covers."""
        return int(self.net_stop - self.net_start)

    @property
    def mode(self) -> str:
        """The result mode this query's response frames carry."""
        return "logicnet"


def request_nbytes(n_wires: int, n_samples: int) -> int:
    """Total frame-body bytes of a request with the given dimensions."""
    return (
        HEADER_BYTES
        + REQUEST_HEADER_BYTES
        + n_wires * packed_kernels.n_packed_bytes(n_samples)
    )


def _check_deadline_ms(deadline_ms: int) -> int:
    """Validate a deadline for encoding."""
    deadline_ms = int(deadline_ms)
    if not (0 <= deadline_ms <= MAX_DEADLINE_MS):
        raise ProtocolError(
            ERR_BAD_FRAME, f"deadline_ms {deadline_ms} outside uint32"
        )
    return deadline_ms


def encode_frame(
    frame_type: int,
    request_id: int,
    payload: bytes,
    *,
    deadline_ms: int = 0,
) -> bytes:
    """Assemble one length-prefixed frame from its parts."""
    if not (0 <= request_id < 2**32):
        raise ProtocolError(
            ERR_BAD_FRAME, f"request_id {request_id} outside uint32"
        )
    deadline_ms = _check_deadline_ms(deadline_ms)
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, frame_type, 0, request_id, deadline_ms
    )
    return _LENGTH.pack(len(header) + len(payload)) + header + payload


def encode_request_parts(
    packed: np.ndarray,
    n_samples: int,
    dt: float,
    *,
    mode: str = "identify",
    start_slot: int = 0,
    limit: Optional[int] = None,
    n_shards: int = 0,
    request_id: int = 0,
    deadline_ms: int = 0,
) -> List[memoryview]:
    """Encode one request frame as ``[prefix, bitset]`` buffer parts.

    The zero-copy flavour of :func:`encode_request`: the first part is
    the length prefix + frame header + request header, the second a
    read-only view of the caller's bitset — nothing is concatenated, so
    a client can hand both straight to ``socket.sendmsg`` /
    ``StreamWriter.writelines`` without ever copying the payload.
    ``packed`` must already be the ``(N, ceil(n_samples / 8))``
    ``uint8`` transport form (e.g.
    :meth:`~repro.backend.batch.SpikeTrainBatch.packbits`).  ``n_shards``
    0 asks the server to use its own default; ``limit`` bounds a
    membership scan (None: the whole grid); ``deadline_ms`` asks the
    server to abandon the request once that many milliseconds have
    passed since it parsed the frame (0: no deadline).
    """
    if mode not in _TYPE_BY_MODE:
        raise ProtocolError(ERR_BAD_TYPE, f"unknown request mode {mode!r}")
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    n_bytes = packed_kernels.n_packed_bytes(n_samples)
    if packed.ndim != 2 or packed.shape[1] != n_bytes:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"packed shape {packed.shape} does not match "
            f"(N, {n_bytes}) for {n_samples} samples",
        )
    if packed.shape[0] < 1:
        raise ProtocolError(ERR_BAD_FRAME, "a request needs at least one wire")
    if not (0 <= start_slot <= n_samples):
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"start_slot {start_slot} outside grid of {n_samples} samples",
        )
    wire_limit = LIMIT_FULL if limit is None else int(limit)
    if not (0 <= wire_limit <= LIMIT_FULL):
        raise ProtocolError(ERR_BAD_FRAME, f"limit {limit} outside uint32")
    if not (0 <= n_shards < 2**16):
        raise ProtocolError(ERR_BAD_FRAME, f"n_shards {n_shards} outside uint16")
    if not (0 <= request_id < 2**32):
        raise ProtocolError(
            ERR_BAD_FRAME, f"request_id {request_id} outside uint32"
        )
    deadline_ms = _check_deadline_ms(deadline_ms)
    body = _REQUEST.pack(
        packed.shape[0], n_samples, float(dt), start_slot, wire_limit,
        n_shards, 0,
    )
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, _TYPE_BY_MODE[mode], 0, request_id,
        deadline_ms,
    )
    length = _LENGTH.pack(len(header) + len(body) + packed.nbytes)
    view = memoryview(packed).cast("B")
    view = view.toreadonly() if hasattr(view, "toreadonly") else view
    return [memoryview(length + header + body), view]


def encode_request(
    packed: np.ndarray,
    n_samples: int,
    dt: float,
    *,
    mode: str = "identify",
    start_slot: int = 0,
    limit: Optional[int] = None,
    n_shards: int = 0,
    request_id: int = 0,
    deadline_ms: int = 0,
) -> bytes:
    """Encode one request frame around an ``np.packbits`` bitset.

    One contiguous ``bytes`` built from the same parts as
    :func:`encode_request_parts` (which transports avoiding the payload
    copy should prefer).
    """
    return b"".join(
        encode_request_parts(
            packed,
            n_samples,
            dt,
            mode=mode,
            start_slot=start_slot,
            limit=limit,
            n_shards=n_shards,
            request_id=request_id,
            deadline_ms=deadline_ms,
        )
    )


def parse_request(frame: Frame) -> Request:
    """Parse (and validate) one request frame.

    Rejects truncated payloads, trailing bytes, zero-wire requests and
    impossible grids — the exact payload length is implied by the
    request header, so any mismatch is :data:`ERR_BAD_FRAME`.
    """
    if frame.frame_type not in _REQUEST_TYPES:
        raise ProtocolError(
            ERR_BAD_TYPE,
            f"frame type 0x{frame.frame_type:02x} is not a request",
        )
    if len(frame.payload) < REQUEST_HEADER_BYTES:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"request payload truncated: {len(frame.payload)} bytes "
            f"< {REQUEST_HEADER_BYTES}-byte request header",
        )
    n_wires, n_samples, dt, start_slot, limit, n_shards, reserved = (
        _REQUEST.unpack_from(frame.payload)
    )
    if reserved != 0:
        raise ProtocolError(
            ERR_BAD_FRAME, "reserved request-header field must be zero"
        )
    if n_wires < 1:
        raise ProtocolError(ERR_BAD_FRAME, "a request needs at least one wire")
    if n_samples < 1 or not (dt > 0.0) or not np.isfinite(dt):
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"impossible grid: n_samples={n_samples}, dt={dt}",
        )
    if start_slot > n_samples:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"start_slot {start_slot} outside grid of {n_samples} samples",
        )
    n_bytes = packed_kernels.n_packed_bytes(n_samples)
    expected = REQUEST_HEADER_BYTES + n_wires * n_bytes
    if len(frame.payload) != expected:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"payload is {len(frame.payload)} bytes, expected {expected} "
            f"for {n_wires} wires x {n_bytes} packed bytes",
        )
    packed = np.frombuffer(
        frame.payload, dtype=np.uint8, offset=REQUEST_HEADER_BYTES
    ).reshape(n_wires, n_bytes)
    return Request(
        mode=_MODE_BY_TYPE[frame.frame_type],
        request_id=frame.request_id,
        packed=packed,
        n_samples=int(n_samples),
        dt=float(dt),
        start_slot=int(start_slot),
        limit=None if limit == LIMIT_FULL else int(limit),
        n_shards=int(n_shards),
        deadline_ms=frame.deadline_ms,
    )


def encode_corpus_query(
    corpus: str,
    row_start: int,
    row_stop: int,
    *,
    mode: str = "identify",
    start_slot: int = 0,
    limit: Optional[int] = None,
    n_shards: int = 0,
    request_id: int = 0,
    deadline_ms: int = 0,
) -> bytes:
    """Encode one corpus-query frame.

    Asks the server to run ``mode`` over rows ``[row_start, row_stop)``
    of the corpus it hosts under ``corpus`` — the payload carries no
    bitset, only the 24-byte query header plus the corpus name, so the
    request costs the same few dozen bytes whether it covers ten rows
    or a million.  ``n_shards`` 0 lets the server chunk by its own
    configured window; ``limit`` bounds a membership scan.
    """
    if mode not in _MODE_CODES:
        raise ProtocolError(ERR_BAD_TYPE, f"unknown request mode {mode!r}")
    name = str(corpus).encode("utf-8")
    if not (0 < len(name) < 2**16):
        raise ProtocolError(
            ERR_BAD_FRAME, f"corpus name must be 1-65535 bytes, got {corpus!r}"
        )
    row_start, row_stop = int(row_start), int(row_stop)
    if not (0 <= row_start < row_stop < 2**32):
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"corpus row range [{row_start}, {row_stop}) is empty or "
            f"outside uint32",
        )
    if not (0 <= start_slot < 2**32):
        raise ProtocolError(
            ERR_BAD_FRAME, f"start_slot {start_slot} outside uint32"
        )
    wire_limit = LIMIT_FULL if limit is None else int(limit)
    if not (0 <= wire_limit <= LIMIT_FULL):
        raise ProtocolError(ERR_BAD_FRAME, f"limit {limit} outside uint32")
    if not (0 <= n_shards < 2**16):
        raise ProtocolError(ERR_BAD_FRAME, f"n_shards {n_shards} outside uint16")
    body = _CORPUS_QUERY.pack(
        _MODE_CODES[mode], 0, len(name), row_start, row_stop,
        start_slot, wire_limit, n_shards, 0,
    )
    return encode_frame(
        FRAME_CORPUS_QUERY,
        request_id,
        body + name,
        deadline_ms=deadline_ms,
    )


def parse_corpus_query(frame: Frame) -> CorpusQuery:
    """Parse (and validate) one corpus-query frame.

    The exact payload length is implied by the query header's
    ``name_len``, so truncation and trailing bytes are both
    :data:`ERR_BAD_FRAME`; whether the named corpus exists (and whether
    the range fits it) is the server's call, not the parser's.
    """
    if frame.frame_type != FRAME_CORPUS_QUERY:
        raise ProtocolError(
            ERR_BAD_TYPE,
            f"frame type 0x{frame.frame_type:02x} is not a corpus query",
        )
    if len(frame.payload) < CORPUS_QUERY_HEADER_BYTES:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"corpus-query payload truncated: {len(frame.payload)} bytes "
            f"< {CORPUS_QUERY_HEADER_BYTES}-byte query header",
        )
    (
        mode_code, reserved_a, name_len, row_start, row_stop,
        start_slot, limit, n_shards, reserved_b,
    ) = _CORPUS_QUERY.unpack_from(frame.payload)
    if reserved_a != 0 or reserved_b != 0:
        raise ProtocolError(
            ERR_BAD_FRAME, "reserved corpus-query fields must be zero"
        )
    mode = _MODE_BY_CODE.get(mode_code)
    if mode is None:
        raise ProtocolError(
            ERR_BAD_FRAME, f"unknown query mode code {mode_code}"
        )
    expected = CORPUS_QUERY_HEADER_BYTES + name_len
    if len(frame.payload) != expected:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"corpus-query payload is {len(frame.payload)} bytes, expected "
            f"{expected} for a {name_len}-byte name",
        )
    if name_len < 1:
        raise ProtocolError(ERR_BAD_FRAME, "a corpus query needs a name")
    if row_stop <= row_start:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"a corpus query needs at least one row: "
            f"[{row_start}, {row_stop})",
        )
    try:
        corpus = bytes(
            frame.payload[CORPUS_QUERY_HEADER_BYTES:]
        ).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(
            ERR_BAD_FRAME, f"undecodable corpus name: {exc}"
        ) from None
    return CorpusQuery(
        mode=mode,
        request_id=frame.request_id,
        corpus=corpus,
        row_start=int(row_start),
        row_stop=int(row_stop),
        start_slot=int(start_slot),
        limit=None if limit == LIMIT_FULL else int(limit),
        n_shards=int(n_shards),
        deadline_ms=frame.deadline_ms,
    )


def encode_logicnet_query(
    seed: int,
    net_start: int,
    net_stop: int,
    *,
    n_gates: int,
    depth: int,
    n_shards: int = 0,
    request_id: int = 0,
    deadline_ms: int = 0,
) -> bytes:
    """Encode one logicnet-query frame.

    Asks the server to evaluate networks ``[net_start, net_stop)`` of
    the family ``(seed, n_gates, depth)`` against its hosted basis —
    the request is 20 bytes of query header, nothing else.
    ``n_shards`` 0 lets the server pick its configured split.
    """
    net_start, net_stop = int(net_start), int(net_stop)
    if not (0 <= net_start < net_stop < 2**32):
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"logicnet network range [{net_start}, {net_stop}) is empty "
            f"or outside uint32",
        )
    if not (0 <= int(seed) < 2**32):
        raise ProtocolError(ERR_BAD_FRAME, f"seed {seed} outside uint32")
    if not (1 <= int(n_gates) < 2**32):
        raise ProtocolError(
            ERR_BAD_FRAME, f"n_gates {n_gates} must be in [1, 2**32)"
        )
    if not (1 <= int(depth) < 2**16):
        raise ProtocolError(
            ERR_BAD_FRAME, f"depth {depth} must be in [1, 65536)"
        )
    if not (0 <= n_shards < 2**16):
        raise ProtocolError(ERR_BAD_FRAME, f"n_shards {n_shards} outside uint16")
    body = _LOGICNET_QUERY.pack(
        int(seed), net_start, net_stop, int(n_gates), int(depth), int(n_shards)
    )
    return encode_frame(
        FRAME_LOGICNET,
        request_id,
        body,
        deadline_ms=deadline_ms,
    )


def parse_logicnet_query(frame: Frame) -> LogicNetQuery:
    """Parse (and validate) one logicnet-query frame.

    The payload is exactly the 20-byte query header; truncation and
    trailing bytes are both :data:`ERR_BAD_FRAME`.  Whether the range
    and shape fit the server's limits is the server's call.
    """
    if frame.frame_type != FRAME_LOGICNET:
        raise ProtocolError(
            ERR_BAD_TYPE,
            f"frame type 0x{frame.frame_type:02x} is not a logicnet query",
        )
    if len(frame.payload) != LOGICNET_QUERY_BYTES:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"logicnet-query payload is {len(frame.payload)} bytes, "
            f"expected exactly {LOGICNET_QUERY_BYTES}",
        )
    seed, net_start, net_stop, n_gates, depth, n_shards = (
        _LOGICNET_QUERY.unpack_from(frame.payload)
    )
    if net_stop <= net_start:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"a logicnet query needs at least one network: "
            f"[{net_start}, {net_stop})",
        )
    if n_gates < 1 or depth < 1:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"logicnet shape needs n_gates >= 1 and depth >= 1, "
            f"got {n_gates} x {depth}",
        )
    return LogicNetQuery(
        request_id=frame.request_id,
        seed=int(seed),
        net_start=int(net_start),
        net_stop=int(net_stop),
        n_gates=int(n_gates),
        depth=int(depth),
        n_shards=int(n_shards),
        deadline_ms=frame.deadline_ms,
    )


def encode_ping(request_id: int = 0) -> bytes:
    """Encode one PING health probe (answered with a JSON PONG).

    An empty payload by design: the cheapest possible liveness
    round-trip for load-balancer probes — no compute, no pool, no
    STATS aggregation.
    """
    return encode_frame(FRAME_PING, request_id, b"")


def encode_json_frame(
    frame_type: int,
    request_id: int,
    obj,
) -> bytes:
    """Encode one response frame whose payload is UTF-8 JSON."""
    if frame_type not in _JSON_RESPONSE_TYPES:
        raise ProtocolError(
            ERR_BAD_TYPE,
            f"frame type 0x{frame_type:02x} is not a JSON response",
        )
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return encode_frame(frame_type, request_id, payload)


def parse_json_frame(frame: Frame) -> dict:
    """Decode a response frame's JSON payload."""
    if frame.frame_type not in _JSON_RESPONSE_TYPES:
        raise ProtocolError(
            ERR_BAD_TYPE,
            f"frame type 0x{frame.frame_type:02x} is not a JSON response",
        )
    try:
        obj = json.loads(bytes(frame.payload).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            ERR_BAD_FRAME, f"undecodable JSON payload: {exc}"
        ) from None
    if not isinstance(obj, dict):
        raise ProtocolError(ERR_BAD_FRAME, "response payload must be an object")
    return obj


def _residency_bits(residency: dict) -> int:
    bits = 0
    if residency.get("packed"):
        bits |= _RES_PACKED
    if residency.get("csr"):
        bits |= _RES_CSR
    if residency.get("raster"):
        bits |= _RES_RASTER
    return bits


def encode_result_frame(
    request_id: int,
    payload: dict,
    *,
    mode: str,
) -> bytes:
    """Encode one shard result as a binary ``FRAME_RESULT``.

    ``payload`` is a :func:`~repro.serving.dispatch.compute_shard`
    payload: ``row_start``/``row_stop``/``wall_seconds``/``residency``
    plus the mode's arrays.  Identify results travel as little-endian
    ``elements`` (i32), ``decision_slots`` (i64) and
    ``spikes_inspected`` (i64), one entry per row; membership results
    as the ``np.packbits`` bits of the ``(n_rows, M)`` membership
    matrix followed by the ``first_slots`` i64 matrix; logicnet
    results as the ``(n_rows, G)`` per-gate ``popcounts``
    i64 matrix followed by the per-network ``checksums`` u64 vector,
    with the row range counting networks and ``n_cols`` carrying G.
    No JSON, no Python lists — the arrays' own buffers are the
    payload.
    """
    if mode not in _MODE_CODES:
        raise ProtocolError(ERR_BAD_TYPE, f"unknown result mode {mode!r}")
    row_start = int(payload["row_start"])
    row_stop = int(payload["row_stop"])
    n_rows = row_stop - row_start
    if mode == "identify":
        elements = np.ascontiguousarray(payload["elements"], dtype="<i4")
        slots = np.ascontiguousarray(payload["decision_slots"], dtype="<i8")
        inspected = np.ascontiguousarray(
            payload["spikes_inspected"], dtype="<i8"
        )
        if not (elements.size == slots.size == inspected.size == n_rows):
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"identify arrays sized {elements.size} do not match "
                f"rows [{row_start}, {row_stop})",
            )
        n_cols = 0
        blob = elements.tobytes() + slots.tobytes() + inspected.tobytes()
    elif mode == "logicnet":
        popcounts = np.ascontiguousarray(payload["popcounts"], dtype="<i8")
        checksums = np.ascontiguousarray(payload["checksums"], dtype="<u8")
        if (
            popcounts.ndim != 2
            or popcounts.shape[0] != n_rows
            or checksums.shape != (n_rows,)
        ):
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"logicnet arrays {popcounts.shape}/{checksums.shape} do "
                f"not match networks [{row_start}, {row_stop})",
            )
        n_cols = popcounts.shape[1]
        blob = popcounts.tobytes() + checksums.tobytes()
    else:
        membership = np.ascontiguousarray(
            payload["membership"], dtype=np.bool_
        )
        first_slots = np.ascontiguousarray(
            payload["first_slots"], dtype="<i8"
        )
        if (
            membership.ndim != 2
            or membership.shape[0] != n_rows
            or first_slots.shape != membership.shape
        ):
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"membership matrices {membership.shape} do not match "
                f"rows [{row_start}, {row_stop})",
            )
        n_cols = membership.shape[1]
        blob = (
            np.packbits(membership, axis=1).tobytes()
            + first_slots.tobytes()
        )
    header = _RESULT.pack(
        _MODE_CODES[mode],
        _residency_bits(payload.get("residency", {})),
        0,
        row_start,
        row_stop,
        n_cols,
        float(payload.get("wall_seconds", 0.0)),
    )
    return encode_frame(FRAME_RESULT, request_id, header + blob)


def parse_result_frame(frame: Frame) -> dict:
    """Decode one binary result frame into a shard-payload dict.

    The inverse of :func:`encode_result_frame`: the returned dict
    carries the keys of the server's shard payload — array fields as
    NumPy arrays, ``membership`` as booleans.
    """
    if frame.frame_type != FRAME_RESULT:
        raise ProtocolError(
            ERR_BAD_TYPE,
            f"frame type 0x{frame.frame_type:02x} is not a result frame",
        )
    if len(frame.payload) < RESULT_HEADER_BYTES:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"result payload truncated: {len(frame.payload)} bytes "
            f"< {RESULT_HEADER_BYTES}-byte result header",
        )
    mode_code, residency_bits, reserved, row_start, row_stop, n_cols, wall = (
        _RESULT.unpack_from(frame.payload)
    )
    if reserved != 0:
        raise ProtocolError(
            ERR_BAD_FRAME, "reserved result-header field must be zero"
        )
    mode = _MODE_BY_CODE.get(mode_code)
    if mode is None:
        raise ProtocolError(
            ERR_BAD_FRAME, f"unknown result mode code {mode_code}"
        )
    if row_stop < row_start:
        raise ProtocolError(
            ERR_BAD_FRAME, f"impossible row range [{row_start}, {row_stop})"
        )
    n_rows = row_stop - row_start
    body = memoryview(frame.payload)[RESULT_HEADER_BYTES:]
    payload = {
        "kind": "shard",
        "row_start": int(row_start),
        "row_stop": int(row_stop),
        "wall_seconds": float(wall),
        "residency": {
            "packed": bool(residency_bits & _RES_PACKED),
            "csr": bool(residency_bits & _RES_CSR),
            "raster": bool(residency_bits & _RES_RASTER),
        },
    }
    if mode == "identify":
        if n_cols != 0:
            raise ProtocolError(
                ERR_BAD_FRAME, "identify results carry no column count"
            )
        expected = n_rows * (4 + 8 + 8)
        if len(body) != expected:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"identify result payload is {len(body)} bytes, expected "
                f"{expected} for {n_rows} rows",
            )
        payload["elements"] = np.frombuffer(
            body, dtype="<i4", count=n_rows
        ).astype(np.int64)
        payload["decision_slots"] = np.frombuffer(
            body, dtype="<i8", count=n_rows, offset=4 * n_rows
        )
        payload["spikes_inspected"] = np.frombuffer(
            body, dtype="<i8", count=n_rows, offset=12 * n_rows
        )
    elif mode == "logicnet":
        expected = n_rows * n_cols * 8 + n_rows * 8
        if len(body) != expected:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"logicnet result payload is {len(body)} bytes, expected "
                f"{expected} for {n_rows} networks x {n_cols} gates",
            )
        payload["popcounts"] = np.frombuffer(
            body, dtype="<i8", count=n_rows * n_cols
        ).reshape(n_rows, n_cols)
        payload["checksums"] = np.frombuffer(
            body, dtype="<u8", count=n_rows, offset=n_rows * n_cols * 8
        )
    else:
        mask_bytes = n_rows * ((n_cols + 7) // 8)
        expected = mask_bytes + n_rows * n_cols * 8
        if len(body) != expected:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"membership result payload is {len(body)} bytes, expected "
                f"{expected} for {n_rows} rows x {n_cols} elements",
            )
        bits = np.frombuffer(body, dtype=np.uint8, count=mask_bytes)
        if n_rows:
            payload["membership"] = np.unpackbits(
                bits.reshape(n_rows, -1), axis=1, count=n_cols
            ).astype(bool)
        else:
            payload["membership"] = np.empty((0, n_cols), dtype=bool)
        payload["first_slots"] = np.frombuffer(
            body, dtype="<i8", offset=mask_bytes
        ).reshape(n_rows, n_cols)
    return payload


def encode_stats_request(
    request_id: int = 0,
    *,
    scope: Optional[str] = None,
) -> bytes:
    """Encode one STATS request (answered with JSON).

    ``scope`` selects which counters a multi-worker server answers
    with: ``"cluster"`` (the default on clustered servers) aggregates
    every worker's counters into one reply with per-worker detail,
    ``"local"`` returns only the worker that happened to accept this
    connection.  The scope rides as a tiny JSON payload
    (``{"scope": ...}``); ``None`` keeps the payload empty, which
    every server treats as the default scope.
    """
    payload = (
        json.dumps({"scope": scope}, separators=(",", ":")).encode("utf-8")
        if scope is not None
        else b""
    )
    return encode_frame(FRAME_STATS, request_id, payload)


def stats_scope(frame: Frame) -> Optional[str]:
    """The scope of a STATS request frame (None: default scope).

    Tolerant by design — an empty, undecodable or scope-less payload
    is the default scope, never an error: STATS must keep answering
    whatever a client managed to send.
    """
    if not frame.payload:
        return None
    try:
        obj = json.loads(bytes(frame.payload).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(obj, dict):
        return None
    scope = obj.get("scope")
    return scope if isinstance(scope, str) else None


def encode_error(
    request_id: int,
    code: int,
    message: str,
) -> bytes:
    """Encode one error frame (JSON ``{code, error, message}``)."""
    return encode_json_frame(
        FRAME_ERROR,
        request_id,
        {
            "code": int(code),
            "error": ERROR_NAMES.get(int(code), "UNKNOWN"),
            "message": str(message),
        },
    )


class FrameReader:
    """Incremental frame decoder over a byte stream.

    Feed it whatever the transport delivers; it buffers partial frames
    and returns each complete :class:`Frame` exactly once.  Framing
    violations (bad magic, unsupported version, nonzero flags, a
    declared length below the header size or above
    ``max_frame_bytes``) raise :class:`~repro.errors.ProtocolError`
    immediately — after a framing error the stream boundary is lost and
    the connection must be dropped, which is why these are errors and
    not skipped frames.

    The reader is **zero-copy on the hot path**: fed chunks are held
    by reference (never concatenated into a rolling buffer), each
    complete frame's body is assembled with at most one join, and the
    returned frame's payload is a read-only view of that body —
    a multi-megabyte request costs one copy between the socket and
    ``np.frombuffer``, not four.

    For transports that can read *into* caller memory
    (``asyncio.BufferedProtocol``, ``socket.recv_into``) the
    :meth:`get_buffer`/:meth:`buffer_updated` pair goes one better:
    once a frame's length prefix declares a body larger than the
    scratch window, an exact-size assembly buffer is allocated and the
    transport lands the remaining bytes **directly in place** — a
    large request reaches ``np.frombuffer`` with no user-space copy at
    all, and the kernel drains in buffer-sized reads instead of the
    transport's default small chunks.
    """

    _SCRATCH_BYTES = 256 * 1024

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < HEADER_BYTES:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"max_frame_bytes must be >= {HEADER_BYTES}, "
                f"got {max_frame_bytes}",
            )
        self.max_frame_bytes = int(max_frame_bytes)
        self._chunks: Deque[bytes] = deque()
        self._buffered = 0
        self._poisoned: Optional[ProtocolError] = None
        self._scratch: Optional[bytearray] = None
        self._assembly: Optional[bytearray] = None
        self._filled = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return self._buffered

    @property
    def pending_error(self) -> Optional["ProtocolError"]:
        """The deferred framing error, if the stream is poisoned.

        Set when :meth:`feed` swallowed a violation to hand back the
        frames completed before it; consumers that want to fail fast
        (the server answers the error without waiting for more bytes)
        check this after draining a chunk's frames.
        """
        return self._poisoned

    def feed(self, data: bytes) -> List[Frame]:
        """Buffer ``data`` and return every frame it completed.

        When a chunk completes good frames *and then* hits a framing
        violation, the good frames are returned first and the error is
        raised by the next call — a pipelining peer's valid requests
        must not vanish because a later frame in the same TCP segment
        was corrupt.
        """
        if self._poisoned is not None:
            raise self._poisoned
        if data:
            # Held by reference: chunks are only stitched together once
            # a frame completes, and only across its own boundary.
            self._chunks.append(bytes(data))
            self._buffered += len(data)
        frames: List[Frame] = []
        while True:
            try:
                frame = self._next_frame()
            except ProtocolError as exc:
                if frames:
                    self._poisoned = exc
                    return frames
                raise
            if frame is None:
                return frames
            frames.append(frame)

    def _take(self, n: int) -> bytes:
        """Pop exactly ``n`` buffered bytes, joining chunks only as needed.

        When the first chunk alone covers ``n`` bytes with nothing to
        spare, it is returned as-is — zero copies; a chunk that
        overshoots is split (the small remainder is the only copy).
        """
        pieces: List[bytes] = []
        taken = 0
        while taken < n:
            chunk = self._chunks.popleft()
            need = n - taken
            if len(chunk) > need:
                self._chunks.appendleft(chunk[need:])
                chunk = chunk[:need]
            pieces.append(chunk)
            taken += len(chunk)
        self._buffered -= n
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def _next_frame(self) -> Optional[Frame]:
        """Pop one complete frame off the buffer, or None to wait."""
        if self._buffered < _LENGTH.size:
            return None
        if len(self._chunks[0]) < _LENGTH.size:
            self._chunks.appendleft(self._take(_LENGTH.size))
            self._buffered += _LENGTH.size
        (length,) = _LENGTH.unpack_from(self._chunks[0])
        if length < HEADER_BYTES:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"declared frame length {length} is below the "
                f"{HEADER_BYTES}-byte header",
            )
        if length > self.max_frame_bytes:
            raise ProtocolError(
                ERR_FRAME_TOO_LARGE,
                f"declared frame length {length} exceeds the "
                f"{self.max_frame_bytes}-byte cap",
            )
        if self._buffered < _LENGTH.size + length:
            return None
        body = memoryview(self._take(_LENGTH.size + length))
        return self._frame_from_body(body)

    def _frame_from_body(self, body: memoryview) -> Frame:
        """Validate one complete prefix+header+payload body into a Frame."""
        magic, version, frame_type, flags, request_id, deadline_ms = (
            _HEADER.unpack_from(body, _LENGTH.size)
        )
        if magic != MAGIC:
            raise ProtocolError(
                ERR_BAD_MAGIC, f"bad magic {magic!r} (expected {MAGIC!r})"
            )
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                ERR_BAD_VERSION,
                f"unsupported protocol version {version} "
                f"(this build speaks {PROTOCOL_VERSION})",
            )
        if flags != 0:
            raise ProtocolError(ERR_BAD_FRAME, "header flags must be zero")
        return Frame(
            version=version,
            frame_type=frame_type,
            request_id=request_id,
            payload=body[_LENGTH.size + HEADER_BYTES :].toreadonly(),
            flags=flags,
            deadline_ms=deadline_ms,
        )

    # -- read-into ingestion (asyncio.BufferedProtocol shape) ----------

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        """Writable memory for the transport's next ``recv_into``.

        Mid-assembly of a large frame this is the remaining slice of
        that frame's exact-size buffer (the payload lands in place);
        otherwise it is a reusable scratch window.
        """
        if self._assembly is not None:
            return memoryview(self._assembly)[self._filled :]
        if self._scratch is None:
            self._scratch = bytearray(self._SCRATCH_BYTES)
        return memoryview(self._scratch)

    def buffer_updated(self, nbytes: int) -> List[Frame]:
        """Account ``nbytes`` written into :meth:`get_buffer`'s memory.

        Returns every frame completed, with :meth:`feed`'s exact
        poison-and-defer semantics (the two modes share the decode and
        validation path).
        """
        if self._assembly is not None:
            self._filled += nbytes
            if self._filled < len(self._assembly):
                return []
            body = memoryview(self._assembly).toreadonly()
            self._assembly = None
            self._filled = 0
            if self._poisoned is not None:  # pragma: no cover - defensive
                raise self._poisoned
            frame = self._frame_from_body(body)
            return [frame]
        frames = self.feed(
            bytes(memoryview(self._scratch)[:nbytes]) if nbytes else b""
        )
        self._maybe_assemble_direct()
        return frames

    def _maybe_assemble_direct(self) -> None:
        """Switch to in-place assembly when a large frame is pending.

        Called with a partial frame buffered: if its declared size is
        known, exceeds the scratch window, and the remainder is still
        in flight, the buffered prefix moves into an exact-size buffer
        and :meth:`get_buffer` starts exposing the unfilled tail.
        """
        if self._poisoned is not None or self._buffered < _LENGTH.size:
            return
        if len(self._chunks[0]) < _LENGTH.size:
            self._chunks.appendleft(self._take(_LENGTH.size))
            self._buffered += _LENGTH.size
        (length,) = _LENGTH.unpack_from(self._chunks[0])
        # Bounds were validated by the feed() pass that left this
        # partial frame buffered.
        total = _LENGTH.size + length
        if total <= self._SCRATCH_BYTES or self._buffered >= total:
            return
        have = self._buffered
        assembly = bytearray(total)
        assembly[:have] = self._take(have)
        self._assembly = assembly
        self._filled = have
