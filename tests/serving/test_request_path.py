"""One request path: every compute kind answers the same way.

Identify, membership, corpus queries and logicnet queries all take the
server's one request path, so they must fail identically: an
unexpected exception inside compute answers exactly one typed
``ERR_INTERNAL`` frame and no DONE, and counts exactly one error in
STATS.  A request frame stamped with any protocol version but the
current one answers the typed ``ERR_BAD_VERSION``.  And the blocking
client must deliver a request however few bytes each ``sendmsg`` call
takes.
"""

import socket

import numpy as np
import pytest

from repro.logic.correlator import CoincidenceCorrelator
from repro.pipeline.corpus import CorpusStore
from repro.serving import dispatch, protocol
from repro.serving.client import ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)
REQUEST_ID = 7


@pytest.fixture(scope="module")
def small_basis():
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module")
def server(tmp_path_factory, small_basis):
    """An in-process server hosting a one-chunk corpus of basis rows."""
    root = tmp_path_factory.mktemp("request-path") / "library"
    store = CorpusStore.create(root, small_basis.grid)
    with store.writer() as writer:
        writer.append(small_basis.as_batch())
    config = ServerConfig(jobs=1, corpus=str(root), **SMALL)
    with ServerThread(config) as handle:
        yield handle


def encode_kind(kind, basis):
    """One request frame of ``kind``, stamped :data:`REQUEST_ID`."""
    batch = basis.as_batch()
    grid = basis.grid
    if kind in ("identify", "membership"):
        return protocol.encode_request(
            batch.packbits(), grid.n_samples, grid.dt, mode=kind,
            request_id=REQUEST_ID,
        )
    if kind == "identify-sharded":
        return protocol.encode_request(
            batch.packbits(), grid.n_samples, grid.dt, n_shards=2,
            request_id=REQUEST_ID,
        )
    if kind == "corpus":
        return protocol.encode_corpus_query(
            "library", 0, basis.size, request_id=REQUEST_ID
        )
    assert kind == "logicnet"
    return protocol.encode_logicnet_query(
        3, 0, 4, n_gates=4, depth=2, request_id=REQUEST_ID
    )


def read_until(sock, reader, done):
    """Frames off ``sock`` up to and including the first ``done`` one."""
    frames = []
    while not frames or not done(frames[-1]):
        data = sock.recv(65536)
        assert data, f"connection closed after {frames}"
        for frame in reader.feed(data):
            if not frames or not done(frames[-1]):
                frames.append(frame)
    return frames


def read_to_eof(sock):
    """Every frame the server sends before closing the connection."""
    reader = protocol.FrameReader()
    frames = []
    data = sock.recv(65536)
    while data:
        frames.extend(reader.feed(data))
        data = sock.recv(65536)
    return frames


def raise_inside_compute(*args, **kwargs):
    raise RuntimeError("compute blew up")


KINDS = ["identify", "membership", "identify-sharded", "corpus", "logicnet"]


class TestInternalErrorsAnswerAlike:
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_internal_error_frame_and_no_done(
        self, server, small_basis, monkeypatch, kind
    ):
        monkeypatch.setattr(dispatch, "compute_shard", raise_inside_compute)
        monkeypatch.setattr(
            dispatch, "compute_logicnet_shard", raise_inside_compute
        )
        with ServingClient(server.host, server.port) as client:
            errors_before = client.stats()["errors"]
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            reader = protocol.FrameReader()
            sock.sendall(encode_kind(kind, small_basis))
            frames = read_until(
                sock,
                reader,
                lambda f: f.frame_type
                in (protocol.FRAME_ERROR, protocol.FRAME_DONE),
            )
            # A PING behind the failed request: anything the server
            # still sent for the request would arrive before its PONG.
            sock.sendall(protocol.encode_ping(REQUEST_ID + 1))
            frames += read_until(
                sock, reader, lambda f: f.frame_type == protocol.FRAME_PONG
            )
        answered = [f for f in frames if f.request_id == REQUEST_ID]
        assert [f.frame_type for f in answered] == [protocol.FRAME_ERROR]
        payload = protocol.parse_json_frame(answered[0])
        assert payload["code"] == protocol.ERR_INTERNAL
        assert payload["error"] == "INTERNAL"
        assert "RuntimeError: compute blew up" in payload["message"]
        with ServingClient(server.host, server.port) as client:
            assert client.stats()["errors"] == errors_before + 1

    def test_server_keeps_serving_after_internal_errors(
        self, server, small_basis
    ):
        with ServingClient(server.host, server.port) as client:
            reply = client.identify(small_basis.as_batch())
        assert reply.elements.tolist() == list(range(small_basis.size))


REQUEST_TYPES = {
    "identify": lambda basis: encode_kind("identify", basis),
    "membership": lambda basis: encode_kind("membership", basis),
    "corpus": lambda basis: encode_kind("corpus", basis),
    "logicnet": lambda basis: encode_kind("logicnet", basis),
    "stats": lambda basis: protocol.encode_stats_request(REQUEST_ID),
    "ping": lambda basis: protocol.encode_ping(REQUEST_ID),
}


class TestEarlierVersionsRejected:
    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    @pytest.mark.parametrize("frame_type", sorted(REQUEST_TYPES))
    def test_typed_bad_version_before_the_close(
        self, server, small_basis, frame_type, version
    ):
        wire = bytearray(REQUEST_TYPES[frame_type](small_basis))
        assert wire[8] == protocol.PROTOCOL_VERSION
        wire[8] = version
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            sock.sendall(bytes(wire))
            frames = read_to_eof(sock)
        assert len(frames) == 1
        assert frames[0].frame_type == protocol.FRAME_ERROR
        assert frames[0].version == protocol.PROTOCOL_VERSION
        payload = protocol.parse_json_frame(frames[0])
        assert payload["code"] == protocol.ERR_BAD_VERSION
        with ServingClient(server.host, server.port) as client:
            assert client.ping()["ready"] is True


class ShortSendmsgSocket:
    """A socket whose ``sendmsg`` takes at most a few KiB per call."""

    LIMIT = 4096

    def __init__(self, sock):
        self._sock = sock
        self.sendmsg_calls = 0

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        chunk = bytearray()
        for buffer in buffers:
            view = memoryview(buffer).cast("B")
            chunk += view[: self.LIMIT - len(chunk)]
            if len(chunk) >= self.LIMIT:
                break
        return self._sock.send(chunk)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestShortSendmsg:
    def test_8mib_identify_round_trips_bit_identically(
        self, server, small_basis
    ):
        rng = np.random.default_rng(21)
        elements = rng.integers(small_basis.size, size=16384)
        wires = small_basis.as_batch().select_rows(elements)
        assert wires.packbits().nbytes == 8 * 1024 * 1024
        local = CoincidenceCorrelator(small_basis).identify_batch(
            wires, missing="none"
        )
        with ServingClient(server.host, server.port, timeout=20) as client:
            client._sock = ShortSendmsgSocket(client._sock)
            reply = client.identify(wires)
            assert client._sock.sendmsg_calls == 1
        assert np.array_equal(reply.elements, local.elements)
        assert np.array_equal(reply.decision_slots, local.decision_slots)
        assert np.array_equal(
            reply.spikes_inspected, local.spikes_inspected
        )
