"""PING health probes and corpus-query serving.

A corpus query names a server-hosted corpus and a row range — no
bitset ever crosses the wire on the request path.  The contract: the
merged reply is bit-identical to computing the same window serially
in-process, the server maps at most ``corpus_chunk_rows`` rows per
chunk, the raster never materialises, and every failure mode answers
a typed error frame instead of dropping the connection.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ProtocolError, ServingError
from repro.logic.correlator import CoincidenceCorrelator
from repro.pipeline.corpus import CorpusStore
from repro.serving import protocol
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)
from repro.units import paper_white_grid

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)
CORPUS_ROWS = 100
CHUNK_ROWS = 16


@pytest.fixture(scope="module")
def small_basis():
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory, small_basis):
    """An on-disk corpus drawn from the serving basis."""
    root = tmp_path_factory.mktemp("serving") / "library"
    grid = paper_white_grid(n_samples=SMALL["n_samples"])
    store = CorpusStore.create(root, grid)
    rng = np.random.default_rng(13)
    elements = rng.integers(SMALL["basis_size"], size=CORPUS_ROWS)
    with store.writer() as writer:
        for lo in range(0, CORPUS_ROWS, 25):
            writer.append(
                small_basis.as_batch().select_rows(elements[lo:lo + 25])
            )
    return root, elements


@pytest.fixture(scope="module")
def corpus_server(corpus_root):
    root, _elements = corpus_root
    config = ServerConfig(
        jobs=1, corpus=str(root), corpus_chunk_rows=CHUNK_ROWS, **SMALL
    )
    with ServerThread(config) as handle:
        yield handle


class TestPing:
    def test_ping_reports_corpus(self, corpus_server):
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            pong = client.ping()
        assert pong["kind"] == "pong"
        assert pong["ready"] is True
        assert pong["protocol_version"] == protocol.PROTOCOL_VERSION
        assert pong["corpus"] == "library"
        assert pong["corpus_rows"] == CORPUS_ROWS

    def test_ping_without_corpus(self):
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                pong = client.ping()
        assert pong["ready"] is True
        assert pong["corpus"] is None
        assert pong["corpus_rows"] is None

    def test_async_ping(self, corpus_server):
        async def go():
            client = await AsyncServingClient.open(
                corpus_server.host, corpus_server.port
            )
            try:
                return await client.ping()
            finally:
                await client.aclose()

        pong = asyncio.run(go())
        assert pong["corpus"] == "library"


class TestCorpusQueries:
    def test_identify_bit_identical_to_serial(
        self, corpus_server, corpus_root, small_basis
    ):
        root, elements = corpus_root
        correlator = CoincidenceCorrelator(small_basis)
        local = correlator.identify_batch(
            CorpusStore(root).open_rows(0, CORPUS_ROWS), missing="none"
        )
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            reply = client.corpus_identify("library", 0, CORPUS_ROWS)
        assert np.array_equal(reply.elements, elements)
        assert np.array_equal(reply.elements, local.elements)
        assert np.array_equal(reply.decision_slots, local.decision_slots)
        assert np.array_equal(
            reply.spikes_inspected, local.spikes_inspected
        )
        assert reply.summary["transport"] == "corpus-mmap"
        assert reply.summary["corpus"] == "library"

    def test_chunking_honours_the_budget(self, corpus_server):
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            reply = client.corpus_identify("library", 0, CORPUS_ROWS)
            # ceil(100 / 16) = 7 chunks; none wider than the budget.
            assert reply.summary["n_shards"] == 7
            for shard in reply.shards:
                assert shard["row_stop"] - shard["row_start"] <= CHUNK_ROWS
            # Asking for *more* shards than the budget is honoured...
            finer = client.corpus_identify("library", 0, CORPUS_ROWS,
                                           n_shards=20)
            assert finer.summary["n_shards"] == 20
            # ...asking for fewer is not: the budget wins.
            coarse = client.corpus_identify("library", 0, CORPUS_ROWS,
                                            n_shards=2)
            assert coarse.summary["n_shards"] == 7
        assert np.array_equal(reply.elements, finer.elements)
        assert np.array_equal(reply.elements, coarse.elements)

    def test_raster_never_materialises(self, corpus_server):
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            reply = client.corpus_membership("library", 0, CORPUS_ROWS)
        assert reply.summary["server_residency"]["raster"] is False
        for shard in reply.shards:
            assert shard["residency"]["raster"] is False
            assert shard["residency"]["packed"] is True

    def test_membership_window_bit_identical(
        self, corpus_server, corpus_root, small_basis
    ):
        root, _elements = corpus_root
        correlator = CoincidenceCorrelator(small_basis)
        window = CorpusStore(root).open_rows(7, 61)
        local = correlator.detect_members_batch(window, until_slot=1000)
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            reply = client.corpus_membership("library", 7, 61,
                                             until_slot=1000)
        assert np.array_equal(reply.membership, local.membership)
        assert np.array_equal(reply.first_slots, local.first_slots)

    def test_bitset_requests_still_served(self, corpus_server, small_basis):
        wires = small_basis.as_batch().select_rows([3, 0, 5])
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            reply = client.identify(wires)
        assert reply.elements.tolist() == [3, 0, 5]

    def test_concurrent_async_queries(self, corpus_server, corpus_root):
        root, elements = corpus_root

        async def go():
            client = await AsyncServingClient.open(
                corpus_server.host, corpus_server.port
            )
            try:
                return await asyncio.gather(
                    *[
                        client.corpus_identify("library", lo, lo + 20)
                        for lo in range(0, CORPUS_ROWS, 20)
                    ]
                )
            finally:
                await client.aclose()

        replies = asyncio.run(go())
        merged = np.concatenate([r.elements for r in replies])
        assert np.array_equal(merged, elements)


class TestCorpusErrors:
    def test_no_corpus_hosted(self):
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                with pytest.raises(ServingError) as excinfo:
                    client.corpus_identify("library", 0, 10)
        assert excinfo.value.code == protocol.ERR_NO_CORPUS

    def test_wrong_corpus_name(self, corpus_server):
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            with pytest.raises(ServingError) as excinfo:
                client.corpus_identify("someone-elses", 0, 10)
        assert excinfo.value.code == protocol.ERR_NO_CORPUS

    def test_range_past_the_corpus(self, corpus_server):
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            with pytest.raises(ServingError) as excinfo:
                client.corpus_identify("library", 0, CORPUS_ROWS + 1)
        assert excinfo.value.code == protocol.ERR_BAD_FRAME

    def test_server_survives_an_error(self, corpus_server):
        with ServingClient(corpus_server.host, corpus_server.port) as client:
            with pytest.raises(ServingError):
                client.corpus_identify("library", 0, CORPUS_ROWS + 1)
            reply = client.corpus_identify("library", 0, 5)
        assert reply.elements.shape == (5,)


class TestCorpusFrameCodec:
    def test_encode_parse_round_trip(self):
        frame_bytes = protocol.encode_corpus_query(
            "library", 3, 99, mode="membership", start_slot=7, limit=123,
            n_shards=4, request_id=11,
        )
        (frame,) = protocol.FrameReader().feed(frame_bytes)
        assert frame.frame_type == protocol.FRAME_CORPUS_QUERY
        query = protocol.parse_corpus_query(frame)
        assert query.corpus == "library"
        assert (query.row_start, query.row_stop) == (3, 99)
        assert query.mode == "membership"
        assert query.start_slot == 7
        assert query.limit == 123
        assert query.n_shards == 4
        assert query.request_id == 11
        assert query.n_wires == 96

    def test_unicode_corpus_name(self):
        frame_bytes = protocol.encode_corpus_query("bibliothèque", 0, 1)
        (frame,) = protocol.FrameReader().feed(frame_bytes)
        assert protocol.parse_corpus_query(frame).corpus == "bibliothèque"

    def test_encode_rejects_bad_ranges(self):
        with pytest.raises(ProtocolError):
            protocol.encode_corpus_query("c", 5, 5)
        with pytest.raises(ProtocolError):
            protocol.encode_corpus_query("c", 9, 3)
        with pytest.raises(ProtocolError):
            protocol.encode_corpus_query("", 0, 1)

    def test_truncated_payload_rejected(self):
        frame_bytes = protocol.encode_corpus_query("library", 0, 10)
        (frame,) = protocol.FrameReader().feed(frame_bytes)
        clipped = protocol.Frame(
            frame_type=frame.frame_type,
            version=frame.version,
            request_id=frame.request_id,
            payload=frame.payload[:-1],
        )
        with pytest.raises(ProtocolError):
            protocol.parse_corpus_query(clipped)
