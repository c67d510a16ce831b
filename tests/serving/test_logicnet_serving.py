"""Served LOGICNET queries ≡ local batched evaluation.

A logicnet query is 20 bytes — seed, network range, shape — and the
server rebuilds the named networks from their spawn keys against its
own basis.  The contract: the merged reply is bit-identical to
building and evaluating the same range locally, however the server
shards or dispatches it (in-process or pool), the raster never
materialises server-side, and every failure mode answers a typed
error frame.
"""

import asyncio

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.errors import ProtocolError, ServingError
from repro.logic.netbatch import LogicNetBatch
from repro.serving import protocol
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)
#: The family every test queries: (query seed, n_gates, depth).
FAMILY = dict(seed=21, n_gates=6, depth=3)
N_NETWORKS = 12


@pytest.fixture(scope="module")
def small_basis():
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module")
def expected(small_basis):
    """The local answer every served reply must reproduce exactly."""
    inputs = small_basis.as_batch()
    nets = LogicNetBatch.random(
        N_NETWORKS,
        FAMILY["n_gates"],
        FAMILY["depth"],
        inputs.n_trains,
        FAMILY["seed"],
    )
    popcounts, checksums = nets.evaluate(
        inputs.packed_words(), inputs.grid.n_samples
    )
    return popcounts, checksums


@pytest.fixture(scope="module")
def inline_server():
    with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
        yield handle


def _query(client, net_start=0, net_stop=N_NETWORKS, n_shards=0):
    return client.logicnet(
        FAMILY["seed"],
        net_start,
        net_stop,
        n_gates=FAMILY["n_gates"],
        depth=FAMILY["depth"],
        n_shards=n_shards,
    )


class TestServedEqualsLocal:
    def test_inline_bit_identical(self, inline_server, expected):
        popcounts, checksums = expected
        with ServingClient(inline_server.host, inline_server.port) as client:
            reply = _query(client, n_shards=3)
        np.testing.assert_array_equal(reply.popcounts, popcounts)
        np.testing.assert_array_equal(reply.checksums, checksums)
        assert reply.summary["mode"] == "logicnet"
        assert reply.summary["transport"] == "in-process"
        assert reply.summary["n_networks"] == N_NETWORKS

    def test_shard_count_is_invisible(self, inline_server, expected):
        popcounts, checksums = expected
        with ServingClient(inline_server.host, inline_server.port) as client:
            replies = [_query(client, n_shards=n) for n in (1, 2, 5)]
        for reply in replies:
            np.testing.assert_array_equal(reply.popcounts, popcounts)
            np.testing.assert_array_equal(reply.checksums, checksums)
        assert [r.summary["n_shards"] for r in replies] == [1, 2, 5]

    def test_subrange_is_the_full_range_sliced(self, inline_server, expected):
        popcounts, checksums = expected
        with ServingClient(inline_server.host, inline_server.port) as client:
            reply = _query(client, net_start=3, net_stop=9, n_shards=2)
        np.testing.assert_array_equal(reply.popcounts, popcounts[3:9])
        np.testing.assert_array_equal(reply.checksums, checksums[3:9])

    def test_raster_never_materialises(self, inline_server):
        with ServingClient(inline_server.host, inline_server.port) as client:
            reply = _query(client, n_shards=2)
        assert not reply.summary["server_residency"]["raster"]
        assert reply.summary["server_residency"]["packed"]
        for shard in reply.shards:
            assert not shard["residency"]["raster"]

    def test_other_request_kinds_still_served(self, inline_server, small_basis):
        """Logicnet is served alongside the other request kinds."""
        wires = small_basis.as_batch()
        with ServingClient(inline_server.host, inline_server.port) as client:
            identified = client.identify(wires)
            reply = _query(client)
            assert client.ping()["ready"] is True
        assert identified.elements.tolist() == list(range(wires.n_trains))
        assert reply.popcounts.shape == (N_NETWORKS, FAMILY["n_gates"])

    @pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
    )
    def test_pool_dispatch_bit_identical(self, expected):
        popcounts, checksums = expected
        with ServerThread(ServerConfig(jobs=2, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                reply = _query(client, n_shards=2)
        np.testing.assert_array_equal(reply.popcounts, popcounts)
        np.testing.assert_array_equal(reply.checksums, checksums)
        assert reply.summary["transport"] == "seed-rebuild"

    def test_async_pipelined_queries(self, inline_server, expected):
        popcounts, checksums = expected

        async def run():
            client = await AsyncServingClient.open(
                inline_server.host, inline_server.port
            )
            try:
                return await asyncio.gather(
                    *[
                        client.logicnet(
                            FAMILY["seed"],
                            0,
                            N_NETWORKS,
                            n_gates=FAMILY["n_gates"],
                            depth=FAMILY["depth"],
                            n_shards=n,
                        )
                        for n in (1, 2, 3)
                    ]
                )
            finally:
                await client.aclose()

        for reply in asyncio.run(run()):
            np.testing.assert_array_equal(reply.popcounts, popcounts)
            np.testing.assert_array_equal(reply.checksums, checksums)

    def test_request_counted_in_stats(self, expected):
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                _query(client)
                stats = client.stats()
        assert stats["requests_served"] >= 1
        assert stats["pool_path_requests"] >= 1


class TestLogicNetErrors:
    def test_oversized_query_is_typed(self, inline_server):
        with ServingClient(inline_server.host, inline_server.port) as client:
            with pytest.raises(ServingError) as info:
                client.logicnet(1, 0, 1 << 20, n_gates=1024, depth=16)
        assert info.value.code == protocol.ERR_OVERLOADED

    def test_server_survives_an_error(self, inline_server, expected):
        popcounts, _checksums = expected
        with ServingClient(inline_server.host, inline_server.port) as client:
            with pytest.raises(ServingError):
                client.logicnet(1, 0, 1 << 20, n_gates=1024, depth=16)
            reply = _query(client)
        np.testing.assert_array_equal(reply.popcounts, popcounts)


class TestLogicNetFrameCodec:
    def test_encode_parse_round_trip(self):
        frame_bytes = protocol.encode_logicnet_query(
            99, 3, 40, n_gates=32, depth=5, n_shards=4, request_id=11
        )
        (frame,) = protocol.FrameReader().feed(frame_bytes)
        assert frame.frame_type == protocol.FRAME_LOGICNET
        query = protocol.parse_logicnet_query(frame)
        assert query.seed == 99
        assert (query.net_start, query.net_stop) == (3, 40)
        assert query.n_gates == 32
        assert query.depth == 5
        assert query.n_shards == 4
        assert query.request_id == 11
        assert query.n_networks == 37
        assert query.mode == "logicnet"

    def test_encode_rejects_bad_shapes(self):
        with pytest.raises(ProtocolError):
            protocol.encode_logicnet_query(1, 5, 5, n_gates=4, depth=1)
        with pytest.raises(ProtocolError):
            protocol.encode_logicnet_query(1, 9, 3, n_gates=4, depth=1)
        with pytest.raises(ProtocolError):
            protocol.encode_logicnet_query(1, 0, 4, n_gates=0, depth=1)
        with pytest.raises(ProtocolError):
            protocol.encode_logicnet_query(1, 0, 4, n_gates=4, depth=0)

    def test_truncated_payload_rejected(self):
        frame_bytes = protocol.encode_logicnet_query(
            1, 0, 4, n_gates=4, depth=1
        )
        (frame,) = protocol.FrameReader().feed(frame_bytes)
        clipped = protocol.Frame(
            frame_type=frame.frame_type,
            version=frame.version,
            request_id=frame.request_id,
            payload=frame.payload[:-1],
        )
        with pytest.raises(ProtocolError):
            protocol.parse_logicnet_query(clipped)
