"""Serving layer: the packed-bitset RPC boundary over the shard pool.

The top of the stack documented in ``docs/architecture.md``:
:mod:`~repro.serving.protocol` defines the binary frame
format whose request payload is the ``np.packbits`` bitset itself,
:mod:`~repro.serving.server` accepts those frames over asyncio TCP and
dispatches per-request ``(handle, row_range)`` shards onto the
:class:`~repro.pipeline.runner.Runner`'s persistent pool through
per-request :class:`~repro.backend.shared.SharedArena` exports,
:mod:`~repro.serving.dispatch` executes each shard on the mapped
bitset with the packed kernels, and :mod:`~repro.serving.client` is
the reference consumer.  End to end, a request's spike data exists
only in packed form — wire, arena and compute are the same bytes.

``repro serve`` (the CLI) runs :func:`~repro.serving.server.serve_forever`.
"""

from .client import IdentifyReply, MembershipReply, ServingClient
from .cluster import ServerCluster, serve_cluster
from .protocol import PROTOCOL_VERSION, FrameReader
from .server import (
    ServerConfig,
    ServerThread,
    SpikeServer,
    build_serving_basis,
    serve_forever,
)

__all__ = [
    "ServerConfig",
    "SpikeServer",
    "ServerThread",
    "ServerCluster",
    "build_serving_basis",
    "serve_forever",
    "serve_cluster",
    "ServingClient",
    "IdentifyReply",
    "MembershipReply",
    "PROTOCOL_VERSION",
    "FrameReader",
]
