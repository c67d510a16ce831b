"""Worker-side shard execution for the serving front-end.

The server splits each request's wire batch into contiguous row-range
shards and runs every shard through one function —
:func:`compute_shard` — whether the shard executes in-process or on a
pool worker.  Equal inputs produce equal payloads, so the
dispatch mechanism is invisible in the response, exactly as the
pipeline's shard plans make sharded experiment runs bit-identical to
serial ones.

Two transport pieces make the pool path zero-copy:

* **basis install** — the serving basis is exported once as a
  :class:`BasisTable` (plain picklable arrays, no shared segments) and
  installed into a per-process registry, either inherited by forked
  workers or delivered by one
  :meth:`~repro.pipeline.runner.Runner.broadcast` at server start-up.
  Shard tasks then reference the basis by token, never re-shipping it.
  A long-lived shared-memory export would fight the attachment cache's
  per-arena eviction (each request uses a fresh short-lived arena), so
  the basis deliberately travels by value, once.
* **:class:`ShardTask`** — the one per-shard pool task of every
  kind, run by the one pool target :func:`run_shard`.  A bitset shard
  carries the request batch's
  :class:`~repro.backend.batch.SharedBatchHandle` plus a row range and
  scan options; workers attach the request's shared segments and wrap
  their row range as a *packed-primary view* of the mapped bitset
  (:meth:`~repro.backend.batch.SpikeTrainBatch.from_shared`), so shard
  compute runs the packed kernels straight on the pages the server
  wrote — the payload is never unpacked to a raster anywhere, and
  every shard payload reports its batch's representation residency to
  prove it.  A logicnet shard is a network range plus the family's
  seed and shape (:func:`compute_logicnet_shard`).
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..backend.batch import SharedBatchHandle, SpikeTrainBatch
from ..errors import ServingError
from ..hyperspace.basis import HyperspaceBasis
from ..logic.correlator import CoincidenceCorrelator
from ..logic.netbatch import LogicNetBatch
from ..testing import faults
from ..units import SimulationGrid
from .protocol import ERR_INTERNAL

__all__ = [
    "BasisTable",
    "ShardTask",
    "export_basis",
    "install_basis",
    "discard_basis",
    "installed_basis",
    "run_shard",
    "compute_shard",
    "compute_logicnet_shard",
]


@dataclass(frozen=True)
class BasisTable:
    """Picklable plain-array export of a verified basis.

    Element ``i``'s sorted slots are ``values[ptr[i]:ptr[i + 1]]`` —
    the same table :class:`~repro.hyperspace.basis.BasisArtifact` ships
    through shared memory, but carried by value so it can be installed
    once per process and outlive any request arena.  ``token``
    identifies the install; shard tasks carry the token only.
    """

    token: str
    labels: Tuple[str, ...]
    values: np.ndarray
    ptr: np.ndarray
    n_samples: int
    dt: float


@dataclass(frozen=True)
class ShardTask:
    """One pool shard: rows ``[row_start, row_stop)`` of one request.

    ``mode`` picks the compute core and ``options`` are its keyword
    arguments.  Bitset shards carry the request batch's
    :class:`~repro.backend.batch.SharedBatchHandle` in ``wires`` — the
    payload stays in the server's per-request
    :class:`~repro.backend.shared.SharedArena` and the worker attaches
    it.  Logicnet shards carry no wires at all: their input lines are
    the installed basis (referenced by token) and their networks
    rebuild from the seed in ``options``.  Either way the task pickles
    as metadata only.
    """

    token: str
    mode: str
    row_start: int
    row_stop: int
    options: Dict[str, Any] = field(default_factory=dict)
    wires: Optional[SharedBatchHandle] = None


#: token → installed basis, per process.  Populated in the server
#: process before the pool forks (workers inherit it for free) and by
#: the install broadcast for pools that already exist.
_INSTALLED: Dict[str, HyperspaceBasis] = {}


def export_basis(basis: HyperspaceBasis, token: Optional[str] = None) -> BasisTable:
    """Export ``basis`` as a :class:`BasisTable` (fresh token by default)."""
    values, ptr = basis.as_batch().csr()
    return BasisTable(
        token=token if token is not None else uuid.uuid4().hex,
        labels=basis.labels,
        values=values,
        ptr=ptr,
        n_samples=basis.grid.n_samples,
        dt=basis.grid.dt,
    )


def install_basis(table: BasisTable) -> str:
    """Install ``table`` into this process's basis registry.

    Reconstruction trusts the exporting basis's orthogonality check
    (:meth:`~repro.hyperspace.basis.HyperspaceBasis._from_table`), so
    installing is cheap enough to broadcast at server start-up.
    Idempotent per token; returns the token.
    """
    if table.token not in _INSTALLED:
        grid = SimulationGrid(n_samples=table.n_samples, dt=table.dt)
        _INSTALLED[table.token] = HyperspaceBasis._from_table(
            np.asarray(table.values, dtype=np.int64),
            np.asarray(table.ptr, dtype=np.int64),
            table.labels,
            grid,
        )
    return table.token


def discard_basis(token: str) -> bool:
    """Drop one installed basis (graceful-shutdown broadcast target)."""
    return _INSTALLED.pop(token, None) is not None


def installed_basis(token: str) -> HyperspaceBasis:
    """The basis installed under ``token`` in this process."""
    basis = _INSTALLED.get(token)
    if basis is None:
        raise ServingError(
            ERR_INTERNAL,
            f"no basis installed under token {token!r} in this worker — "
            "the server must broadcast install_basis before dispatching",
        )
    return basis


def run_shard(task: ShardTask) -> dict:
    """Pool target: compute one shard against the installed basis.

    Bitset shards attach their rows of the shared request batch;
    logicnet shards rebuild their networks.  Both fire the
    ``serving.run_shard`` fault point, so the supervision ladder
    (resubmit → respawn → inline) covers every kind identically.
    """
    faults.maybe_fire("serving.run_shard")
    basis = installed_basis(task.token)
    if task.mode == "logicnet":
        return compute_logicnet_shard(
            basis, task.row_start, task.row_stop, **task.options
        )
    rows = SpikeTrainBatch.from_shared(
        task.wires, rows=(task.row_start, task.row_stop)
    )
    return compute_shard(
        basis, rows, task.row_start, task.row_stop, mode=task.mode,
        **task.options,
    )


def compute_shard(
    basis: HyperspaceBasis,
    rows: SpikeTrainBatch,
    row_start: int,
    row_stop: int,
    *,
    mode: str,
    start_slot: int = 0,
    limit: Optional[int] = None,
) -> dict:
    """Run one shard's receiver pass and return its payload dict.

    The common core of the pool, in-process, fast and coalesced paths.
    Array fields stay NumPy arrays (``membership`` boolean): the
    binary result frame ships their buffers directly.  ``rows`` is
    expected packed-primary; the payload's ``residency`` block records
    which representations the batch held *after* the pass, which is how
    the integration tests (and any auditing client) verify the bitset
    was computed on directly — ``raster`` must come back False.
    """
    faults.maybe_fire("serving.compute_shard")
    started = time.perf_counter()
    correlator = CoincidenceCorrelator(basis)
    if mode == "identify":
        outcome = correlator.identify_batch(
            rows, start_slot=start_slot, missing="none"
        )
        body = {
            "elements": outcome.elements,
            "decision_slots": outcome.decision_slots,
            "spikes_inspected": outcome.spikes_inspected,
        }
    elif mode == "membership":
        outcome = correlator.detect_members_batch(rows, until_slot=limit)
        body = {
            "membership": outcome.membership,
            "first_slots": outcome.first_slots,
        }
    else:
        raise ServingError(ERR_INTERNAL, f"unknown shard mode {mode!r}")
    return _stamped(body, rows, row_start, row_stop, started)


def compute_logicnet_shard(
    basis: HyperspaceBasis,
    net_start: int,
    net_stop: int,
    *,
    seed: int,
    n_gates: int,
    depth: int,
) -> dict:
    """Evaluate networks ``[net_start, net_stop)`` against ``basis``.

    The common core of the pool and in-process logicnet paths.  The
    basis batch's packed words are the shared input lines (one per
    basis element); the shard's networks rebuild from their spawn keys,
    so equal tasks produce equal payloads in any process.  As with
    :func:`compute_shard`, the ``residency`` block records the input
    batch's representations after the pass — ``raster`` must come back
    False, proving the layer evaluation ran on packed words.
    """
    faults.maybe_fire("serving.compute_shard")
    started = time.perf_counter()
    inputs = basis.as_batch()
    nets = LogicNetBatch.random(
        net_stop - net_start,
        n_gates,
        depth,
        inputs.n_trains,
        seed,
        net_start=net_start,
    )
    popcounts, checksums = nets.evaluate(
        inputs.packed_words(), inputs.grid.n_samples
    )
    body = {"popcounts": popcounts, "checksums": checksums}
    return _stamped(body, inputs, net_start, net_stop, started)


def _stamped(
    body: dict, batch: SpikeTrainBatch, row_start: int, row_stop: int,
    started: float,
) -> dict:
    """Add the row range, wall time and ``batch`` residency to a body."""
    body.update(
        row_start=int(row_start),
        row_stop=int(row_stop),
        wall_seconds=time.perf_counter() - started,
        residency={
            "packed": batch.packed_materialised,
            "csr": batch.csr_materialised,
            "raster": batch.raster_materialised,
        },
    )
    return body
