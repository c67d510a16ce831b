"""Pool-parallel dispatch over the chunked packed kernels.

The packed kernels (:mod:`repro.backend.packed`) are single-threaded:
they chunk the row axis to bound their broadcast intermediates, but
every chunk runs on one core.  This module splits that same row axis
into ``(handle, row_range)`` tasks on an existing
:class:`~repro.pipeline.runner.Runner` fork pool instead — the exact
dispatch shape of the serving tier and the ``shard_shared`` experiment
plans, applied one level down, to the kernels themselves.

The contract is the repo's standard one: **parallel ≡ serial,
bit-identically**.  Each worker runs the unmodified serial kernel on a
contiguous row slice of the same operands (shipped once through a
:class:`~repro.backend.shared.SharedArena`, attached read-only), and
the per-slice results concatenate in row order.  Because every kernel
here is row-independent, the parallel result is the serial result by
construction — the property ``tests/backend/test_parallel.py`` checks
over randomized ragged splits on both popcount implementations.

Every entry point degrades to the serial kernel in-process when
parallel dispatch cannot help or cannot run:

* no runner, or a single-job runner (no pool to feed);
* the batch is under ``min_rows`` (the arena + pickle + attach
  overhead outweighs the compute it would distribute);
* the host has no POSIX shared memory;
* creating or populating the arena fails at OS level.

So callers can pass ``runner=`` unconditionally and let the layer
decide — the same auto-fallback policy as the pipeline's shared
dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import PipelineError
from ..testing import faults
from . import packed
from .shared import HAVE_SHARED_MEMORY, SharedArena, SharedArraySpec, attach_array

__all__ = [
    "DEFAULT_MIN_ROWS",
    "pairwise_counts",
    "coincidence_any",
    "first_coincident_slots",
    "unpack_rows",
]

#: Row threshold under which dispatch is not attempted: below this the
#: fixed per-call cost (arena create/copy, task pickles, first-touch
#: attaches) exceeds the kernel time it parallelises on typical grids.
DEFAULT_MIN_ROWS = 128

#: Per-slice result timeout (seconds).  A slice exceeding this lost
#: its worker (died or hung mid-task) and rides the supervision
#: ladder; deliberately generous — the kernels finish in milliseconds,
#: so a false positive would need a pathologically loaded host.
_RESULT_TIMEOUT_S = 120.0

#: Serial kernels addressable by task name.  Each takes the row slice
#: of ``a`` first; two-operand kernels get the full ``b`` second.
_KERNELS: Dict[str, Callable[..., Any]] = {
    "pairwise_counts": packed.pairwise_counts,
    "coincidence_any": packed.coincidence_any,
    "first_coincident_slots": packed.first_coincident_slots,
    "unpack_rows": packed.unpack_rows,
}


@dataclass(frozen=True)
class _RowTask:
    """One worker's slice: kernel name plus ``[row_start, row_stop)``.

    Ships as a few hundred bytes of segment metadata; the operands live
    in the dispatching arena and the worker attaches them read-only
    (cached per process per arena, so N tasks cost one attach).
    """

    kernel: str
    a: SharedArraySpec
    b: Optional[SharedArraySpec]
    row_start: int
    row_stop: int


def _run_row_task(task: _RowTask) -> Any:
    """Worker entry: attach the operands, run the serial kernel slice."""
    faults.maybe_fire("parallel.run_row_task")
    a = attach_array(task.a)[task.row_start : task.row_stop]
    fn = _KERNELS[task.kernel]
    if task.b is None:
        return fn(a)
    return fn(a, attach_array(task.b))


def _pool_ready(runner, n_rows: int, min_rows: int) -> bool:
    """Should this call attempt pool dispatch at all?"""
    return (
        runner is not None
        and getattr(runner, "jobs", 1) >= 2
        and n_rows >= max(2, min_rows)
        and HAVE_SHARED_MEMORY
    )


def _dispatch(
    kernel: str,
    a: np.ndarray,
    b: Optional[np.ndarray],
    runner,
) -> Optional[List[Any]]:
    """Fan one kernel out over the pool; None means "fall back".

    Splits ``a``'s rows into at most ``runner.jobs`` contiguous ranges
    (:func:`repro.backend.packed.row_chunk_bounds`), ships both
    operands through a per-call arena, and gathers the per-range
    results **in task order** — which is row order, the whole identity
    argument.  The arena closes before returning: workers hold their
    (read-only) mappings until the next differently-tokened attach
    evicts them, the same bounded-staleness policy as the pipeline's
    shared-dispatch runs.
    """
    bounds = packed.row_chunk_bounds(a.shape[0], runner.jobs)
    if len(bounds) < 2:
        return None
    try:
        arena = SharedArena()
    except OSError:
        return None
    try:
        try:
            a_spec = arena.share_array(np.ascontiguousarray(a))
            b_spec = (
                arena.share_array(np.ascontiguousarray(b))
                if b is not None
                else None
            )
        except OSError:
            return None
        tasks = [
            _RowTask(kernel, a_spec, b_spec, lo, hi) for lo, hi in bounds
        ]
        try:
            results = runner.supervised_results(
                _run_row_task, tasks, timeout=_RESULT_TIMEOUT_S
            )
        except PipelineError:
            return None
        # Gathered while the arena is still alive: a slice recovered
        # after a worker loss attaches the *same* operands, so the
        # row-order concatenation stays bit-identical.
        return list(results)
    finally:
        arena.close()


def pairwise_counts(
    a: np.ndarray,
    b: np.ndarray,
    *,
    runner=None,
    min_rows: int = DEFAULT_MIN_ROWS,
) -> np.ndarray:
    """Pool-parallel :func:`repro.backend.packed.pairwise_counts`.

    Splits ``a``'s rows across the runner's workers; bit-identical to
    the serial kernel (which executes in-process when dispatch is not
    worthwhile or unavailable).
    """
    if _pool_ready(runner, a.shape[0], min_rows):
        parts = _dispatch("pairwise_counts", a, b, runner)
        if parts is not None:
            return np.concatenate(parts, axis=0)
    return packed.pairwise_counts(a, b)


def coincidence_any(
    a: np.ndarray,
    b: np.ndarray,
    *,
    runner=None,
    min_rows: int = DEFAULT_MIN_ROWS,
) -> np.ndarray:
    """Pool-parallel :func:`repro.backend.packed.coincidence_any`."""
    if _pool_ready(runner, a.shape[0], min_rows):
        parts = _dispatch("coincidence_any", a, b, runner)
        if parts is not None:
            return np.concatenate(parts, axis=0)
    return packed.coincidence_any(a, b)


def first_coincident_slots(
    wires: np.ndarray,
    refs: np.ndarray,
    *,
    runner=None,
    min_rows: int = DEFAULT_MIN_ROWS,
) -> np.ndarray:
    """Pool-parallel :func:`repro.backend.packed.first_coincident_slots`.

    The membership/identification row-chunk kernel: each worker scans
    its wire rows against the full reference table.
    """
    if _pool_ready(runner, wires.shape[0], min_rows):
        parts = _dispatch("first_coincident_slots", wires, refs, runner)
        if parts is not None:
            return np.concatenate(parts, axis=0)
    return packed.first_coincident_slots(wires, refs)


def unpack_rows(
    words: np.ndarray,
    *,
    runner=None,
    min_rows: int = DEFAULT_MIN_ROWS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pool-parallel :func:`repro.backend.packed.unpack_rows` (decode).

    Each worker decodes a row slice to its local CSR; the slices stitch
    back by concatenating values and re-basing each slice's offsets by
    the running total — exactly the layout the serial decode produces.
    """
    if _pool_ready(runner, words.shape[0], min_rows):
        parts = _dispatch("unpack_rows", words, None, runner)
        if parts is not None:
            values = np.concatenate([part[0] for part in parts])
            ptr = np.zeros(words.shape[0] + 1, dtype=parts[0][1].dtype)
            offset = 0
            row = 1
            for part_values, part_ptr in parts:
                ptr[row : row + part_ptr.size - 1] = part_ptr[1:] + offset
                offset += part_values.size
                row += part_ptr.size - 1
            return values, ptr
    return packed.unpack_rows(words)
