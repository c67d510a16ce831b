"""Per-layer metrics of a traced run.

Two sources feed them:

* the traced phase of the workload itself — spans around every client
  call, failure counts per kind and error class, and the server's
  ``STATS`` snapshots taken before and after the phase;
* in-process probes run after the workload, outside every timed
  region: fresh-subprocess import times, an in-process serial
  ``Runner`` run (per-spec walls) and a ``repro run all`` process whose
  artifacts must match it, the serving basis build, a corpus
  write and read, and the kernels behind each request kind on the same
  input shapes the workload sends.

Every traced run reports every per-layer metric.  A request kind the
workload does not send reports 0 attempts, 0 failures, a 0 ms p50 and
a 0 kernel share.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from measure import Outcome, Tracer, percentile, ranked_latencies, self_times
from verify import load_results, result_diffs
from workloads import (
    BULK_DEPTH, BULK_GATES, BULK_NETS, BULK_WIRES, LIMIT_S, SMALL_WIRES,
    Context, Measurement, serving_basis, wire_batches,
)

KINDS = ("identify", "membership", "corpus_identify", "logicnet")
IMPORTS = {
    "import.repro_cli_s": "repro.cli",
    "import.repro_serving_server_s": "repro.serving.server",
    "import.repro_backend_s": "repro.backend",
}
#: Repetitions of each probe; the probe reports their median.
REPEATS = 5


def _median_time(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def import_probe(ctx: Context) -> Dict[str, float]:
    """Median fresh-interpreter import time of each entry module."""
    script = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import {module}\n"
        "t = time.perf_counter() - t\n"
        "print(t, sum(1 for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    metrics = {}
    for name, module in IMPORTS.items():
        times, scipy_modules = [], 0
        for _ in range(3):
            out = subprocess.run(
                [sys.executable, "-c", script.format(module=module)],
                env=ctx.child_env(), capture_output=True, text=True,
                check=True, timeout=60,
            ).stdout.split()
            times.append(float(out[0]))
            scipy_modules = int(out[1])
        metrics[name] = statistics.median(times)
        if module == "repro.backend":
            metrics["import.scipy_modules_backend"] = float(scipy_modules)
    return metrics


def pipeline_probe(ctx: Context) -> Dict[str, float]:
    """Per-spec walls of a serial in-process run, and the CLI's wall.

    The CLI's artifacts must match the in-process run's values.
    """
    import procs
    from repro.pipeline.runner import Runner
    from repro.pipeline.store import ArtifactStore

    reference_dir = ctx.work / "probe-reference"
    metrics = {}
    with Runner(jobs=1, store=ArtifactStore(reference_dir)) as runner:
        for report in runner.run_many(seed=ctx.seed):
            metrics[f"pipeline.run.{report.name}_s"] = report.wall_seconds
    out_dir = ctx.work / "probe-cli-out"
    result = procs.run_child(
        ctx.repro("run", "all", "--jobs", "1", "--seed", str(ctx.seed),
                  "--output-dir", str(out_dir)),
        ctx.child_env(), ctx.work / "probe-cli.log",
    )
    if result.returncode != 0:
        raise RuntimeError(f"repro run all failed:\n{result.output}")
    diffs = result_diffs(load_results(reference_dir), load_results(out_dir))
    if diffs:
        raise RuntimeError(f"repro run all artifacts differ: {diffs[:5]}")
    metrics["pipeline.cli_wall_s"] = result.wall_s
    return metrics


def kernel_probe(ctx: Context) -> Dict[str, float]:
    """In-process kernels on the shapes the serving workloads send."""
    from repro.backend.batch import SpikeTrainBatch
    from repro.backend.shared import SharedArena
    from repro.logic.correlator import CoincidenceCorrelator
    from repro.logic.netbatch import LogicNetBatch
    from repro.pipeline.corpus import CorpusStore
    from repro.serving.server import ServerConfig, build_serving_basis

    metrics = {
        "hyperspace.build_serving_basis_s": _median_time(
            lambda: build_serving_basis(ServerConfig(seed=ctx.seed)), 3
        )
    }
    rng = np.random.default_rng(ctx.seed)
    basis = serving_basis(ctx.seed)
    grid = basis.grid
    correlator = CoincidenceCorrelator(basis)
    (small, _, _), = wire_batches(basis, rng, 1, SMALL_WIRES)
    (bulk, _, bulk_batch), = wire_batches(basis, rng, 1, BULK_WIRES)

    def identify(packed):
        correlator.identify_batch(
            SpikeTrainBatch.from_packed(packed, grid), missing="none"
        )

    def members(packed):
        correlator.detect_members_batch(SpikeTrainBatch.from_packed(packed, grid))

    def to_shared():
        with SharedArena() as arena:
            bulk_batch.to_shared(arena)

    words = basis.as_batch().packed_words()

    def netbatch():
        nets = LogicNetBatch.random(
            BULK_NETS, BULK_GATES, BULK_DEPTH, basis.size, ctx.seed
        )
        nets.evaluate(words, grid.n_samples)

    metrics["backend.identify_batch_16_ms"] = 1e3 * _median_time(
        lambda: identify(small))
    metrics["backend.detect_members_batch_16_ms"] = 1e3 * _median_time(
        lambda: members(small))
    metrics["backend.identify_batch_1024_ms"] = 1e3 * _median_time(
        lambda: identify(bulk))
    metrics["backend.detect_members_batch_1024_ms"] = 1e3 * _median_time(
        lambda: members(bulk))
    metrics["backend.to_shared_1024_ms"] = 1e3 * _median_time(to_shared)
    metrics["logic.netbatch_evaluate_ms"] = 1e3 * _median_time(netbatch)

    corpus_dir = ctx.work / "probe-corpus"
    chunks = [b for _, _, b in wire_batches(basis, rng, 4, BULK_WIRES)]

    def write():
        shutil.rmtree(corpus_dir, ignore_errors=True)
        store = CorpusStore.create(corpus_dir, grid)
        with store.writer() as writer:
            for chunk in chunks:
                writer.append(chunk)

    metrics["pipeline.corpus_append_s"] = _median_time(write, 3)
    store = CorpusStore(corpus_dir)
    metrics["pipeline.corpus_open_rows_ms"] = 1e3 * _median_time(
        lambda: store.open_rows(0, BULK_WIRES))
    metrics["corpus_identify_ms"] = 1e3 * _median_time(
        lambda: correlator.identify_batch(
            store.open_rows(0, BULK_WIRES), missing="none"))
    shutil.rmtree(corpus_dir, ignore_errors=True)
    return metrics


def _kernel_ms(workload: str, metrics: Dict[str, float]) -> Dict[str, float]:
    """In-process time of each request kind the workload sends."""
    if workload == "serve-small":
        return {
            "identify": metrics["backend.identify_batch_16_ms"],
            "membership": metrics["backend.detect_members_batch_16_ms"],
        }
    if workload == "serve-bulk":
        return {
            "identify": metrics["backend.identify_batch_1024_ms"],
            "membership": metrics["backend.detect_members_batch_1024_ms"],
            "corpus_identify": metrics["corpus_identify_ms"],
            "logicnet": metrics["logic.netbatch_evaluate_ms"],
        }
    return {}


def _p50_ms(outcomes: List[Outcome], limit_s: float) -> float:
    return 1e3 * percentile(ranked_latencies(outcomes, limit_s), 50)


def serving_metrics(m: Measurement, tracer: Tracer) -> Dict[str, float]:
    """Client spans, failure classes and STATS deltas of the traced phase."""
    metrics: Dict[str, float] = {}
    ok_requests = {i for i, o in enumerate(m.requests) if o.error is None}
    all_ok_spans = []
    for kind in KINDS:
        spans = [
            s.duration for s in tracer.by_name(f"client.{kind}")
            if s.request in ok_requests
        ]
        all_ok_spans += spans
        attempted = [o for o in m.requests if o.kind == kind]
        metrics[f"serving.client.{kind}_attempted"] = float(len(attempted))
        metrics[f"serving.client.{kind}_failed"] = float(
            sum(1 for o in attempted if o.error is not None))
        metrics[f"serving.client.{kind}_p50_ms"] = (
            1e3 * statistics.median(spans) if spans else 0.0)
    classes = {"timeout": 0, "connection_lost": 0, "serving_error": 0,
               "wrong_reply": 0}
    for outcome in m.requests:
        if outcome.error is not None:
            key = outcome.error.split(".")[0]
            classes[key if key in classes else "serving_error"] += 1
    for key, count in classes.items():
        metrics[f"serving.client.failed_{key}"] = float(count)
    metrics["serving.client.reconnects"] = float(m.reconnects)

    before, after = m.stats_before, m.stats_after
    server_p50 = 1e3 * (after.get("latency_p50_seconds") or 0.0)
    metrics["serving.server_p50_ms"] = server_p50
    metrics["serving.server_p99_ms"] = 1e3 * (
        after.get("latency_p99_seconds") or 0.0)
    client_p50 = 1e3 * statistics.median(all_ok_spans) if all_ok_spans else 0.0
    metrics["serving.transport_p50_ms"] = (
        client_p50 - server_p50 if all_ok_spans else 0.0)
    for key in ("fast_path_requests", "pool_path_requests",
                "coalesced_requests", "coalesced_batches", "errors"):
        metrics[f"serving.{key}"] = float(after.get(key, 0) - before.get(key, 0))
    batches = metrics["serving.coalesced_batches"]
    metrics["serving.coalesce_mean_batch"] = (
        metrics["serving.coalesced_requests"] / batches if batches else 0.0)
    metrics["serving.generator_late_p99_ms"] = (
        1e3 * percentile(sorted(m.lateness_s), 99) if m.lateness_s else 0.0)
    return metrics


def per_layer(ctx: Context, m: Measurement) -> Dict[str, float]:
    """Every per-layer metric of one traced workload run."""
    metrics = import_probe(ctx)
    metrics.update(pipeline_probe(ctx))
    metrics.update(kernel_probe(ctx))
    spec_sum = sum(v for k, v in metrics.items() if k.startswith("pipeline.run."))
    metrics["pipeline.cli_overhead_s"] = (
        metrics.pop("pipeline.cli_wall_s")
        - metrics["import.repro_cli_s"] - spec_sum)
    metrics.update(serving_metrics(m, ctx.tracer))
    kernel = _kernel_ms(m.workload, metrics)
    del metrics["corpus_identify_ms"]
    for kind in KINDS:
        p50 = metrics[f"serving.client.{kind}_p50_ms"]
        metrics[f"serving.kernel_share.{kind}"] = (
            kernel[kind] / p50 if kind in kernel and p50 else 0.0)
    ops = [s.span_id for s in ctx.tracer.spans if s.name.startswith("op.")]
    own = self_times(ctx.tracer.spans)
    metrics["trace.generator_self_p50_ms"] = (
        1e3 * statistics.median(own[i] for i in ops) if ops else 0.0)
    limit = LIMIT_S[m.workload]
    metrics["trace.overhead_p50_ms"] = (
        _p50_ms(m.outcomes, limit) - _p50_ms(m.baseline, limit))
    return metrics
