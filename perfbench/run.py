"""Run one benchmark workload against the shipped CLI, client and library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures with tracing off and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` splits the time into an
untraced and a traced phase and prints every per-layer metric instead,
including the tracing overhead.  The human-readable report (machine,
failures by kind and error class, each metric with its unit) precedes
the last line, which is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Inputs and reference answers derive from ``--seed`` and are computed
before any clock starts.  Scratch files live under ``.perfbench/`` and
the spans of a traced run are written to
``.perfbench/trace-<workload>-<seed>.json`` when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _fail(message: str) -> None:
    """Exit non-zero without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _machine() -> str:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return (
        f"cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} commit={commit} "
        f"src_sha256={digest.hexdigest()[:12]}"
    )


def end_to_end(workload: str, m) -> Dict[str, float]:
    """The end-to-end metrics of one untraced measurement."""
    from measure import percentile, ranked_latencies, windowed_percentile
    from workloads import LIMIT_S, TAIL

    limit = LIMIT_S[workload]
    ranked = ranked_latencies(m.outcomes, limit)
    n = len(m.outcomes)
    q, window = TAIL[workload]
    tail = (
        windowed_percentile(m.outcomes, limit, q, window)
        if window is not None
        else percentile(ranked, q)
    )
    return {
        "setup_s": statistics.median(m.setup_s),
        "latency_p50_ms": 1e3 * percentile(ranked, 50),
        "latency_tail_ms": 1e3 * tail,
        "success_ratio": sum(o.ok(limit) for o in m.outcomes) / n,
        "peak_rss_mb": m.peak_rss_mb,
        "cpu_ms_per_op": 1e3 * m.cpu_s / n,
    }


def run_workload(args, name: str, spec: dict) -> Tuple[dict, dict]:
    """Measure one workload; returns ``(summary, metrics)``."""
    import layers
    from measure import Tracer, failure_table
    from workloads import LIMIT_S, TAIL, WORKLOADS, Context

    work = ROOT / ".perfbench" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(
        root=ROOT, work=work, seed=args.seed, seconds=float(args.seconds),
        trace=bool(args.trace), tracer=Tracer(bool(args.trace)),
    )
    try:
        m = WORKLOADS[name](ctx)
        if args.trace:
            metrics = layers.per_layer(ctx, m)
            wanted = spec["per_layer"]
            _write_trace(name, args.seed, ctx, m)
        else:
            metrics = end_to_end(name, m)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [entry["name"] for entry in wanted]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    wrong = sum(1 for o in m.requests or m.outcomes if o.error == "wrong_reply")
    summary = {
        "correct": wrong == 0,
        "attempted": len(m.outcomes),
        "failed": sum(1 for o in m.outcomes if o.error is not None),
    }
    print(
        f"== {name}: {summary['attempted']} operations, "
        f"{summary['failed']} failed, {wrong} wrong; latency limit "
        f"{1e3 * LIMIT_S[name]:g} ms, tail = p{TAIL[name][0]:g}"
        + (f" per {TAIL[name][1]:g} s window" if TAIL[name][1] else "")
    )
    rows = m.outcomes if m.requests is m.outcomes else m.outcomes + m.requests
    for kind, counts in failure_table(rows).items():
        detail = ", ".join(f"{k} {v}" for k, v in counts.items())
        print(f"   {kind}: {detail}")
    print("   set-ups: " + ", ".join(f"{t:.3f} s" for t in m.setup_s))
    if m.lateness_s:
        late = sorted(m.lateness_s)
        print(f"   generator lateness p50 {1e3 * late[len(late) // 2]:.3f} ms, "
              f"max {1e3 * late[-1]:.3f} ms")
    units = {entry["name"]: entry["unit"] for entry in wanted}
    for key in names:
        print(f"   {key:<44s} {metrics[key]:14.6f} {units[key]}")
    return summary, {k: {"value": metrics[k], "unit": units[k]} for k in names}


def _write_trace(name: str, seed: int, ctx, m) -> None:
    """Spans, STATS snapshots and outcomes of a traced run, written once."""
    path = ROOT / ".perfbench" / f"trace-{name}-{seed}.json"
    payload = {
        "workload": name,
        "seed": seed,
        "spans": [s.__dict__ for s in ctx.tracer.spans],
        "stats_before": m.stats_before,
        "stats_after": m.stats_after,
        "outcomes": [o.__dict__ for o in m.outcomes],
        "requests": [o.__dict__ for o in m.requests],
    }
    path.write_text(json.dumps(payload, default=float) + "\n")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known + ["all"]:
        _fail(f"unknown workload {args.workload!r}; choose from {known} or all")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import procs

    procs.become_subreaper()
    print(f"machine: {_machine()}")
    names = known if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {}
    for name in names:
        summary, measured = run_workload(args, name, spec)
        total["correct"] &= summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        if len(names) == 1:
            metrics = measured
        else:
            metrics.update({f"{name}.{k}": v for k, v in measured.items()})
    procs.stop_own_children()
    print(json.dumps({**total, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
