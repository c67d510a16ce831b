"""Reply and artifact verifiers: every output is checked, none trusted.

Served replies are compared field by field with references computed
in-process for the same seed before the clock starts; a mismatch makes
the operation a failure (``wrong_reply``), never a crash.  The artifacts
of the traced run's ``repro run all`` probe are compared with an
in-process serial run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping

import numpy as np

#: Result fields that are wall-clock measurements, not values.
VOLATILE_KEYS = frozenset({"wall_seconds", "build_seconds"})


def reply_matches(reply: Any, expected: Mapping[str, np.ndarray]) -> bool:
    """True when every expected field of ``reply`` equals the reference.

    ``expected`` names the reply attributes to check (``elements`` for
    identify; ``membership`` and ``first_slots`` for membership;
    ``popcounts`` and ``checksums`` for logicnet) — one exact array
    compare each, shapes included.
    """
    for name, want in expected.items():
        got = np.asarray(getattr(reply, name))
        if got.shape != want.shape or not np.array_equal(got, want):
            return False
    return True


def load_results(directory: Path) -> Dict[str, Any]:
    """Experiment name → ``result`` block of each artifact JSON."""
    results = {}
    for path in sorted(directory.glob("*.json")):
        if path.name == "manifest.json":
            continue
        payload = json.loads(path.read_text())
        if payload.get("status") != "ok":
            raise ValueError(f"{path.name}: status {payload.get('status')}")
        results[payload["experiment"]] = payload["result"]
    return results


def result_diffs(want: Any, got: Any, where: str = "") -> List[str]:
    """Paths at which two JSON result trees differ (volatile keys skipped).

    Serial runs of one seed are bit-identical, so numbers compare
    exactly; NaN equals NaN.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        diffs = []
        for key in sorted(set(want) | set(got)):
            if key in VOLATILE_KEYS:
                continue
            if key not in want or key not in got:
                diffs.append(f"{where}/{key}: missing")
            else:
                diffs.extend(result_diffs(want[key], got[key], f"{where}/{key}"))
        return diffs
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(got)} != {len(want)}"]
        diffs = []
        for index, (a, b) in enumerate(zip(want, got)):
            diffs.extend(result_diffs(a, b, f"{where}[{index}]"))
        return diffs
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got):
            return []
    return [] if want == got else [f"{where}: {got!r} != {want!r}"]
