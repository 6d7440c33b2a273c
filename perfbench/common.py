"""Shared pieces of the benchmark: paths, statistics, set-up probes, results."""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Span dumps of traced runs (ignored by git).
OUT_DIR = BENCH_DIR / ".out"

#: The workload seed whose outputs the committed reference pins.
DEFAULT_SEED = 7

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Percentiles a tail may be reported at, highest last.
_TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def use_source_tree() -> None:
    """Import the program from the checkout's ``src/`` (no install needed)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def reference() -> Dict:
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def spans_path(workload: str, seed: int) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    return str(OUT_DIR / f"spans-{workload}-{seed}.jsonl")


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)`` at the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    chosen = _TAIL_CANDIDATES[0]
    for pct in _TAIL_CANDIDATES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            chosen = pct
    return chosen, percentile(values, chosen)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload: str, seed: int) -> List[float]:
    """Wall seconds of :data:`SETUP_REPEATS` fresh processes doing set-up.

    Each probe is a new interpreter that imports the program and builds the
    workload's inputs (see ``probe.py``), so import time is paid every time,
    as a user starting the tool pays it.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            check=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return samples


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: The four registered end-to-end metrics.
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Every metric by the issue's name: ``name -> (value, unit)``.
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Record a failed correctness check (it counts as a failed operation)."""
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok

    def name(self, metric: str, value: float, unit: str) -> None:
        self.named[metric] = (value, unit)


def fmt(value: float) -> str:
    return f"{value:.6g}"
