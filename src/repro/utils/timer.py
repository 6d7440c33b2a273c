"""The one wall-clock seam of the package.

The paper reports wall-clock search cost in Table IV and the expression-error
algorithm cost in Figure 16; :func:`wall_clock` is the clock read behind those
measurements and every other elapsed-time figure.
"""

from __future__ import annotations

import time


def wall_clock() -> float:
    """The sanctioned wall-clock read (monotonic, fractional seconds).

    Every latency/elapsed-time measurement outside this module must go
    through this seam instead of calling ``time.*`` directly — the DET001
    lint rule enforces it.  Funnelling the reads through one function keeps
    the deterministic layers provably clock-free and gives replay/test
    harnesses a single monkeypatch point.
    """
    return time.perf_counter()
