"""Machine-speed probe, used to normalise wall times on a shared host.

On the shared 2-vCPU VM the benchmark was built on, other tenants slow every
process by up to 2x, in phases that last from seconds to minutes.  Process CPU
time equals wall time throughout, so the process is not descheduled: the
cores themselves run slower.  A 20-second run mostly measures which phase it
fell in.  The probe below does a fixed amount of work of the kinds lqnash
does (interpreted Python loops, small-matrix numpy calls, JSON encoding and
parsing) and uses no lqnash code, so a change to the program cannot change
it.  Timed next to the program, it measures how fast the machine is at that
moment, and ``program time * REFERENCE_S / probe time`` is the program's time
on a machine that runs the probe in ``REFERENCE_S``.
"""
from __future__ import annotations

import json
import time

import numpy as np

# The probe's wall time in a fast phase of the machine the benchmark was
# built on, so that normalised times read close to wall times there.
REFERENCE_S = 0.14

_MATRIX = np.full((8, 8), 0.1)
_DOC = {"stages": [{"A": [[0.1 * (i + j) for j in range(8)] for i in range(8)], "t": t} for t in range(40)]}


def probe() -> float:
    """Wall seconds of the fixed probe work, about REFERENCE_S when the machine is fast."""
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    for _ in range(24_000):
        _MATRIX @ _MATRIX + _MATRIX
    for _ in range(24):
        json.loads(json.dumps(_DOC))
    return time.perf_counter() - start


def normalised(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` at reference speed, judged by the probes on either side of it."""
    return seconds * REFERENCE_S * 2 / (probe_before + probe_after)
