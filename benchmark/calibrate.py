"""Reference kernel and the normalisation built on it.

The host under this benchmark drifts: the same CPU-bound call can run 30%
slower a few seconds later, in the same process or in a fresh one.  The
benchmark therefore times this fixed kernel beside every piece of timed
work and rescales each timing to the kernel's nominal duration:

    normalised = raw * NOMINAL_S / (reference time beside the work)

A normalised time is still in seconds: the time the work would take on a
host that runs the kernel in exactly NOMINAL_S.

The kernel imports nothing from kabminor and must stay frozen: editing it,
or NOMINAL_S, rescales every normalised figure and breaks comparisons with
earlier runs.  Its two halves mirror what the program spends time on:
Python int and dict work (canonical forms, minor search, graph6) and small
numpy matrix-vector products (power iteration).
"""

from __future__ import annotations

import time

import numpy as np

#: nominal duration of reference_time(), near its time in the reference
#: machine's slow state (2 vCPUs, Python 3.11.7, numpy 2.4.6); fixed
NOMINAL_S = 0.004

_MATRIX = np.ones((10, 10)) / 10 + np.eye(10)


def _int_dict_work() -> int:
    x = 0x9E3779B97F4A7C15
    table: dict[int, int] = {}
    acc = 0
    for _ in range(3000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x >> 54
        table[key] = table.get(key, 0) + (x & 0xFFFF).bit_count()
        acc ^= x & (x >> 7)
    return acc + len(table)


def _numpy_work() -> float:
    v = np.ones(10)
    for _ in range(300):
        v = _MATRIX @ v
        v = v / np.linalg.norm(v)
    return float(v[0])


def _fastest(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(ref_s: float) -> float:
    """Factor that rescales a raw time taken while the kernel ran in ref_s."""
    return NOMINAL_S / ref_s


#: arguments of the reference process, a fresh interpreter that imports
#: numpy and nothing of kabminor.  The CPU time of a fresh process's start
#: follows the host's cost of exec, page faults and imports, which the
#: kernel above does not track: over ten runs, the median of nine set-ups
#: spread by 0.20-0.26 rescaled by the kernel, 0.03-0.04 raw and 0.02-0.03
#: rescaled by this process run just before each.  Frozen like the kernel.
REFERENCE_PROCESS = ("-c", "import numpy")

#: nominal CPU time of the reference process on the reference machine; fixed
NOMINAL_PROCESS_S = 0.19


def process_scale(ref_cpu_s: float) -> float:
    """Factor that rescales the CPU time of a fresh process started just
    after a reference process that took ref_cpu_s."""
    return NOMINAL_PROCESS_S / ref_cpu_s


def reference_time() -> float:
    """One raw reference sample in seconds: the fastest of three runs of
    each half, summed, so a single preemption does not count."""
    return _fastest(_int_dict_work) + _fastest(_numpy_work)


class Calibrator:
    """Keeps every raw reference sample of a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        t = reference_time()
        self.samples.append(t)
        return t
