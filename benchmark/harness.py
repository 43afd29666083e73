"""Timing machinery shared by the workloads: CPU pinning, fresh
processes timed beside reference samples, and their normalisation.

All timed work runs in a fresh process: a CLI call, a set-up, or a worker
that repeats a workload's operations.  While it runs, a thread of this
process samples the reference kernel every SAMPLE_EVERY_S on the same
(pinned) CPU, and the child's CPU time is rescaled by the samples taken
beside it: for a CLI call or a set-up by all of them, for a worker's
operation by those taken while that operation ran.  Samples from another
CPU, or taken only between operations, track the drift the work sees less
well.
"""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from calibrate import Calibrator, scale

SAMPLE_EVERY_S = 0.1


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Op:
    """One timed operation: call() returns an output that check(output)
    judges, returning None when it is correct or a reason when not."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    items: int = 1


class GaveUp(RuntimeError):
    """The operation gave no answer, though nothing it said was wrong
    (has_minor's `budget` verdict)."""


@dataclass
class Tally:
    """Operations attempted and failed.  A failed operation is `wrong`
    when its output fails a check or it raises anything but GaveUp (a
    crash, or the program's own assertion on its result); it is one of
    the `errors` when it gave up.  A run is correct when nothing is wrong."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def record(self, name: str, output: Any = None, exc: BaseException | None = None,
               check: Callable[[Any], str | None] | None = None) -> bool:
        """Count one operation; True when it passed."""
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            where = self.errors if isinstance(exc, GaveUp) else self.wrong
            where.append(f"{name}: {type(exc).__name__}: {exc}")
            return False
        try:
            reason = check(output) if check else None
        except Exception as err:  # output too malformed to check
            reason = f"check raised {type(err).__name__}: {err}"
        if reason is not None:
            self.failed += 1
            self.wrong.append(f"{name}: {reason}")
            return False
        return True


@dataclass
class Timings:
    """Per-operation normalised and raw seconds, in attempt order."""

    norm: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)

    def add(self, op_name: str, items: int, raw_s: float, scale: float):
        self.norm.setdefault(op_name, []).append(raw_s * scale)
        self.raw.setdefault(op_name, []).append(raw_s)
        self.items[op_name] = items

    def items_per_s(self, which: str = "norm") -> float:
        """Items of one pass over the time of a pass built from each
        operation's median, so a stall in one round moves nothing."""
        times = getattr(self, which)
        return sum(self.items.values()) / sum(statistics.median(t) for t in times.values())

    def op_p50_ms(self, which: str = "norm") -> float:
        """The median operation's time, each operation taken at its median."""
        return 1e3 * statistics.median(statistics.median(t) for t in getattr(self, which).values())

    def pass_s(self, which: str = "norm") -> float:
        return sum(statistics.median(t) for t in getattr(self, which).values())


def run_passes(ops: list[Op], seconds: float, tally: Tally) -> list[list]:
    """Worker side: repeat whole passes over ops until `seconds` have gone
    by.  An operation is timed by the CPU time of this thread, so reference
    samples taken beside it on the same CPU do not count, and its
    wall-clock interval is kept to find those samples.  Checks run between
    operations, outside every interval.  Returns [name, items, start, end,
    cpu seconds] for each operation that passed."""
    records = []
    start = time.perf_counter()
    while True:
        for op in ops:
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                out, exc = op.call(), None
            except Exception as err:  # a failing operation is counted, not fatal
                out, exc = None, err
            cpu, t1 = time.thread_time() - c0, time.perf_counter()
            if tally.record(op.name, out, exc, op.check):
                records.append([op.name, op.items, t0, t1, cpu])
        if time.perf_counter() - start >= seconds:
            return records


def normalise(records: list[list], samples: list[tuple[float, float]]) -> Timings:
    """Parent side: rescale each operation by the reference samples taken
    while it ran, or by the nearest sample on each side of a short one."""
    stamps = [t for t, _ in samples]
    timings = Timings()
    for name, items, t0, t1, cpu in records:
        lo, hi = bisect.bisect_left(stamps, t0), bisect.bisect_right(stamps, t1)
        refs = [r for _, r in samples[lo:hi]] or [samples[i][1] for i in (lo - 1, lo) if 0 <= i < len(samples)]
        timings.add(name, items, cpu, scale(statistics.mean(refs)))
    return timings


@dataclass
class ChildRun:
    stdout: str
    returncode: int
    cpu_s: float  # user + system CPU time of the child
    samples: list[tuple[float, float]]  # (time, reference seconds) while it ran

    @property
    def scale(self) -> float:
        return scale(statistics.mean(r for _, r in self.samples))


def run_child(cmd: list[str], env: dict[str, str], cal: Calibrator) -> ChildRun:
    """Run a fresh process to completion while sampling the reference
    kernel beside it; its CPU time comes from this process's child usage."""
    samples = []
    stop = threading.Event()

    def take():
        t0 = time.perf_counter()
        ref = cal.sample()
        samples.append(((t0 + time.perf_counter()) / 2, ref))

    def sampler():
        while not stop.wait(SAMPLE_EVERY_S):
            take()

    take()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        thread = threading.Thread(target=sampler)
        thread.start()
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            raise
        finally:
            stop.set()
            thread.join()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        out = out + err
    return ChildRun(out, proc.returncode, cpu, samples)
