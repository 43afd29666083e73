"""The three timed workloads, with their output checks.

search-n8 times fresh CLI processes.  spectral-rank and minor-decide run
their operations in a worker process (run.py --worker) while the run
samples the reference kernel beside it.  Every operation's output is
checked against the oracles; a check that fails, an exception or a
`budget` verdict counts the operation as failed; all but the last make
the run incorrect (see harness.Tally).
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import oracles
from calibrate import REFERENCE_PROCESS, Calibrator, process_scale
from harness import GaveUp, Op, Tally, Timings, normalise, run_child, run_passes

from kabminor import __version__, compare_candidates, complete_bipartite, has_minor

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"

#: fresh processes timed for setup_s in each run; the median is reported
SETUP_REPEATS = 9


def program_env() -> dict[str, str]:
    """Environment for fresh processes: the checkout's sources only."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "kabminor.cli", *args]


def search_args(b: int) -> list[str]:
    return ["search", "--n", "8", "--constraint", f"star-minor-free:{b}",
            "--a", "1", "--b", str(b), "--alpha", "0.5", "--format", "json"]


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------

def check_search(b: int, stdout: str) -> str | None:
    """A `kabminor search --n 8 --constraint star-minor-free:b` report."""
    try:
        rep = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"output is not a JSON report: {stdout[-200:]!r}"
    if rep["corpus"]["count"] != oracles.CONNECTED_ORDER_8:
        return f"corpus count {rep['corpus']['count']} != {oracles.CONNECTED_ORDER_8}"
    if rep["prediction"]["agrees"] is not True:
        return "prediction does not agree with the maximizers"
    if not rep["maximizers"]:
        return "no maximizer"
    for g6 in rep["maximizers"]:
        n, edges = oracles.decode_graph6(g6)
        if n != 8 or not oracles.is_connected(n, edges):
            return f"maximizer {g6} is not a connected graph of order 8"
        if max(oracles.degrees(n, edges)) >= b:
            return f"maximizer {g6} has a vertex of degree >= {b}"
        lam = oracles.alpha_radius(n, edges, 0.5)
        if abs(lam - rep["lambda_max"]) > oracles.LAMBDA_TOL:
            return f"lambda_max {rep['lambda_max']!r} but numpy gives {lam!r} for {g6}"
        if b == 3 and not (oracles.is_cycle(n, edges) and abs(lam - 2.0) <= oracles.LAMBDA_TOL):
            return f"b = 3 maximizer {g6} is not C_8 with lambda 2"
    return None


class RankChecker:
    """Checks compare_candidates rows against the numpy oracle; oracle
    radii are computed once per (graph, alpha)."""

    def __init__(self):
        self._lam: dict[tuple, float] = {}

    def _oracle(self, case: inputs.Case, alpha: float) -> float:
        key = (case.graph.n, case.name, alpha)
        if key not in self._lam:
            self._lam[key] = oracles.alpha_radius(case.graph.n, case.edges, alpha)
        return self._lam[key]

    def __call__(self, group: list[inputs.Case], alpha: float, rows) -> str | None:
        by_name = {c.name: c for c in group}
        if sorted(r["id"] for r in rows) != sorted(by_name):
            return "rows do not match the candidates"
        lams = [r["lambda"] for r in rows]
        if any(x < y for x, y in zip(lams, lams[1:])):
            return "rows are not sorted by descending lambda"
        truth = []
        for r in rows:
            case = by_name[r["id"]]
            lam = self._oracle(case, alpha)
            truth.append(lam)
            if abs(r["lambda"] - lam) > oracles.LAMBDA_TOL:
                return f"{r['id']}: lambda {r['lambda']!r} but numpy gives {lam!r}"
            deg = oracles.regular_degree(case.graph.n, case.edges)
            if deg is not None and abs(r["lambda"] - deg) > oracles.LAMBDA_TOL:
                return f"{r['id']} is {deg}-regular but lambda is {r['lambda']!r}"
        for i, r in enumerate(rows):
            if i + 1 == len(rows):
                if r["strictly_above_next"] is not None:
                    return "last row has a strict-order flag"
                continue
            if r["strictly_above_next"] != (r["gap_to_next"] > oracles.LAMBDA_TOL):
                return f"{r['id']}: flag disagrees with its own gap"
            gap = truth[i] - truth[i + 1]
            # only a gap clearly on one side of the tolerance is decided
            if abs(gap - oracles.LAMBDA_TOL) > 0.1 * oracles.LAMBDA_TOL and \
                    r["strictly_above_next"] != (gap > oracles.LAMBDA_TOL):
                return f"{r['id']}: flag disagrees with the numpy gap {gap!r}"
        return None


class MinorChecker:
    """Checks has_minor verdicts against the brute-force oracle and
    revalidates every witness; oracle verdicts are computed once per input."""

    def __init__(self):
        self._truth: dict[tuple, bool] = {}

    def __call__(self, case: inputs.Case, rs: tuple[int, int], w) -> str | None:
        r, s = rs
        if w.verdict not in ("contains", "free"):
            return f"unknown verdict {w.verdict!r}"
        key = (case.name, rs)
        if key not in self._truth:
            self._truth[key] = oracles.kst_minor(case.graph.n, case.edges, r, s)
        if (w.verdict == "contains") != self._truth[key]:
            return f"verdict {w.verdict} but the brute-force oracle says {self._truth[key]}"
        if w.verdict == "contains" and not oracles.valid_kst_witness(
                case.graph.n, case.edges, r, s, w.branch_sets):
            return "witness does not revalidate"
        return None


# ---------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------

def spectral_ops(seed: int) -> list[Op]:
    checker = RankChecker()
    ops = []
    for name, group in inputs.spectral_groups(seed):
        cands = [(c.name, c.graph) for c in group]
        for alpha in inputs.SPECTRAL_ALPHAS:
            ops.append(Op(
                f"{name}.a{alpha:g}",
                lambda cands=cands, alpha=alpha: compare_candidates(cands, alpha),
                lambda rows, group=group, alpha=alpha: checker(group, alpha, rows),
                items=len(group),
            ))
    return ops


def decide(g, h):
    w = has_minor(g, h)
    if w.verdict == "budget":
        raise GaveUp(f"budget exhausted after {w.expansions} expansions")
    return w


def minor_ops(seed: int) -> list[Op]:
    checker = MinorChecker()
    cases = inputs.minor_cases(seed)
    patterns = {rs: complete_bipartite(*rs) for rs in set(rs for _, rs in cases)}
    return [
        Op(f"{case.name}.K{r},{s}",
           lambda g=case.graph, h=patterns[(r, s)]: decide(g, h),
           lambda w, case=case, rs=(r, s): checker(case, rs, w))
        for case, (r, s) in cases
    ]


#: operations called once during set-up, chosen by name so that the
#: warm-up does the same work whatever the seed: the regular group at each
#: alpha, and one small decision of about 10 ms that finds a witness
WARM_UP = {
    "spectral-rank": tuple(f"regular10.a{alpha:g}" for alpha in inputs.SPECTRAL_ALPHAS),
    "minor-decide": ("g8p0.6.0.K2,4",),
}


def prepare(workload: str, seed: int) -> list[Op]:
    """Inputs, operations and the warm-up calls of WARM_UP: the part of
    set-up that runs in the process making the calls."""
    if workload == "spectral-rank":
        ops = spectral_ops(seed)
    elif workload == "minor-decide":
        ops = minor_ops(seed)
    else:
        raise ValueError(f"no in-process set-up for {workload!r}")
    by_name = {op.name: op for op in ops}
    for name in WARM_UP[workload]:
        by_name[name].call()
    return ops


def worker(workload: str, seed: int, seconds: float) -> dict:
    """The measuring child of an in-process workload: set up, run whole
    passes, and report every timed operation with its tally."""
    tally = Tally()
    records = run_passes(prepare(workload, seed), seconds, tally)
    return {
        "records": records,
        "tally": [tally.attempted, tally.failed, tally.wrong, tally.errors],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


# ---------------------------------------------------------------------
# timed runs
# ---------------------------------------------------------------------

def setup_runs(workload: str, seed: int, cal: Calibrator, repeats: int) -> list[tuple[float, float]]:
    """Normalised and raw CPU seconds of fresh processes that set the
    workload up and stop before the first timed operation, each rescaled
    by the reference process run just before it."""
    env = program_env()
    if workload == "search-n8":
        cmd, expected = cli("--version"), __version__
    else:
        cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
               "--setup-only"]
        expected = "ready"
    out = []
    for _ in range(repeats):
        ref = run_child([sys.executable, *REFERENCE_PROCESS], env, cal)
        run = run_child(cmd, env, cal)
        if ref.returncode != 0 or run.returncode != 0 or run.stdout.strip() != expected:
            raise RuntimeError(f"set-up process failed: {ref.stdout[-500:]}{run.stdout[-500:]}")
        out.append((run.cpu_s * process_scale(ref.cpu_s), run.cpu_s))
    return out


def timed_search_n8(seed: int, seconds: float, cal: Calibrator, tally: Tally):
    """Whole rounds of fresh `kabminor search --n 8` calls, one per b, in
    a seeded order, until `seconds` have gone by."""
    order = list(inputs.SEARCH_BS)
    random.Random(seed).shuffle(order)
    env = program_env()
    timings = Timings()
    start = time.perf_counter()
    while True:
        for b in order:
            run = run_child(cli(*search_args(b)), env, cal)
            if run.returncode != 0:
                tally.record(f"search b={b}", exc=RuntimeError(f"exit {run.returncode}: {run.stdout[-300:]}"))
                continue
            if tally.record(f"search b={b}", run.stdout, check=lambda out, b=b: check_search(b, out)):
                timings.add(f"b={b}", oracles.CONNECTED_ORDER_8, run.cpu_s, run.scale)
        if time.perf_counter() - start >= seconds:
            return timings, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def timed_worker(workload: str, seed: int, seconds: float, cal: Calibrator, tally: Tally):
    """Whole passes of an in-process workload in a worker process, each
    operation normalised by the samples taken while it ran."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--worker"]
    run = run_child(cmd, program_env(), cal)
    if run.returncode != 0:
        raise RuntimeError(f"worker failed: {run.stdout[-2000:]}")
    report = json.loads(run.stdout.strip().splitlines()[-1])
    attempted, failed, wrong, errors = report["tally"]
    tally.attempted += attempted
    tally.failed += failed
    tally.wrong += wrong
    tally.errors += errors
    return normalise(report["records"], run.samples), report["rss_kb"]


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """The end-to-end metrics of one run, normalised, plus their raw values."""
    cal = Calibrator()
    tally = Tally()
    setups = setup_runs(workload, seed, cal, SETUP_REPEATS)
    if workload == "search-n8":
        timings, rss_kb = timed_search_n8(seed, seconds, cal, tally)
    else:
        timings, rss_kb = timed_worker(workload, seed, seconds, cal, tally)
    if not timings.norm:
        return tally, {}, {}
    metrics = {
        "items_per_s": (timings.items_per_s(), "1/s"),
        "op_p50_ms": (timings.op_p50_ms(), "ms"),
        "setup_s": (statistics.median(n for n, _ in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw = {
        "items_per_s": timings.items_per_s("raw"),
        "op_p50_ms": timings.op_p50_ms("raw"),
        "setup_s": statistics.median(r for _, r in setups),
        "pass_s": timings.pass_s("raw"),
        "ref_ms": 1e3 * statistics.median(cal.samples),
        "ops": sum(len(t) for t in timings.norm.values()),
    }
    return tally, metrics, raw
