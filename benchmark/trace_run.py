"""The traced run: per-layer metrics, kept apart from the timed run.

The tracer wraps public functions where their callers look them up (for
example `spectral_radius` in the extremal module, which search_max and
compare_candidates call) and records one span per call: name, start, end
and the span that caused it.  Spans stay in memory and are written to
benchmark/out/ when the run ends.  A layer's self time is the time of its
spans less the time covered by their child spans.

Traced passes run in this process, with a reference sample before and
after each, and give the spans only.  Per-operation times come from the
untraced path of the timed run: for spectral-rank and minor-decide a
worker process normalised by the samples taken beside it, for search-n8
the fresh `--version` and enumeration processes.  extremal.search_s, which
has no such path, is the root span of search_max less the cost of the
spans inside it.  bench.trace_overhead_s is the time the spans of one
traced pass add: their number times the measured cost of one span.  The
plain difference between a traced and an untraced pass is smaller than
the run-to-run noise here and often reads negative.  A traced run reports
every per-layer metric; one whose layer the workload does not call reads 0.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import inputs
import oracles
import workloads
from calibrate import Calibrator, scale
from harness import Op, Tally, run_child

import kabminor.extremal as ex
import kabminor.graphs as gr
from kabminor import canonical_form, from_graph6, predict, search_max

OUT = Path(__file__).resolve().parent / "out"

PER_LAYER_UNITS = {
    "cli.startup_ms": "ms",
    "extremal.enumerate_s": "s",
    "extremal.canonical_us": "us",
    "extremal.search_s": "s",
    "graphs.graph6_us": "us",
    "spectral.solve_us.a0": "us",
    "spectral.solve_us.a0.5": "us",
    "spectral.solve_us.a0.9": "us",
    "spectral.self_share": "ratio",
    "minors.expansions": "count",
    "minors.expansions_per_s": "1/s",
    "minors.hard_ms": "ms",
    "minors.small_ms": "ms",
    "minors.star_us": "us",
    "bench.ref_ms": "ms",
    "bench.raw_pass_s": "s",
    "bench.trace_overhead_s": "s",
}

#: traced passes per workload
TRACED_PASSES = {"spectral-rank": 3, "minor-decide": 2, "search-n8": 1}


class Tracer:
    """In-memory spans [name, start, end, parent index] around wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name, fn):
        """fn traced under `name`, or under name(*args) when name is callable."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            label = name(*args, **kwargs) if callable(name) else name
            self.spans.append([label, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()

        return traced

    def patch(self, owner, attr: str, name):
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig))

    def restore(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def self_times(self, first: int = 0) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per span name, over spans[first:]."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans[first:], start=first):
            self_s[name] += (end - start) - covered[i]
            counts[name] += 1
        return self_s, counts

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def span_cost_s(cal: Calibrator, calls: int = 20000) -> float:
    """Normalised seconds one span adds: a traced call of a no-op less a
    plain one, averaged over many calls."""

    def noop():
        return None

    traced = Tracer().wrap("probe", noop)
    before = cal.sample()
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls * scale((before + cal.sample()) / 2)


def _spectral_name(g, alpha, *args, **kwargs) -> str:
    return f"spectral.solve.a{alpha:g}"


def _patch_inner_layers(tracer: Tracer):
    """The graphs and spectral calls made inside search_max and
    compare_candidates, plus the star-minor test of their constraints."""
    tracer.patch(gr.Graph, "to_graph6", "graphs.to_graph6")
    tracer.patch(ex, "from_graph6", "graphs.from_graph6")
    tracer.patch(ex, "spectral_radius", _spectral_name)
    tracer.patch(ex, "star_minor_free", "minors.star_minor_free")


def _traced_pass(ops: list[Op], tally: Tally, cal: Calibrator, tracer: Tracer, root: str):
    """One traced pass over ops, each under a root span named `root`:
    (index of its first span, scale, outputs)."""
    first = len(tracer.spans)
    before = cal.sample()
    outs = []
    _patch_inner_layers(tracer)
    try:
        for op in ops:
            try:
                outs.append((tracer.wrap(root, op.call)(), None))
            except Exception as err:  # a failing operation is counted, not fatal
                outs.append((None, err))
    finally:
        tracer.restore()
    factor = scale((before + cal.sample()) / 2)
    for op, (out, exc) in zip(ops, outs):
        tally.record(op.name, out, exc, op.check)
    return first, factor, [o for o, _ in outs]


def _layer_metrics(tracer: Tracer, first: int, scale: float) -> dict[str, float]:
    self_s, counts = tracer.self_times(first)
    out = {}
    trips = counts["graphs.from_graph6"]
    if trips:
        out["graphs.graph6_us"] = 1e6 * scale * (self_s["graphs.to_graph6"] + self_s["graphs.from_graph6"]) / trips
    spectral = 0.0
    for alpha in inputs.SPECTRAL_ALPHAS:
        name = f"spectral.solve.a{alpha:g}"
        if counts[name]:
            out[f"spectral.solve_us.a{alpha:g}"] = 1e6 * scale * self_s[name] / counts[name]
            spectral += self_s[name]
    total = sum(end - start for _, start, end, parent in tracer.spans[first:] if parent < 0)
    out["spectral.self_share"] = spectral / total if total else 0.0
    if counts["minors.star_minor_free"]:
        out["minors.star_us"] = 1e6 * scale * self_s["minors.star_minor_free"] / counts["minors.star_minor_free"]
    return out


def _median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*dicts)
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def _traced_passes(workload: str, ops: list[Op], tally: Tally, cal: Calibrator,
                   tracer: Tracer, root: str):
    """The traced passes of a workload: the median per-layer metrics, the
    trace overhead of one pass, and the first pass's span range, scale and
    outputs."""
    layers, spans, passes = [], [], []
    for _ in range(TRACED_PASSES[workload]):
        first, factor, outs = _traced_pass(ops, tally, cal, tracer, root)
        spans.append(len(tracer.spans) - first)
        layers.append(_layer_metrics(tracer, first, factor))
        passes.append((range(first, len(tracer.spans)), factor, outs))
    metrics = _median_of(layers)
    metrics["bench.trace_overhead_s"] = statistics.median(spans) * span_cost_s(cal)
    return metrics, passes[0]


def _traced_in_process(workload: str, seed: int, seconds: float, cal: Calibrator,
                       tally: Tally, tracer: Tracer):
    timings, _ = workloads.timed_worker(workload, seed, seconds, cal, tally)
    ops = workloads.prepare(workload, seed)
    root = "extremal.compare_candidates" if workload == "spectral-rank" else "minors.has_minor"
    metrics, (_, _, outs) = _traced_passes(workload, ops, tally, cal, tracer, root)
    metrics["bench.raw_pass_s"] = timings.pass_s("raw")
    if workload == "minor-decide":
        op_s = {name: statistics.median(t) for name, t in timings.norm.items()}
        hard = len(inputs.HARD_PATTERNS)
        expansions = sum(w.expansions for w in outs if w is not None)
        metrics["minors.expansions"] = expansions
        metrics["minors.expansions_per_s"] = expansions / timings.pass_s()
        metrics["minors.hard_ms"] = 1e3 * statistics.median(op_s[op.name] for op in ops[:hard] if op.name in op_s)
        metrics["minors.small_ms"] = 1e3 * statistics.median(op_s[op.name] for op in ops[hard:] if op.name in op_s)
    return metrics


def _root_times(tracer: Tracer, span_range: range, factor: float, span_s: float) -> list[float]:
    """Normalised seconds of each root span in span_range, less the cost
    of the spans inside it."""
    roots = [i for i in span_range if tracer.spans[i][3] < 0]
    out = []
    for i, nxt in zip(roots, roots[1:] + [span_range.stop]):
        _, start, end, _ = tracer.spans[i]
        out.append((end - start) * factor - (nxt - i - 1) * span_s)
    return out


def _traced_search(seed: int, cal: Calibrator, tally: Tally, tracer: Tracer):
    metrics = {}
    startups = workloads.setup_runs("search-n8", seed, cal, 5)
    metrics["cli.startup_ms"] = 1e3 * statistics.median(n for n, _ in startups)

    here = Path(__file__).resolve().parent
    run = run_child([sys.executable, str(here / "cold_enumerate.py")], workloads.program_env(), cal)
    if run.returncode != 0:
        raise RuntimeError(f"cold enumeration failed: {run.stdout[-500:]}")
    cold = json.loads(run.stdout)
    metrics["extremal.enumerate_s"] = cold["enumerate_s"] * run.scale
    corpus = [from_graph6(g6) for g6 in cold["corpus"]]
    tally.record("enumerate n=8", len(corpus), check=lambda k: None if k == oracles.CONNECTED_ORDER_8
                 else f"{k} connected graphs of order 8, not {oracles.CONNECTED_ORDER_8}")

    before = cal.sample()
    t0 = time.perf_counter()
    for g in corpus:
        canonical_form(g)
    raw = time.perf_counter() - t0
    metrics["extremal.canonical_us"] = 1e6 * raw * scale((before + cal.sample()) / 2) / len(corpus)

    ops = [Op(f"search_max b={b}",
              lambda b=b: search_max(corpus, f"star-minor-free:{b}", 0.5, prediction=predict(1, b, 8, 0.5)),
              lambda rep, b=b: workloads.check_search(b, rep.to_json()),
              items=len(corpus))
           for b in inputs.SEARCH_BS]
    layer, (span_range, factor, _) = _traced_passes("search-n8", ops, tally, cal, tracer, "extremal.search_max")
    metrics.update(layer)
    times = _root_times(tracer, span_range, factor, span_cost_s(cal))
    metrics["extremal.search_s"] = statistics.median(times)
    metrics["bench.raw_pass_s"] = sum(times) / factor
    return metrics


def traced_run(workload: str, seed: int, seconds: float):
    cal = Calibrator()
    tally = Tally()
    tracer = Tracer()
    if workload == "search-n8":
        found = _traced_search(seed, cal, tally, tracer)
    else:
        found = _traced_in_process(workload, seed, seconds, cal, tally, tracer)
    found["bench.ref_ms"] = 1e3 * statistics.median(cal.samples)
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
    metrics = {name: (found.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}
    return tally, metrics, {"spans": len(tracer.spans)}
