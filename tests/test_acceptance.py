"""Acceptance suite: nine numbered end-to-end criteria, each printing one
PASS/FAIL line with its runtime against the stated limit.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import time

import networkx as nx
import numpy as np

from kabminor import extremal as ex
from kabminor.extremal import canonical_graph, compare_candidates
from kabminor.graphs import (
    FamilyParams,
    Graph,
    complete,
    cycle,
    disjoint_union,
    join,
    pendant_matching_graph,
    petersen_complement,
    star_forest,
    subdivided_clique,
)
from kabminor.minors import ab_property
from kabminor.spectral import (
    f1_eval,
    f1_threshold_closed,
    f2_eval,
    f2_threshold_closed,
    g_eval,
    h_eval,
    quotient_radius_check,
    spectral_radius,
    subdivided_clique_partition,
    threshold,
    xy_identity_check,
)
from kabminor.verify import alpha_grid

# criterion 3 / 8 payloads are recomputed at higher parallelism by
# criterion 9 and compared byte for byte
_STASH = {}


def _report(num, ok, t0, limit, detail=""):
    elapsed = time.perf_counter() - t0
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / limit {limit}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line
    assert elapsed < limit, line


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_acceptance_1_quotient_equality():
    t0 = time.perf_counter()
    worst = 0.0
    for b in range(3, 9):
        g = subdivided_clique(b, 1)
        part = subdivided_clique_partition(b)
        for alpha in alpha_grid(b):
            _, _, diff = quotient_radius_check(g, alpha, part)
            worst = max(worst, diff)
    _report(1, worst <= 1e-8, t0, 5, f"worst |rho - lambda| = {worst:.2e}")


def test_acceptance_2_lower_bound_and_cubics():
    t0 = time.perf_counter()
    ok = True
    worst_margin = float("inf")
    worst_rel = 0.0
    for b in range(3, 9):
        for alpha in alpha_grid(b):
            x = threshold(b, alpha)
            for n in (b + 1, b + 2, b + 5):
                lam = spectral_radius(subdivided_clique(b, n - b), alpha).lam
                worst_margin = min(worst_margin, lam - x)
                ok &= lam > x
            for f, closed in ((f1_eval, f1_threshold_closed),
                              (f2_eval, f2_threshold_closed)):
                direct, ref = f(b, alpha, x), closed(b, alpha)
                rel = abs(direct - ref) / max(1.0, abs(ref))
                worst_rel = max(worst_rel, rel)
                ok &= rel <= 1e-8 and direct < 0
    _report(2, ok, t0, 10,
            f"min margin {worst_margin:.2e}, worst path rel {worst_rel:.2e}")


def _criterion3(jobs):
    cases = []
    for n in range(4, 9):
        target = canonical_graph(cycle(n)).to_graph6()
        for alpha in alpha_grid(3):
            cases.append((3, n, alpha, target))
    for b in (4, 5):
        target = canonical_graph(star_forest(1, b).complement()).to_graph6()
        for alpha in alpha_grid(b):
            cases.append((b, b + 1, alpha, target))
    for n in (6, 7):
        target = canonical_graph(subdivided_clique(4, n - 4)).to_graph6()
        for alpha in (0.4, 0.5, 0.8):
            cases.append((4, n, alpha, target))
    reports = []
    ok = True
    bad = []
    # search_max, with the alpha-independent filter run once per (b, n)
    found = {}
    for b, n, alpha, target in cases:
        constraint = f"star-minor-free:{b}"
        if (b, n) not in found:
            corpus = ex.enumerate_graphs(n, connected_only=True)
            found[b, n] = ex.survivors(corpus, constraint, jobs=jobs), len(corpus)
        passing, size = found[b, n]
        rep = ex.rank_survivors(passing, constraint, alpha, f"internal:n={n}", size,
                                ex.predict(1, b, n, alpha))
        reports.append(rep.to_json())
        if rep.maximizers != (target,):
            ok = False
            bad.append(f"b={b},n={n},alpha={alpha}:{list(rep.maximizers)}")
    return reports, ok, bad


def test_acceptance_3_exhaustive_small_orders():
    t0 = time.perf_counter()
    reports, ok, bad = _criterion3(jobs=1)
    _STASH["c3"] = reports
    _report(3, ok, t0, 300,
            f"{len(reports)} searches, unique expected maximizer in each"
            + (f"; mismatches {bad}" if bad else ""))


def test_acceptance_4_petersen_complement_block():
    t0 = time.perf_counter()
    g = petersen_complement()
    rep = ab_property(g, 3, 8)
    ok = (g.e == 30
          and rep.checked_pairs == ((1, 8), (2, 7), (3, 6))
          and rep.verdicts == ("free", "free", "free")
          and rep.overall)
    _report(4, ok, t0, 600, f"e={g.e}, verdicts={list(rep.verdicts)}")


def test_acceptance_5_edge_lemmas():
    from kabminor.verify import check_edge_lemmas

    t0 = time.perf_counter()
    outs = check_edge_lemmas()
    ok = all(o.status == "pass" for o in outs)
    _report(5, ok, t0, 120,
            "; ".join(f"{o.check_id}={o.status}" for o in outs))


def test_acceptance_6_polynomial_identities():
    t0 = time.perf_counter()
    ok = True
    worst_q = worst_h = 0.0
    for b in range(3, 13):
        for alpha in alpha_grid(b):
            lhs = g_eval(b, alpha, b - 2) - g_eval(b, alpha, 2)
            rhs = (b - 4) * (alpha * b - 1) ** 2
            rel = abs(lhs - rhs) / max(1.0, abs(rhs))
            worst_q = max(worst_q, rel)
            ok &= rel <= 1e-10
    for b in (4, 6):
        for u2 in (2, b - 2):
            g = pendant_matching_graph(b, u2)
            for alpha in alpha_grid(b):
                lam = spectral_radius(g, alpha).lam
                rel = abs(h_eval(b, alpha, u2, lam) - g_eval(b, alpha, u2))
                rel /= max(1.0, abs(g_eval(b, alpha, u2)))
                worst_h = max(worst_h, rel)
                ok &= rel <= 1e-8
    _report(6, ok, t0, 10,
            f"quadratic rel {worst_q:.2e}, cubic-at-radius rel {worst_h:.2e}")


def _random_connected(rng, n, p=0.45):
    while True:
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        if g.is_connected():
            return g


def test_acceptance_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260826)
    ok = True
    results = []  # every SpectralResult produced here

    def lam_of(g, alpha):
        res = spectral_radius(g, alpha)
        results.append(res)
        return res.lam

    # strict monotonicity under proper connected subgraphs, 200 pairs
    done = 0
    while done < 200:
        n = int(rng.integers(5, 9))
        g = _random_connected(rng, n)
        edges = g.edges()
        u, v = edges[int(rng.integers(len(edges)))]
        h = g.delete_edge(u, v)
        if not h.is_connected():
            continue
        alpha = float(rng.choice(alpha_grid()))
        ok &= lam_of(h, alpha) < lam_of(g, alpha)
        done += 1

    # rewiring toward the heavier Perron coordinate raises the radius, 50
    done = 0
    while done < 50:
        n = int(rng.integers(6, 9))
        g = _random_connected(rng, n, 0.35)
        alpha = float(rng.choice(alpha_grid()))
        res = spectral_radius(g, alpha)
        results.append(res)
        x = res.vector
        u, v = sorted(rng.choice(n, size=2, replace=False),
                      key=lambda w: -x[int(w)])
        u, v = int(u), int(v)
        if not g.has_edge(u, v):
            continue
        movable = [w for w in g.neighbors(v) if w != u and not g.has_edge(u, w)]
        if not movable:
            continue
        h = g
        for w in movable:
            h = h.delete_edge(v, w).add_edge(u, w)
        ok &= lam_of(h, alpha) > res.lam
        done += 1

    # dot-product identity between Perron pairs, 100 pairs
    worst_xy = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 9))
        g = _random_connected(rng, n)
        h = _random_connected(rng, n)
        alpha = float(rng.choice(alpha_grid()))
        worst_xy = max(worst_xy, xy_identity_check(g, h, alpha))
    ok &= worst_xy <= 1e-7

    worst_res = max(r.residual for r in results)
    ok &= worst_res <= 1e-10
    _report(7, ok, t0, 120,
            f"xy worst {worst_xy:.2e}, residual worst {worst_res:.2e}, "
            f"{len(results)} spectral results")


def test_acceptance_8_moderate_n_comparison_report():
    t0 = time.perf_counter()
    comparisons = 0
    notes = []
    consistent = True
    for n in range(8, 13):
        p = FamilyParams(2, 3, n)
        k, t = p.k, p.t
        blocks = [complete(3)] * k + ([complete(t)] if t else [])
        a_graph = join(complete(1), disjoint_union(blocks))
        blocks = ([complete(3)] * (k - t)
                  + [disjoint_union([complete(3), complete(1)])] * t)
        b_graph = join(complete(1), disjoint_union(blocks))
        iso = nx.is_isomorphic(to_nx(a_graph), to_nx(b_graph))
        for alpha in (0.0, 0.3, 0.5, 0.8):
            rows = compare_candidates(
                [("apex-cliques", a_graph), ("split-variant", b_graph)], alpha)
            comparisons += 1
            top = rows[0]
            if iso:
                this_ok = not top["strictly_above_next"]
            else:
                this_ok = (top["id"] == "apex-cliques"
                           and top["strictly_above_next"])
            if not this_ok:
                consistent = False
                notes.append(f"inversion n={n},alpha={alpha},"
                             f"top={top['id']},gap={top['gap_to_next']:.3e}")
            elif iso:
                notes.append(f"n={n},alpha={alpha}: tie (isomorphic candidates)")
            else:
                notes.append(f"n={n},alpha={alpha}: gap={top['gap_to_next']:.3e}")
    for n in notes:
        print("  " + n)
    # report-only: inversions are logged above, never a failure
    _report(8, True, t0, 60,
            f"{comparisons} comparisons, theorem-consistent={consistent}")


def test_acceptance_9_determinism_across_jobs():
    t0 = time.perf_counter()
    r3, _, _ = _criterion3(jobs=8)
    ok = r3 == _STASH["c3"]

    # same at the CLI, with the honest config.jobs field set aside
    from kabminor.cli import main
    import contextlib
    import io

    outs = []
    for jobs in ("1", "8"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["search", "--constraint", "star-minor-free:3",
                         "--n", "7", "--alpha", "0.5", "--jobs", jobs,
                         "--format", "json"])
        assert code == 0
        data = json.loads(buf.getvalue())
        del data["config"]["jobs"]
        outs.append(json.dumps(data, sort_keys=True))
    ok &= outs[0] == outs[1]
    _report(9, ok, t0, 400, "library reports and CLI output byte-identical")
