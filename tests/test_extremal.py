"""Canonical forms, enumeration, prediction, search, comparison."""

import functools
import hashlib
import itertools
import json
import multiprocessing
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from kabminor import extremal, minors
from kabminor.minors import BudgetExhausted, star_certificate
from kabminor.extremal import (
    CAVEAT_SMALL_B,
    CONNECTED_GRAPH_COUNTS,
    GRAPH_COUNTS,
    CANONICAL_MAX_N,
    InternalCorpus,
    _canonical_search,
    _extend,
    _filter,
    _refine,
    _stable_partition,
    canonical_form,
    canonical_graph,
    compare_candidates,
    enumerate_graphs,
    ingest_graph6,
    parse_constraint,
    predict,
    search_max,
    survivors,
)
from kabminor.graphs import (
    CLAUSE_APEX_CLIQUES,
    CLAUSE_APEX_F_BLOCK,
    CLAUSE_APEX_PETERSEN,
    CLAUSE_APEX_STAR_FORESTS,
    CLAUSE_OUTSIDE,
    CLAUSE_STAR_FOREST,
    CLAUSE_SUBDIVIDED,
    complete,
    cycle,
    disjoint_union,
    from_edges,
    from_graph6,
    Graph,
    _renumbered,
    _twin_classes,
    join,
    path_graph,
    petersen_complement,
    star,
    star_forest,
    subdivided_clique,
)
from kabminor.spectral import spectral_radii


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_canonical_form_labelings():
    c = cycle(4)
    relab = c.relabel([2, 0, 3, 1])
    assert canonical_form(c) == canonical_form(relab)
    assert canonical_form(c) != canonical_form(path_graph(4))


def test_canonical_form_distinct_on_n4():
    forms = {canonical_form(g) for g in enumerate_graphs(4)}
    assert len(forms) == 11


def test_canonical_graph_is_isomorphic_relabeling():
    g = subdivided_clique(5, 2)
    cg = canonical_graph(g)
    assert nx.is_isomorphic(to_nx(g), to_nx(cg))
    assert canonical_form(g) == canonical_form(cg)


def test_canonical_form_matches_networkx_oracle():
    rng = np.random.default_rng(4)
    corpus = enumerate_graphs(6)
    for _ in range(60):
        i, j = rng.integers(len(corpus), size=2)
        gi, gj = corpus[i], corpus[j]
        same = canonical_form(gi) == canonical_form(gj)
        assert same == nx.is_isomorphic(to_nx(gi), to_nx(gj))


def test_canonical_form_order_bounds():
    # the empty graph has its own code, and orders above 10 are refused
    empty = Graph(0, ())
    assert canonical_form(empty) == b"\x00"
    assert canonical_graph(empty) == empty
    for fn in (canonical_form, canonical_graph):
        with pytest.raises(ValueError, match="up to n = 10"):
            fn(cycle(11))


def test_canonical_form_random_permutations():
    rng = np.random.default_rng(8)
    for g in [petersen_complement(), subdivided_clique(6, 3),
              join(complete(1), disjoint_union([complete(3), complete(4)]))]:
        base = canonical_form(g)
        for _ in range(5):
            perm = [int(v) for v in rng.permutation(g.n)]
            assert canonical_form(g.relabel(perm)) == base


def test_enumeration_counts():
    for n in range(1, 9):
        assert len(enumerate_graphs(n)) == GRAPH_COUNTS[n - 1]
        assert len(enumerate_graphs(n, connected_only=True)) == CONNECTED_GRAPH_COUNTS[n - 1]
    with pytest.raises(ValueError):
        enumerate_graphs(9)


def _unpruned_augmentation(n, prev):
    """Every one-vertex extension of every graph in prev, deduplicated by
    canonical form and listed canonically labelled in code order."""
    seen = {}
    for g in prev:
        for mask in range(1 << (n - 1)):
            rows = [r | (mask >> v & 1) << (n - 1) for v, r in enumerate(g.rows)]
            child = Graph(n, tuple(rows) + (mask,))
            code = canonical_form(child)
            if code not in seen:
                seen[code] = canonical_graph(child)
    return [seen[c] for c in sorted(seen)]


def test_enumeration_matches_unpruned_augmentation():
    prev = [Graph(1, (0,))]
    assert enumerate_graphs(1) == prev
    for n in range(2, 8):
        prev = _unpruned_augmentation(n, prev)
        assert enumerate_graphs(n) == prev


def test_enumeration_order_eight_is_canonical():
    corpus = enumerate_graphs(8)
    forms = {canonical_form(g) for g in corpus}
    assert len(forms) == len(corpus)
    assert all(canonical_graph(g) == g for g in corpus)


def test_enumeration_digest_matches_reference():
    # every graph of order 1..8 as graph6, in enumeration order: pins the
    # canonical labellings and their order, not only the classes
    text = "\n".join(g.to_graph6() for n in range(1, 9) for g in enumerate_graphs(n))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "563803813ceb64f2aa37199de9edcc1b0964e5f39fe227f0b2a75ec2fb20cc9a"


def _refine_all_cells(rows, cells):
    """Reference colour refinement: each round counts every vertex's
    neighbours in every cell, and splits cells by those tuples."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new_cells = []
        for c in cells:
            groups = {}
            for v in c:
                groups.setdefault(tuple((rows[v] & m).bit_count() for m in masks), []).append(v)
            new_cells.extend(groups[sig] for sig in sorted(groups))
        if len(new_cells) == len(cells):
            return new_cells
        cells = new_cells


def test_incremental_refinement_matches_all_cells():
    def walk(rows, cells):
        # individualise every vertex of the first non-singleton cell, and
        # descend where the canonical search does
        tgt = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if tgt is None:
            return
        cell = cells[tgt]
        refined = {}
        for v in cell:
            split = cells[:tgt] + [[v], [u for u in cell if u != v]] + cells[tgt + 1:]
            refined[v] = _refine(rows, split, [1 << v, sum(1 << u for u in cell) ^ 1 << v])
            assert refined[v] == _refine_all_cells(rows, split)
        for cls in _twin_classes(rows, cell):
            walk(rows, refined[cls[0]])

    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for rows in (g.rows, g.relabel([n - 1 - v for v in range(n)]).rows):
                by_deg = {}
                for v, r in enumerate(rows):
                    by_deg.setdefault(r.bit_count(), []).append(v)
                cells = _stable_partition(rows)
                assert cells == _refine_all_cells(rows, [by_deg[d] for d in sorted(by_deg)])
                walk(rows, cells)


def _refine_every_fragment(rows, cells, fresh):
    """Reference refinement with full signatures: every fragment of a
    split cell is fresh, the last one too."""
    while fresh:
        new_cells = []
        split = []
        for c in cells:
            if len(c) > 1:
                groups = {}
                for v in c:
                    r = rows[v]
                    sig = 0
                    for m in fresh:
                        sig = sig << 4 | (r & m).bit_count()
                    groups.setdefault(sig, []).append(v)
                if len(groups) > 1:
                    for sig in sorted(groups):
                        new_cells.append(groups[sig])
                        split.append(sum(1 << v for v in groups[sig]))
                    continue
            new_cells.append(c)
        cells, fresh = new_cells, split
    return cells


def test_trimmed_refinement_matches_full_signatures(monkeypatch):
    # _refine leaves out the last fragment of each split cell (and the
    # last degree cell, and the rest of an individualised cell); the
    # reference counts into every cell of the partition it is given
    rng = np.random.default_rng(15)
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    for n in range(2, CANONICAL_MAX_N + 1):
        for _ in range(40):
            p = rng.uniform(0.2, 0.8)
            g = from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            graphs += [g, g.relabel([int(v) for v in rng.permutation(n)])]

    def outputs():
        return [(_stable_partition(g.rows), canonical_form(g), canonical_graph(g)) for g in graphs]

    trimmed = outputs()
    monkeypatch.setattr(extremal, "_refine", lambda rows, cells, fresh: _refine_every_fragment(
        rows, cells, [sum(1 << v for v in c) for c in cells]))
    assert trimmed == outputs()


def test_connected_extension_is_the_filtered_extension():
    # skipping masks that miss a component of the parent drops exactly
    # the disconnected children
    for n in range(2, 9):
        parents = enumerate_graphs(n - 1)
        assert _extend(parents, n, connected_only=True) == [g for g in enumerate_graphs(n) if g.is_connected()]


def test_enumeration_no_isomorphic_duplicates():
    corpus = enumerate_graphs(5)
    for gi, gj in itertools.combinations(corpus, 2):
        assert not nx.is_isomorphic(to_nx(gi), to_nx(gj))


def test_ingest_graph6(tmp_path):
    corpus = enumerate_graphs(5)
    f = tmp_path / "corpus.g6"
    f.write_text("".join(g.to_graph6() + "\n" for g in corpus))
    back = ingest_graph6(str(f))
    assert [g.rows for g in back] == [g.rows for g in corpus]
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert ingest_graph6(str(empty)) == []
    bad = tmp_path / "bad.g6"
    bad.write_text("C~\nC\x1f!\n")
    with pytest.raises(ValueError, match=":2:"):
        ingest_graph6(str(bad))


def test_predict_clauses():
    p = predict(1, 3, 7, 0.5)
    assert p.clause == CLAUSE_SUBDIVIDED
    assert nx.is_isomorphic(to_nx(p.graph), to_nx(cycle(7)))
    p = predict(1, 5, 6, 0.2)
    assert p.clause == CLAUSE_STAR_FOREST
    assert nx.is_isomorphic(to_nx(p.graph), to_nx(star_forest(1, 5).complement()))
    p = predict(2, 5, 18, 0.4)
    assert p.clause == CLAUSE_APEX_F_BLOCK and p.params.k == 3 and p.params.t == 2
    p = predict(2, 3, 8, 0.3)
    assert p.clause == CLAUSE_APEX_CLIQUES and p.graph.e == 13
    p = predict(4, 8, 21, 0.5)
    assert p.clause == CLAUSE_APEX_PETERSEN
    p = predict(1, 8, 61, 0.5)
    assert p.clause == CLAUSE_SUBDIVIDED and p.graph.n == 61
    p = predict(2, 5, 17, 0.3)  # k=3, t=1, tau=2 -> star-forest complements
    assert p.clause == CLAUSE_APEX_STAR_FORESTS
    with pytest.raises(ValueError):
        predict(3, 2, 5, 0.1)


def test_predict_outside_clauses():
    p = predict(1, 4, 6, 0.1)  # alpha below the window for b >= 4
    assert p.clause == CLAUSE_OUTSIDE and p.graph is None and "alpha" in p.caveat
    p = predict(1, 4, 7, 0.5)
    assert p.clause == CLAUSE_SUBDIVIDED
    p = predict(2, 5, 8, 0.3)  # k=1 < t... decomposition 7=1*5+2, t=tau=2, k=1 ok
    assert p.clause == CLAUSE_APEX_F_BLOCK


def test_predict_a1_small_b_is_outside():
    # no a = 1 clause covers b <= 2, at any alpha or order
    for b in (1, 2):
        for n in (b + 1, 5):
            for alpha in (0.3, 0.7):
                p = predict(1, b, n, alpha)
                assert p.clause == CLAUSE_OUTSIDE and p.graph is None
                assert p.caveat == CAVEAT_SMALL_B


def test_predict_large_n_caveat():
    assert predict(2, 3, 8, 0.3).caveat != ""
    assert predict(1, 3, 8, 0.3).caveat == ""


def test_predict_order_and_apex_shape():
    for a, b, n in [(2, 3, 8), (2, 5, 18), (3, 4, 12), (1, 4, 5)]:
        p = predict(a, b, n, 0.5)
        assert p.graph.n == n
        assert p.graph.degrees().count(n - 1) >= a - 1


def test_predicted_apex_edge_count_formula():
    for a, b, n in [(2, 3, 8), (3, 4, 14), (2, 4, 11)]:
        p = predict(a, b, n, 0.5)
        if p.clause != CLAUSE_APEX_CLIQUES:
            continue
        k, t = p.params.k, p.params.t
        expected = ((a - 1) * (a - 2) // 2 + (a - 1) * (k * b + t)
                    + k * b * (b - 1) // 2 + t * (t - 1) // 2)
        assert p.graph.e == expected


def test_parse_constraint():
    assert parse_constraint("star-minor-free:3") == ("star-minor-free", (3,))
    assert parse_constraint("kab-minor-free:2,5") == ("kab-minor-free", (2, 5))
    assert parse_constraint("ab-property:2,4") == ("ab-property", (2, 4))
    for bad in ("star-minor-free", "kab-minor-free:5,2", "nope:1", "K:x"):
        with pytest.raises(ValueError):
            parse_constraint(bad)
    for bad in ("star-minor-free:0", "star-minor-free:-2", "kab-minor-free:0,3"):
        with pytest.raises(ValueError, match=bad):
            parse_constraint(bad)


def test_search_small_orders():
    rep = search_max(enumerate_graphs(6, True), "star-minor-free:3", 0.5,
                     prediction=predict(1, 3, 6, 0.5))
    assert rep.maximizers == (canonical_graph(cycle(6)).to_graph6(),)
    assert abs(rep.lambda_max - 2) < 1e-9
    assert rep.prediction_agrees
    rep = search_max(enumerate_graphs(4, True), "star-minor-free:3", 0.3)
    assert rep.maximizers == (canonical_graph(cycle(4)).to_graph6(),)
    rep = search_max(enumerate_graphs(5, True), "star-minor-free:4", 0.0,
                     prediction=predict(1, 4, 5, 0.0))
    assert rep.prediction_agrees and len(rep.maximizers) == 1


def test_search_maximizers_satisfy_constraint():
    from kabminor.minors import star_minor_free
    from kabminor.graphs import from_graph6

    rep = search_max(enumerate_graphs(6, True), "star-minor-free:4", 0.2)
    for g6 in rep.maximizers:
        assert star_minor_free(from_graph6(g6), 4)


def test_search_deterministic_across_jobs():
    # two disconnected graphs, one of them labelled, beside connected unlabelled ones
    corpus = enumerate_graphs(6, True) + [disjoint_union([cycle(3), complete(3)]),
                                          disjoint_union([star(2), cycle(3)])]
    r1 = search_max(corpus, "star-minor-free:3", 0.5, jobs=1)
    for jobs in (2, 4):
        assert search_max(corpus, "star-minor-free:3", 0.5, jobs=jobs).to_json() == r1.to_json()
    decoded = [from_graph6(g.to_graph6()) for g in corpus]
    assert search_max(decoded, "star-minor-free:3", 0.5).to_json() == r1.to_json()


def test_search_invariant_under_relabeling():
    rng = np.random.default_rng(17)
    corpus = enumerate_graphs(5, True)
    shuffled = [g.relabel([int(v) for v in rng.permutation(g.n)]) for g in corpus]
    r1 = search_max(corpus, "star-minor-free:4", 0.4)
    r2 = search_max(shuffled, "star-minor-free:4", 0.4)
    assert r1.maximizers == r2.maximizers
    assert abs(r1.lambda_max - r2.lambda_max) < 1e-12


def test_search_budget_abort():
    aborting = join(complete(2), cycle(8))
    for jobs in (1, 2):
        with pytest.raises(BudgetExhausted) as exc:
            search_max([complete(3), aborting], "kab-minor-free:3,4", 0.1, budget=3, jobs=jobs)
        assert exc.value.graph6 == aborting.to_graph6()


def test_survivors_split_in_corpus_order_across_jobs():
    corpus = enumerate_graphs(6, True) + [join(complete(2), cycle(8))]
    passing, undecided = _filter(corpus, "kab-minor-free:2,3", budget=3)
    assert passing and undecided
    rank = {g: i for i, g in enumerate(corpus)}
    for part in (passing, undecided):
        assert [rank[g] for g in part] == sorted(rank[g] for g in part)
    for jobs in (2, 3):
        assert _filter(corpus, "kab-minor-free:2,3", budget=3, jobs=jobs) == (passing, undecided)
    free = [g for g in corpus if minors.has_minor(g, minors.complete_bipartite(2, 3)).verdict == "free"]
    assert _filter(corpus, "kab-minor-free:2,3", minors.DEFAULT_BUDGET) == (free, [])
    assert set(passing) <= set(free)


def test_found_minor_decides_over_a_starved_pair():
    # join(K_1, C_8) has a vertex of degree 8, a K_{1,4} minor, so it fails
    # ab-property:2,4 however starved its K_{2,3} search would be
    aborting = join(complete(1), cycle(8))
    assert _filter([aborting], "ab-property:2,4", 3) == ([], [])
    assert survivors([complete(3), aborting], "ab-property:2,4", budget=3) == [complete(3)]
    # the r = 1 pair of a graph too small for the star spends no budget,
    # in the filter as in ab_property
    assert _filter([complete(3)], "ab-property:1,4", 1) == ([complete(3)], [])
    # with no minor found, a starved pair leaves the graph undecided
    undecided = from_graph6("DFw")
    assert _filter([undecided], "ab-property:2,4", 10) == ([], [undecided])


def test_survivors_raise_naming_the_first_undecided_graph():
    # the list and the walk leave different graphs undecided, and each
    # names its own first one
    for corpus in (enumerate_graphs(7, True), InternalCorpus(7, True)):
        first = _filter(corpus, "star-minor-free:4", 3)[1][0].to_graph6()
        for jobs in (1, 2):
            with pytest.raises(BudgetExhausted) as exc:
                survivors(corpus, "star-minor-free:4", budget=3, jobs=jobs)
            assert exc.value.graph6 == first
            assert str(exc.value) == f"minor-search budget exhausted on candidate {first}"


def test_internal_corpus_is_the_enumeration():
    for n in range(1, 9):
        for connected in (False, True):
            corpus = InternalCorpus(n, connected)
            counts = CONNECTED_GRAPH_COUNTS if connected else GRAPH_COUNTS
            assert len(corpus) == counts[n - 1]
    for n in (0, 9):
        with pytest.raises(ValueError):
            InternalCorpus(n)


WALK_CONSTRAINTS = [f"star-minor-free:{b}" for b in range(1, 8)] + [
    "kab-minor-free:2,3", "kab-minor-free:2,4", "ab-property:2,4", "ab-property:3,5",
    "kab-minor-free:1,4"]


def _connected_part(graphs):
    return [g for g in graphs if g.is_connected()]


@pytest.mark.parametrize("constraint", WALK_CONSTRAINTS)
def test_walk_matches_list_filter(constraint):
    # the list filter is per graph, so its connected result is its full
    # result restricted to connected graphs
    for n in range(1, 8):
        full = survivors(enumerate_graphs(n), constraint)
        expected = {False: full, True: _connected_part(full)}
        for connected in (False, True):
            for jobs in (1, 2):
                assert survivors(InternalCorpus(n, connected), constraint, jobs=jobs) \
                    == expected[connected], (n, connected, jobs)


@pytest.mark.parametrize("b", range(3, 9))
def test_walk_matches_list_filter_order_eight(b):
    # the corpus of search --n 8; the unconnected walk differs only in
    # its last filter
    constraint = f"star-minor-free:{b}"
    assert survivors(InternalCorpus(8, True), constraint) \
        == survivors(enumerate_graphs(8, True), constraint)


def test_walk_skips_star_certificates_before_canonical_search(monkeypatch):
    # search --n 8 --constraint star-minor-free:5: children with a vertex
    # of degree >= 5, or an edge whose ends have >= 5 other neighbours,
    # are dropped before their canonical search
    calls = []
    search = extremal._canonical_search
    monkeypatch.setattr(extremal, "_canonical_search",
                        lambda rows, cells: calls.append(1) or search(rows, cells))
    assert len(survivors(InternalCorpus(8, True), "star-minor-free:5")) == 343
    assert len(calls) == 1279


def _reference_augmentation_masks(g: Graph):
    """extremal._augmentation_masks before it built its masks as bounded
    prefixes and learned the star test, kept verbatim as the reference:
    the product of every class's prefixes, filtered."""
    degs = g.degrees()
    delta = min(degs)
    low = 0
    for v, d in enumerate(degs):
        if d == delta:
            low |= 1 << v
    prefixes = []
    for cls in _twin_classes(g.rows, range(g.n)):
        acc = 0
        options = [0]
        for v in cls:
            acc |= 1 << v
            options.append(acc)
        prefixes.append(options)
    for parts in itertools.product(*prefixes):
        mask = sum(parts)
        k = mask.bit_count()
        if k <= delta or (k == delta + 1 and mask & low == low):
            yield mask


def _reference_extend(parents, n: int, connected_only: bool = False, star: int | None = None) -> list[Graph]:
    """extremal._extend before its masks skipped the children with a
    K_{1,star} certificate, kept verbatim as the reference: it builds
    each child and tests it with minors.star_certificate."""
    seen: dict[bytes, Graph] = {}
    for g in parents:
        components = g.component_masks() if connected_only else ()
        for mask in _reference_augmentation_masks(g):
            if any(not mask & c for c in components):
                continue
            rows = tuple(r | (mask >> v & 1) << (n - 1) for v, r in enumerate(g.rows)) + (mask,)
            if star is not None and star_certificate(rows, star):
                continue
            cells = _stable_partition(rows)
            if n - 1 in cells[0]:
                code, lab = _canonical_search(rows, cells)
                if code not in seen:
                    seen[code] = Graph._unchecked(n, _renumbered(rows, lab))
    return [seen[c] for c in sorted(seen)]


def test_admissible_masks_are_the_filtered_product():
    # every graph of order <= 7 is a parent some walk to order <= 8 may
    # extend: the masks built directly are, in order, those of the
    # filtered product whose child has no K_{1,star} certificate
    for g in (g for n in range(1, 8) for g in enumerate_graphs(n)):
        n = g.n + 1
        product = list(_reference_augmentation_masks(g))
        assert list(extremal._augmentation_masks(g)) == product
        for star in range(1, 9):
            kept = [mask for mask in product if not star_certificate(
                tuple(r | (mask >> v & 1) << (n - 1) for v, r in enumerate(g.rows)) + (mask,), star)]
            assert list(extremal._augmentation_masks(g, star)) == kept, (g.to_graph6(), star)


# order 8 of star-minor-free:7 and :8 is nearly the whole enumeration,
# which the mask test above covers; their walks are compared to order 7
@pytest.mark.parametrize("constraint, n", [(f"star-minor-free:{b}", 8) for b in range(1, 7)] + [
    ("star-minor-free:7", 7), ("star-minor-free:8", 7), ("kab-minor-free:1,4", 8),
    ("kab-minor-free:1,8", 7), ("ab-property:2,4", 8), ("ab-property:3,5", 8)])
def test_walk_extension_matches_reference(constraint, n):
    # each level of the walk is the reference extension of the kept
    # graphs below it, for both connected_only settings at the last order
    pairs = extremal._forbidden_pairs(constraint)
    star = next(s for r, s in pairs if r == 1)
    kept = [Graph(1, (0,))]
    for m in range(2, n + 1):
        for connected in (False, True) if m == n else (False,):
            level = _extend(kept, m, connected_only=connected, star=star)
            assert level == _reference_extend(kept, m, connected_only=connected, star=star), (m, connected)
        verdicts = extremal._verdicts(level, pairs, minors.DEFAULT_BUDGET)
        kept = [g for g, v in zip(level, verdicts) if v is not False]


@pytest.mark.parametrize("budget", [1, 3, 50])
def test_walk_under_starved_budget(budget):
    # a starved check may leave a graph undecided in the list although
    # its parent was found to contain the pattern, so the walk never
    # reaches it: undecided shrinks, in corpus order, and passing holds
    for constraint in ("star-minor-free:4", "kab-minor-free:2,3", "kab-minor-free:2,4",
                       "ab-property:2,4"):
        for n in (6, 7):
            passing, undecided = _filter(enumerate_graphs(n), constraint, budget)
            walked, walked_undecided = _filter(InternalCorpus(n), constraint, budget)
            assert walked == passing
            reached = set(walked_undecided)
            assert [g for g in undecided if g in reached] == walked_undecided


def test_walk_uses_one_pool(monkeypatch):
    # a fake pool records its size and maps serially, so no process starts
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    expected = survivors(InternalCorpus(6, True), "kab-minor-free:2,3")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=FakePool))
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: 4)
    assert survivors(InternalCorpus(6, True), "kab-minor-free:2,3", jobs=3) == expected
    assert sizes == [3]


def test_search_internal_corpus_matches_list():
    pred = predict(1, 4, 7, 0.5)
    for connected in (False, True):
        walked = search_max(InternalCorpus(7, connected), "star-minor-free:4", 0.5, prediction=pred)
        listed = search_max(enumerate_graphs(7, connected), "star-minor-free:4", 0.5, prediction=pred)
        assert walked.to_json() == listed.to_json()
        assert walked.corpus_size == len(InternalCorpus(7, connected))


def test_star_constraints_are_budgeted():
    # the Petersen complement has ten singletons of degree 6 < 8 to
    # examine before any larger set
    g = petersen_complement()
    for constraint in ("star-minor-free:8", "kab-minor-free:1,8"):
        with pytest.raises(BudgetExhausted) as exc:
            search_max([complete(3), g], constraint, 0.5, budget=5)
        assert exc.value.graph6 == g.to_graph6()
        assert search_max([complete(3), g], constraint, 0.5).survivors == 2


def test_star_contains_verdicts_are_revalidated(monkeypatch):
    # the filter decides a star through has_minor, which rechecks the
    # witness of every star it finds: a witness refused stops the filter
    monkeypatch.setattr(minors, "validate_witness", lambda g, h, w: False)
    with pytest.raises(AssertionError, match="invalid witness"):
        survivors([complete(5)], "star-minor-free:3")


def test_predict_star_budget_raises(monkeypatch):
    monkeypatch.setattr(extremal, "has_minor", functools.partial(minors.has_minor, budget=5))
    with pytest.raises(RuntimeError, match="budget"):
        predict(1, 5, 12, 0.5)


def test_compare_candidates():
    g = complete(5)
    rows = compare_candidates([("a", g), ("b", g)], 0.3)
    assert abs(rows[0]["lambda"] - rows[1]["lambda"]) < 1e-12
    assert rows[0]["strictly_above_next"] is False
    rows = compare_candidates([("dense", complete(5)), ("sparse", cycle(5))], 0.2)
    assert rows[0]["id"] == "dense" and rows[0]["strictly_above_next"]
    with pytest.raises(ValueError):
        compare_candidates([("a", complete(4)), ("b", complete(5))], 0.1)
    assert compare_candidates([], 0.1) == []


def test_compare_candidates_graph6_round_trip():
    cands = [("a", complete(6)), ("b", cycle(6)), ("c", subdivided_clique(4, 2)),
             ("disconnected", disjoint_union([complete(4), complete(2)])),
             ("labelled", join(complete(1), star(4)))]
    r1 = json.dumps(compare_candidates(cands, 0.4), sort_keys=True)
    decoded = [(cid, from_graph6(g.to_graph6())) for cid, g in cands]
    assert json.dumps(compare_candidates(decoded, 0.4), sort_keys=True) == r1


def test_pmap_pool_is_capped_by_items_and_cpus(monkeypatch):
    # a fake pool records its size and the slices it maps, and maps
    # serially, so no process starts
    sizes = []
    slices = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            slices.extend(items)
            return [fn(x) for x in items]

    def double(xs):
        return [2 * x for x in xs]

    def run(items, jobs):
        with extremal._mapper(jobs, len(items)) as pmap:
            return pmap(double, items)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=FakePool))
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: 4)
    assert run([1, 2, 3], 5000) == [2, 4, 6]
    assert run(list(range(10)), 5000) == list(range(0, 20, 2))
    assert run(list(range(10)), 3) == list(range(0, 20, 2))
    assert run([1, 2, 3], 1) == [2, 4, 6]
    assert sizes == [3, 4, 3]
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: None)
    assert run([1, 2, 3], 5000) == [2, 4, 6]
    assert sizes == [3, 4, 3]
    # a pooled map cuts contiguous slices, about four per worker, and
    # joins their results in item order
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: 4)
    slices.clear()
    assert run(list(range(50)), 3) == list(range(0, 100, 2))
    assert sizes == [3, 4, 3, 3]
    assert len(slices) == 10 and [x for part in slices for x in part] == list(range(50))


def test_layer_hooks_called_once_per_graph(monkeypatch):
    # search_max and compare_candidates reach the spectral and minor
    # layers through these module attributes, so a wrapper patched onto
    # them sees every graph: the minor test per graph, the spectral solve
    # per batch, which must hold each survivor or candidate exactly once
    import kabminor.extremal as ex

    calls = {"minor": 0}
    solved = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recording(graphs, *args, **kwargs):
        graphs = list(graphs)
        solved.extend(graphs)
        return spectral_radii(graphs, *args, **kwargs)

    corpus = enumerate_graphs(6, True)
    passing = survivors(corpus, "star-minor-free:3")
    monkeypatch.setattr(ex, "spectral_radii", recording)
    monkeypatch.setattr(ex, "has_minor", counting("minor", ex.has_minor))
    rep = search_max(corpus, "star-minor-free:3", 0.5, jobs=1)
    assert 0 < rep.survivors < len(corpus)
    assert calls == {"minor": len(corpus)}
    assert sorted(map(id, solved)) == sorted(map(id, passing))
    calls.update(minor=0)
    solved.clear()
    compare_candidates([(i, g) for i, g in enumerate(corpus)], 0.5)
    assert calls == {"minor": 0}
    assert sorted(map(id, solved)) == sorted(map(id, corpus))


def test_order_ten_block_edge_counts():
    a = disjoint_union([complete(8), complete(2)])
    assert a.e == 29
    assert petersen_complement().e == 30
