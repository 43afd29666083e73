"""Minor containment, star fast path, (a,b)-property, dominating-vertex rule."""

import hashlib

import numpy as np
import pytest

from kabminor import minors
from kabminor.extremal import enumerate_graphs, survivors
from kabminor.graphs import (
    Graph,
    _bits,
    _twin_classes,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    from_edges,
    from_graph6,
    join,
    path_graph,
    petersen,
    petersen_complement,
    star,
    star_forest,
    subdivided_clique,
)
from kabminor.minors import (
    DEFAULT_BUDGET,
    VERDICT_BUDGET,
    VERDICT_CONTAINS,
    VERDICT_FREE,
    BudgetExhausted,
    MinorWitness,
    _minor_search,
    _star_search,
    ab_pairs,
    ab_property,
    ab_property_complement_criterion,
    fold_verdicts,
    has_minor,
    star_certificate,
    star_minor_free,
    validate_witness,
)


def test_has_minor_basics():
    assert has_minor(cycle(4), star(3)).verdict == VERDICT_FREE
    assert has_minor(complete(5), complete_bipartite(2, 3)).verdict == VERDICT_CONTAINS
    w = has_minor(petersen(), complete(5))
    assert w.verdict == VERDICT_CONTAINS
    assert validate_witness(petersen(), complete(5), w)


def test_witness_validation_rejects_garbage():
    g, h = complete(4), complete(3)
    w = has_minor(g, h)
    assert validate_witness(g, h, w)
    bad = MinorWitness(VERDICT_CONTAINS, ((0,), (0,), (1,)), 0)
    assert not validate_witness(g, h, bad)  # overlap
    bad = MinorWitness(VERDICT_CONTAINS, ((0,), (1,)), 0)
    assert not validate_witness(g, h, bad)  # wrong count
    # opposite vertices of a 4-cycle are not connected as a branch set
    bad = MinorWitness(VERDICT_CONTAINS, ((0, 2), (1,), (3,)), 0)
    assert not validate_witness(cycle(4), h, bad)


def test_star_minor_free_basics():
    for n in (4, 5, 6, 8):
        assert star_minor_free(cycle(n), 3)
    assert not star_minor_free(star(4), 4)
    for b in (3, 4, 5):
        for k in (1, 2, 3):
            assert star_minor_free(subdivided_clique(b, k), b)
    assert not star_minor_free(complete(5), 4)


def _generic_star_free(g, b):
    """The K_{1,b} question put to the generic branch-set search."""
    found, _, _ = _minor_search(g, star(b), DEFAULT_BUDGET, (1 << g.n) - 1)
    return not found


def test_star_fast_path_agrees_with_generic():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            for b in range(1, n + 1):
                fast = star_minor_free(g, b)
                assert fast == _generic_star_free(g, b), (g.to_graph6(), b)
                w = has_minor(g, star(b))
                assert (w.verdict == VERDICT_FREE) == fast
                assert fast or validate_witness(g, star(b), w)


def test_star_fast_path_spot_n7():
    rng = np.random.default_rng(1)
    corpus = enumerate_graphs(7)
    for idx in rng.choice(len(corpus), 40, replace=False):
        g = corpus[idx]
        for b in (3, 4, 6):
            assert star_minor_free(g, b) == _generic_star_free(g, b)


def test_star_pattern_routing():
    # a dominating vertex alone does not make a star: K_4 minus an edge
    # must still go to the generic search and be found in K_4
    paw = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    w = has_minor(complete(4), paw)
    assert w.verdict == VERDICT_CONTAINS and validate_witness(complete(4), paw, w)
    assert has_minor(star(5), paw).verdict == VERDICT_FREE
    # the star route answers K_{1,7} on the Petersen complement within a
    # few expansions, and spends its budget like the generic engine
    g = petersen_complement()
    w = has_minor(g, complete_bipartite(1, 7))
    assert w.verdict == VERDICT_CONTAINS and w.expansions < 100
    assert validate_witness(g, complete_bipartite(1, 7), w)
    w = has_minor(g, complete_bipartite(1, 8))
    assert w.verdict == VERDICT_FREE and w.expansions < 1000
    assert has_minor(g, complete_bipartite(1, 8), budget=5) == \
        MinorWitness(VERDICT_BUDGET, None, 5)


def _is_connected_mask(rows, mask):
    seen = mask & -mask
    frontier = seen
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        fresh = rows[v] & mask & ~seen
        seen |= fresh
        frontier |= fresh
    return seen == mask


# The connected-set walk as the generator both searches once drew their
# sets from, verbatim but for its name.  Both searches now walk the sets
# inline; this generator is the reference their differential tests
# compare against, itself checked against brute force and against the
# recursive walker below.


def _reference_connected_subsets(rows, allowed: int, max_size: int):
    """Yield (S, N) for every nonempty connected vertex subset S (as a
    bitmask) of the graph restricted to `allowed`, each exactly once, up
    to max_size; N is the OR of the rows of S.

    Sets whose minimum vertex is v grow from {v} by vertices above v.  A
    set's extensions are tried candidate by candidate, and a tried
    candidate leaves the set's `allowed` for its later candidates and all
    their descendants, so each set is yielded once, in the branch of the
    first candidate it contains.  The walk is depth first: the current
    set's (S, N, untried candidates, allowed) live in locals, and an
    explicit stack holds those of the sets it grew from, so the depth of
    a set costs no recursion.  Roots are taken lowest bit first."""
    rest = allowed
    stack = []
    while rest:
        fs = rest & -rest
        fnb = rows[fs.bit_length() - 1]
        yield fs, fnb
        ext = rest
        cand = fnb & rest & ~fs if max_size > 1 else 0
        while True:
            if not cand:
                if not stack:
                    break
                fs, fnb, cand, ext = stack.pop()
                continue
            low = cand & -cand
            cand ^= low
            ext &= ~low
            s = fs | low
            nb = fnb | rows[low.bit_length() - 1]
            yield s, nb
            if s.bit_count() < max_size:
                stack.append((fs, fnb, cand, ext))
                fs, fnb, cand = s, nb, nb & ext & ~s
        rest &= rest - 1


def test_connected_subsets_exactly_once():
    # the walker against brute force: every connected subset of the
    # allowed vertices up to the size cap, each once, with N the OR of
    # the rows of S
    rng = np.random.default_rng(3)
    for n in range(1, 8):
        full = (1 << n) - 1
        for g in enumerate_graphs(n):
            cases = [(full, n)]
            cases += [(int(rng.integers(0, full + 1)), int(rng.integers(1, n + 1))) for _ in range(3)]
            for allowed, cap in cases:
                got = list(_reference_connected_subsets(g.rows, allowed, cap))
                expected = [m for m in range(1, full + 1)
                            if m & ~allowed == 0 and m.bit_count() <= cap
                            and _is_connected_mask(g.rows, m)]
                assert sorted(s for s, _ in got) == expected, (g.to_graph6(), allowed, cap)
                for s, nb in got:
                    row_or = 0
                    for v in _bits(s):
                        row_or |= g.rows[v]
                    assert nb == row_or


def _connected_subsets_recursive(rows, allowed, max_size):
    # the recursive walker that the explicit-stack walk replaced: one
    # Python frame per vertex of the set being grown
    def grow(s, nb, allowed):
        yield s, nb
        if s.bit_count() >= max_size:
            return
        cand = nb & allowed & ~s
        while cand:
            low = cand & -cand
            cand ^= low
            yield from grow(s | low, nb | rows[low.bit_length() - 1], allowed)
            allowed &= ~low

    rest = allowed
    for v in _bits(allowed):
        yield from grow(1 << v, rows[v], rest)
        rest &= ~(1 << v)


def test_connected_subsets_order_matches_recursive_walker():
    # the same sets in the same order, so expansion counts and witnesses
    # are those of the recursive walker
    for n in range(1, 8):
        full = (1 << n) - 1
        for g in enumerate_graphs(n):
            for cap in sorted({1, 2, n}):
                assert list(_reference_connected_subsets(g.rows, full, cap)) \
                    == list(_connected_subsets_recursive(g.rows, full, cap)), (g.to_graph6(), cap)


def test_long_path_runs_out_of_budget_without_recursion_error():
    # the walk grows sets of up to 997 vertices along the path
    assert has_minor(path_graph(1000), star(3), budget=10**5).verdict == VERDICT_BUDGET


def test_star_certificate_is_sound():
    # every graph of order <= 7 and every s <= n: a certificate means a
    # K_{1,s} minor
    pairs = fired = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for s in range(1, n + 1):
                pairs += 1
                if star_certificate(g.rows, s):
                    fired += 1
                    assert not star_minor_free(g, s), (g.to_graph6(), s)
    assert (pairs, fired) == (8475, 5613)


def test_star_certificate_cases():
    assert star_certificate(star(4).rows, 4)
    assert not star_certificate(star(4).rows, 5)
    # P_6 has degree 2, and an inner edge has two other neighbours
    assert star_certificate(path_graph(6).rows, 2)
    assert not star_certificate(path_graph(6).rows, 3)
    # two degree-3 vertices at distance 2: contracting the path between
    # them gives K_{1,4}, which no set of at most two vertices shows
    spaced = from_edges(7, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)])
    assert not star_certificate(spaced.rows, 4) and not star_minor_free(spaced, 4)
    # the double star: an edge whose ends have 2 + 2 other neighbours
    double = from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert star_certificate(double.rows, 4) and not star_certificate(double.rows, 5)


def test_ab_property_examples():
    rep = ab_property(star_forest(2, 5).complement(), 2, 5)
    assert rep.overall and rep.checked_pairs == ((1, 5), (2, 4))
    rep = ab_property(complete(6), 2, 5)
    assert not rep.overall
    rep = ab_property(complete(4), 1, 3)
    assert not rep.overall  # K_{b+1} contains the b-leaf star minor


def test_ab_property_star_pair_is_budgeted():
    # the r = 1 pair goes through has_minor like every other pair
    g = petersen_complement()
    assert ab_property(g, 1, 8, budget=5).verdicts == (VERDICT_BUDGET,)
    assert ab_property(g, 1, 8).verdicts == (VERDICT_FREE,)
    assert ab_property(complete(4), 1, 3).verdicts == (VERDICT_CONTAINS,)


def test_ab_property_overall_is_the_fold():
    # a found minor decides whatever else ran out; a budget verdict with
    # no minor found leaves the property undecided
    rep = ab_property(join(complete(1), cycle(8)), 2, 4, budget=3)
    assert rep.verdicts == (VERDICT_CONTAINS, VERDICT_BUDGET) and rep.overall is False
    rep = ab_property(from_graph6("DFw"), 2, 4, budget=10)
    assert rep.verdicts == (VERDICT_FREE, VERDICT_BUDGET) and rep.overall is None
    assert fold_verdicts([VERDICT_BUDGET, VERDICT_CONTAINS]) is False
    assert fold_verdicts([VERDICT_FREE, VERDICT_BUDGET]) is None
    assert fold_verdicts([VERDICT_FREE, VERDICT_FREE]) is True
    assert fold_verdicts([]) is True


def test_ab_pairs():
    assert ab_pairs(1, 3) == ((1, 3),)
    assert ab_pairs(2, 4) == ((1, 4), (2, 3))
    assert ab_pairs(3, 5) == ((1, 5), (2, 4), (3, 3))
    assert ab_pairs(4, 5) == ((1, 5), (2, 4), (3, 3))  # omega = floor(6 / 2)
    for a, b in ((0, 3), (4, 3)):
        with pytest.raises(ValueError):
            ab_pairs(a, b)


def test_complement_criterion_examples():
    g = star_forest(2, 5).complement()
    assert ab_property_complement_criterion(g, 2, 5)
    assert not ab_property_complement_criterion(complete(6), 2, 5)
    with pytest.raises(ValueError):
        ab_property_complement_criterion(complete(5), 2, 5)


def test_complement_criterion_agreement_small():
    for g in enumerate_graphs(5, connected_only=True):
        crit = ab_property_complement_criterion(g, 2, 4)
        direct = ab_property(g, 2, 4).overall
        assert crit == direct, g.to_graph6()


def _direct_search(g, h):
    """Whether has_minor's branch-set or star search finds h on its own,
    component by component, with no dominating-vertex rule."""
    p = minors._pattern(h)
    search = _star_search if p.star else _minor_search
    for mask in g.component_masks() if p.connected else [(1 << g.n) - 1]:
        if h.n <= mask.bit_count() and search(g, h, DEFAULT_BUDGET, mask)[0]:
            return True
    return False


def test_dominating_vertex_rule_matches_direct_search():
    # every host with a dominating vertex among the graphs of order <= 7
    # and every 5th graph of order 8, against six K_{r,s} and, up to
    # order 7, six other patterns; on any other host has_minor runs the
    # direct search itself.  For K_{a,b} the paper's reduction is an
    # oracle too: with a - 1 dominating vertices S, g is K_{a,b}-minor
    # free iff g - S has the (a,b)-property
    kab = [(2, 3), (2, 4), (3, 3), (3, 4), (2, 5), (1, 4)]
    others = [complete(4), complete(5), cycle(5), path_graph(4),
              from_edges(4, [(0, 1), (2, 3)]), join(complete(1), cycle(4))]
    hosts = [g for n in range(1, 8) for g in enumerate_graphs(n)] + enumerate_graphs(8)[::5]
    hosts = [g for g in hosts if g.n - 1 in g.degrees()]
    pairs = 0
    for g in hosts:
        dom = [v for v in range(g.n) if g.degree(v) == g.n - 1]
        verdicts = []
        for h in [complete_bipartite(a, b) for a, b in kab] + (others if g.n <= 7 else []):
            w = has_minor(g, h)
            assert (w.verdict == VERDICT_CONTAINS) == _direct_search(g, h), (g.to_graph6(), h.rows)
            assert w.verdict == VERDICT_FREE or validate_witness(g, h, w)
            verdicts.append(w.verdict)
        for (a, b), verdict in zip(kab, verdicts):
            if len(dom) >= a - 1:
                reduced = ab_property(g.induced([v for v in range(g.n) if v not in dom[:a - 1]]), a, b)
                assert reduced.overall == (verdict == VERDICT_FREE), (g.to_graph6(), a, b)
        pairs += len(verdicts)
    assert pairs == 3_822


def test_dominating_vertex_rule_cases(monkeypatch):
    k24 = complete_bipartite(2, 4)
    # as many dominating vertices as h has vertices: h.n - 1 of them are
    # peeled, and the last vertex of h is a singleton of what is left
    assert has_minor(complete(6), complete_bipartite(2, 3)) == MinorWitness(
        VERDICT_CONTAINS, ((0,), (1,), (2,), (3,), (4,)), 1)
    # one sub-problem per vector of counts from K_{3,3}'s two twin
    # classes, not one per pair of its vertices
    calls = []
    real = minors.has_minor

    def spy(g, h, budget=DEFAULT_BUDGET):
        calls.append((g, h))
        return real(g, h, budget)

    monkeypatch.setattr(minors, "has_minor", spy)
    assert spy(join(complete(2), path_graph(5)), complete_bipartite(3, 3)).verdict == VERDICT_FREE
    assert calls[1:] == [(path_graph(5), complete_bipartite(*rs)) for rs in ((1, 3), (2, 2), (3, 1))]
    monkeypatch.undo()
    # the wheel K_1 + C_8 is free: C_8 has neither K_{1,4} nor K_{2,3};
    # the budget runs out in the second sub-problem, and is spent whole
    g = join(complete(1), cycle(8))
    first = has_minor(cycle(8), star(4)).expansions
    second = has_minor(cycle(8), complete_bipartite(2, 3)).expansions
    assert has_minor(g, k24) == MinorWitness(VERDICT_FREE, None, first + second)
    for budget in (first + 1, first + second - 1):
        assert has_minor(g, k24, budget=budget) == MinorWitness(VERDICT_BUDGET, None, budget)
    # a minor found in the second sub-problem: K_{2,3} under an apex,
    # whose K_{1,4} sub-problem is free; the apex is the peeled leaf
    g = join(complete(1), complete_bipartite(2, 3))
    first = has_minor(complete_bipartite(2, 3), star(4)).expansions
    second = has_minor(complete_bipartite(2, 3), complete_bipartite(2, 3)).expansions
    w = has_minor(g, k24)
    assert w.verdict == VERDICT_CONTAINS and w.expansions == first + second
    assert w.branch_sets[2] == (0,) and validate_witness(g, k24, w)
    # an apex over two triangles and a vertex is K_{2,3}-minor free; an
    # apex over K_4 is K_5
    g = join(complete(1), disjoint_union([complete(3), complete(3), complete(1)]))
    assert has_minor(g, complete_bipartite(2, 3)).verdict == VERDICT_FREE
    assert has_minor(complete(5), complete_bipartite(2, 3)).verdict == VERDICT_CONTAINS


def test_budget_folds_with_dominating_vertices():
    # under two apexes both K_{2,4} centres are peeled first, and the four
    # leaves are singletons of C_8: found at four expansions, where the
    # direct search takes six.  The (a,b)-property of the host minus one
    # apex folds its found K_{1,4} over its starved K_{2,3}
    g = join(complete(1), join(complete(1), cycle(8)))
    k24 = complete_bipartite(2, 4)
    assert has_minor(g, k24, budget=4).verdict == VERDICT_CONTAINS
    assert _minor_search(g, k24, DEFAULT_BUDGET, (1 << g.n) - 1)[2] == 6
    rep = ab_property(g.induced(range(1, g.n)), 2, 4, budget=3)
    assert rep.verdicts == (VERDICT_CONTAINS, VERDICT_BUDGET) and rep.overall is False
    # DFw under an apex runs out in its K_{2,3} sub-problem at budget 10,
    # and contains K_{2,4} given enough
    g = join(complete(1), from_graph6("DFw"))
    assert has_minor(g, k24, budget=10) == MinorWitness(VERDICT_BUDGET, None, 10)
    assert has_minor(g, k24).verdict == VERDICT_CONTAINS


def test_minor_monotone_under_subgraphs():
    rng = np.random.default_rng(2)
    host = subdivided_clique(5, 2)  # star-minor free at b=5
    for _ in range(20):
        g = host
        for _ in range(int(rng.integers(1, 4))):
            edges = g.edges()
            u, v = edges[int(rng.integers(len(edges)))]
            g = g.delete_edge(u, v)
        assert star_minor_free(g, 5)


def test_budget_verdict():
    g = join(complete(2), cycle(10))
    w = has_minor(g, complete_bipartite(3, 4), budget=5)
    assert w.verdict == VERDICT_BUDGET
    assert w.branch_sets is None


def test_negative_budget_is_refused():
    # a negative budget would report a negative expansion count, and is
    # refused also where no search would run; budget 0 keeps its answers:
    # out of budget at the first expansion, or free with none spent when
    # the edge count rejects the pattern
    g, h = petersen(), complete_bipartite(2, 3)
    for call in (lambda: has_minor(g, h, budget=-5),
                 lambda: star_minor_free(g, 3, budget=-1),
                 lambda: ab_property(g, 2, 4, budget=-1),
                 lambda: survivors(enumerate_graphs(6), "kab-minor-free:2,3", budget=-1),
                 lambda: star_minor_free(complete(3), 10, budget=-1),
                 lambda: survivors([], "kab-minor-free:2,3", budget=-1)):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            call()
    assert has_minor(g, h, budget=0) == MinorWitness(VERDICT_BUDGET, None, 0)
    assert has_minor(g, complete_bipartite(5, 5), budget=0) == MinorWitness(VERDICT_FREE, None, 0)


def test_pattern_facts_are_worked_out_once_per_pattern():
    # equal patterns built afresh for every call share one record
    minors._pattern.cache_clear()
    g = petersen_complement()
    for r, s in ((2, 6), (2, 6), (1, 7), (2, 6), (1, 7)):
        has_minor(g, complete_bipartite(r, s))
    info = minors._pattern.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def test_edge_count_quick_rejection():
    # a minor never has more edges than its host
    w = has_minor(petersen(), complete_bipartite(5, 5), budget=1)
    assert w.verdict == VERDICT_FREE and w.expansions == 0


def test_petersen_complement_property():
    # the cheap pair of the full order-10 check; the full (3,8) sweep
    # runs in the acceptance suite
    assert star_minor_free(petersen_complement(), 8)


def test_star_minor_free_budget():
    # star_minor_free spends expansions exactly as has_minor's star route:
    # component by component, skipping those too small for the star
    for g in enumerate_graphs(6) + [petersen_complement()]:
        for b in range(2, 9):
            w = has_minor(g, star(b))
            assert star_minor_free(g, b, budget=w.expansions or 1) == (w.verdict == VERDICT_FREE)
            if w.expansions:
                with pytest.raises(BudgetExhausted):
                    star_minor_free(g, b, budget=w.expansions - 1)


def test_star_minor_free_above_the_order_builds_no_star(monkeypatch):
    def refuse(r, s):
        raise AssertionError(f"built K_{{{r},{s}}}")

    monkeypatch.setattr(minors, "complete_bipartite", refuse)
    assert star_minor_free(complete(3), 10**5)
    with pytest.raises(ValueError, match="need b >= 1"):
        star_minor_free(empty_graph(0), 0)


def _plain_has_minor(g, h):
    """Unbroken backtracking: H-vertices in index order, each given every
    connected set of the free vertices of g, with no symmetry breaking."""
    full = (1 << g.n) - 1
    conn = [m for m in range(1, full + 1)
            if len(g.induced_mask(m).component_masks()) == 1]
    nbhd = {}
    for m in conn:
        nbhd[m] = 0
        for v in _bits(m):
            nbhd[m] |= g.rows[v]
    branch = []

    def place(i, used):
        if i == h.n:
            return True
        for m in conn:
            if m & used:
                continue
            if all(nbhd[m] & branch[j] for j in h.neighbors(i) if j < i):
                branch.append(m)
                if place(i + 1, used | m):
                    return True
                branch.pop()
        return False

    return place(0, 0)


def test_twin_ordered_search_matches_unbroken_search():
    # every connected graph of order <= 6 against every K_{r,s} with
    # 2 <= r <= s and r + s <= n, plus K_4 and K_4 minus an edge, whose
    # twins are adjacent rather than independent
    diamond = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    for n in range(4, 7):
        patterns = [complete_bipartite(r, s) for r in range(2, n) for s in range(r, n - r + 1)]
        patterns += [complete(4), diamond]
        for g in enumerate_graphs(n, connected_only=True):
            for h in patterns:
                w = has_minor(g, h)
                expected = VERDICT_CONTAINS if _plain_has_minor(g, h) else VERDICT_FREE
                assert w.verdict == expected, (g.to_graph6(), h.rows)
                assert expected == VERDICT_FREE or validate_witness(g, h, w)


def test_twin_ordering_cuts_petersen_complement_expansions():
    # the unbroken search spent 552,850 and 376,990 expansions on the two
    # free verdicts and 102,000 on K_{2,6}
    g = petersen_complement()
    for (r, s), before in (((2, 7), 552_850), ((3, 6), 376_990)):
        w = has_minor(g, complete_bipartite(r, s))
        assert w.verdict == VERDICT_FREE and w.expansions <= before // 10
    h = complete_bipartite(2, 6)
    w = has_minor(g, h)
    assert w.verdict == VERDICT_CONTAINS and validate_witness(g, h, w)


def test_search_tree_digest_matches_reference():
    # every graph of order <= 7 against K_{1,4}, K_{2,3}, K_{2,4} and
    # K_{3,3}, and the Petersen complement against five patterns: pins
    # each verdict, expansion count and branch set, so a change that only
    # speeds the search up must leave the digest as it is
    cases = [(g, r, s) for n in range(1, 8) for g in enumerate_graphs(n)
             for r, s in ((1, 4), (2, 3), (2, 4), (3, 3))]
    cases += [(petersen_complement(), r, s) for r, s in ((1, 7), (2, 6), (4, 4), (2, 7), (3, 6))]
    lines = []
    for g, r, s in cases:
        w = has_minor(g, complete_bipartite(r, s))
        lines.append(f"{g.to_graph6()} K_{{{r},{s}}} {w.verdict} {w.expansions} {w.branch_sets}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "93bcc0aba0ed0086316e9f4bb97630ddda55362fd9b28fb249b36c02846c1337"
    # the budget fires on the expansion past the count, not before
    g = petersen_complement()
    for r, s in ((2, 6), (2, 7)):
        h = complete_bipartite(r, s)
        spent = has_minor(g, h).expansions
        assert has_minor(g, h, budget=spent).expansions == spent
        assert has_minor(g, h, budget=spent - 1).verdict == VERDICT_BUDGET


# The generator-driven branch-set search that the inline walk of
# _minor_search replaced, verbatim but for its name and that of the
# generator it draws from: the reference for the differential test below.


def _reference_minor_search(g: Graph, h: Graph, budget: int, within: int):
    """Backtracking branch-set assignment inside the vertex mask `within`;
    returns (found, branch_masks, expansions) or raises BudgetExhausted.

    H-vertices are placed in order of decreasing degree, each drawing its
    branch set from the connected sets of the still-free vertices.  Twins
    of h (rows equal once their mutual bit is cleared) can swap branch
    sets, so a vertex with a twin placed before it draws only from free
    vertices above the lowest vertex of that twin's branch set.  Every
    model becomes one of this form by reordering each twin class's branch
    sets, so the verdict is that of the unbroken search."""
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    nh = h.n
    pos = {hv: i for i, hv in enumerate(order)}
    placed_nbrs = [[pos[u] for u in h.neighbors(hv) if pos[u] < i] for i, hv in enumerate(order)]
    twin_before = [None] * nh
    for cls in _twin_classes(h.rows, order):
        for prev, hv in zip(cls, cls[1:]):
            twin_before[pos[hv]] = pos[prev]
    count = 0
    branch = [0] * nh

    def assign(i: int, used: int):
        nonlocal count
        if i == nh:
            return True
        free = within & ~used
        slack = free.bit_count() - (nh - i)
        if slack < 0:
            return False
        allowed = free
        if twin_before[i] is not None:
            low = branch[twin_before[i]]
            allowed &= ~((low & -low) * 2 - 1)
        placed_masks = [branch[j] for j in placed_nbrs[i]]
        for s, nb in _reference_connected_subsets(g.rows, allowed, slack + 1):
            count += 1
            if count > budget:
                raise BudgetExhausted(f"expansion budget {budget} exhausted")
            for pm in placed_masks:
                if not nb & pm:
                    break
            else:
                branch[i] = s
                if assign(i + 1, used | s):
                    return True
        return False

    found = assign(0, 0)
    if not found:
        return False, None, count
    # undo the placement order: report branch sets indexed by H-vertex
    out = [0] * nh
    for i, hv in enumerate(order):
        out[hv] = branch[i]
    return True, out, count


def _search_outcome(search, g, h, budget, within):
    try:
        return search(g, h, budget, within)
    except BudgetExhausted:
        return "budget"


def test_inline_walk_matches_generator_driven_search():
    # (found, branch masks, expansions) of the inline walk equal the
    # generator-driven search's on the whole vertex set and on every
    # component large enough for the pattern.  The inline walk runs with
    # the reference's count as its budget, which must be enough, and runs
    # out one expansion below it, like the reference
    k = {rs: complete_bipartite(*rs) for rs in ((2, 3), (2, 4), (3, 3), (2, 6), (4, 4), (2, 7), (3, 6))}
    cases = [(g, k[rs]) for n in range(1, 8) for g in enumerate_graphs(n)
             for rs in ((2, 3), (2, 4), (3, 3))]
    cases += [(g, k[2, 4]) for g in enumerate_graphs(8)[::25]]
    cases += [(petersen_complement(), k[rs]) for rs in ((2, 6), (4, 4), (2, 7), (3, 6))]
    searches = 0
    for g, h in cases:
        for within in {(1 << g.n) - 1, *g.component_masks()}:
            if h.n > within.bit_count():
                continue
            expected = _reference_minor_search(g, h, DEFAULT_BUDGET, within)
            spent = expected[2]
            assert _minor_search(g, h, spent, within) == expected, (g.to_graph6(), h.rows, within)
            if spent:
                with pytest.raises(BudgetExhausted):
                    _minor_search(g, h, spent - 1, within)
            searches += 1
    assert searches == 4575
    # the reference, verbatim, runs out one expansion below its count too;
    # shown on the four large searches, since it is deterministic
    g = petersen_complement()
    for rs in ((2, 6), (4, 4), (2, 7), (3, 6)):
        spent = _reference_minor_search(g, k[rs], DEFAULT_BUDGET, (1 << g.n) - 1)[2]
        with pytest.raises(BudgetExhausted):
            _reference_minor_search(g, k[rs], spent - 1, (1 << g.n) - 1)


# The star route that the inline walk of _star_search replaced, verbatim
# but for the two names and for the generator it draws from: the reference
# for the differential test below.


def _reference_star_boundary(g: Graph, b: int, budget: int, within: int):
    """The boundary criterion for K_{1,b} inside the vertex mask `within`,
    a union of components of g: a star minor with b leaves exists iff some
    connected set S has at least b neighbours outside S.  Returns (S, N(S)
    minus S, expansions) for the first such S found, or (0, 0,
    expansions); one expansion per connected set examined, and raises
    BudgetExhausted past the budget.  Singletons go first, since a vertex
    of degree >= b settles it; larger sets need |S| <= |within| - b."""
    rows = g.rows
    count = 0
    for v in _bits(within):
        count += 1
        if count > budget:
            raise BudgetExhausted(f"expansion budget {budget} exhausted")
        if rows[v].bit_count() >= b:
            return 1 << v, rows[v], count
    for s, nb in _reference_connected_subsets(rows, within, within.bit_count() - b):
        if not s & (s - 1):
            continue
        count += 1
        if count > budget:
            raise BudgetExhausted(f"expansion budget {budget} exhausted")
        nb &= ~s
        if nb.bit_count() >= b:
            return s, nb, count
    return 0, 0, count


def _reference_star_search(g: Graph, h: Graph, budget: int, within: int):
    """_minor_search for a star pattern h via the boundary criterion: the
    centre's branch set is S, each leaf a single vertex of N(S) minus S."""
    s, nb, used = _reference_star_boundary(g, h.n - 1, budget, within)
    if not s:
        return False, None, used
    centre = next(v for v in range(h.n) if h.degree(v) == h.n - 1)
    out = [1 << u for u in _bits(nb)][: h.n - 1]
    out.insert(centre, s)
    return True, out, used


def test_inline_star_walk_matches_generator_driven_star_search():
    # (found, branch masks, expansions) of the inline star walk equal the
    # generator-driven route's on the whole vertex set and on every
    # component, for every b below the order; it runs with the
    # reference's count as its budget and runs out one expansion below it
    graphs = [g for n in range(2, 8) for g in enumerate_graphs(n)]
    graphs += enumerate_graphs(8)[::25]
    graphs += [petersen(), petersen_complement()]
    graphs += [subdivided_clique(5, k) for k in range(7)]
    searches = 0
    for g in graphs:
        for b in range(1, g.n):
            h = complete_bipartite(1, b)
            for within in {(1 << g.n) - 1, *g.component_masks()}:
                expected = _reference_star_search(g, h, DEFAULT_BUDGET, within)
                spent = expected[2]
                assert _star_search(g, h, spent, within) == expected, (g.to_graph6(), b, within)
                if spent:
                    with pytest.raises(BudgetExhausted):
                        _star_search(g, h, spent - 1, within)
                searches += 1
    assert searches == 15011
