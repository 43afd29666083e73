"""Graph core: constructions, edit operations, graph6 codec."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kabminor.graphs import (
    FamilyParams,
    Graph,
    clique_with_pendants,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    extremal_family,
    f_graph,
    from_edges,
    from_graph6,
    join,
    path_graph,
    pendant_matching_graph,
    petersen,
    petersen_complement,
    star,
    star_forest,
    subdivided_clique,
    CLAUSE_APEX_CLIQUES,
    CLAUSE_APEX_PETERSEN,
    CLAUSE_STAR_FOREST,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def iso(g: Graph, h: Graph) -> bool:
    return nx.is_isomorphic(to_nx(g), to_nx(h))


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    edges = [e for e, b in zip(itertools.combinations(range(n), 2), bits) if b]
    return from_edges(n, edges)


def test_complete_counts():
    assert complete(4).n == 4 and complete(4).e == 6
    assert complete(0).n == 0 and complete(0).e == 0
    assert complete(1).e == 0


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # loop
    with pytest.raises(ValueError):
        Graph(1, (2,))  # out of range
    for edge in ((0, 5), (0, 3), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
            from_edges(3, [(0, 1), edge])


def test_join_edge_count():
    g = join(complete(1), cycle(4))
    assert g.n == 5 and g.e == 8
    g = join(complete(1), disjoint_union([complete(3), complete(3), complete(1)]))
    assert g.n == 8 and g.e == 0 + 6 + 7 == 13
    assert len(g.edges()) == 13
    g2 = join(empty_graph(0), cycle(4))
    assert g2.rows == cycle(4).rows


def test_disjoint_union():
    g = disjoint_union([complete(2), complete(2)])
    assert g.n == 4 and g.e == 2
    g = disjoint_union([complete(4)] * 3)
    assert g.n == 12 and g.e == 18
    assert disjoint_union([]).n == 0


def test_complement():
    g = disjoint_union([complete(2), complete(2)])
    assert iso(g.complement(), cycle(4))
    assert petersen().complement().e == 30
    h = cycle(5)
    assert h.complement().complement().rows == h.rows


def test_join_complement_duality():
    g, h = cycle(4), complete(3)
    lhs = join(g, h).complement()
    rhs = disjoint_union([g.complement(), h.complement()])
    assert lhs.rows == rhs.rows


def test_star_forest_structure():
    f = star_forest(1, 3)
    assert iso(f, disjoint_union([complete(2), complete(2)]))
    f = star_forest(2, 8)
    assert f.n == 9 and f.e == 6
    comps = f.component_masks()
    assert len(comps) == 3  # three stars with two leaves each
    for a, b in [(1, 3), (2, 5), (2, 8), (3, 11)]:
        f = star_forest(a, b)
        tau = (b + 1) // (a + 1)
        assert f.n == b + 1
        assert f.e == b + 1 - tau
        comps = f.component_masks()
        assert len(comps) == tau
        assert all(bin(m).count("1") >= a + 1 for m in comps)


def _bfs_components(g):
    """Vertex bitmasks of the components by a plain breadth-first search
    over neighbour lists, by smallest vertex."""
    seen, out = set(), []
    for v in range(g.n):
        if v in seen:
            continue
        seen.add(v)
        queue, mask = [v], 0
        for u in queue:
            mask |= 1 << u
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append(mask)
    return out


def test_component_masks_match_bfs():
    from kabminor.extremal import enumerate_graphs

    # above 64 vertices, components interleaved by a random relabelling
    big = disjoint_union([path_graph(40), complete(1), cycle(30), complete(5), empty_graph(3)])
    rng = random.Random(3)
    big = big.relabel(rng.sample(range(big.n), big.n))
    graphs = [empty_graph(0), big] + [g for n in range(1, 8) for g in enumerate_graphs(n)]
    for g in graphs:
        assert g.component_masks() == _bfs_components(g), g.to_graph6()
    assert len(big.component_masks()) == 7


def test_star_forest_complement_edge_count():
    a, b = 2, 5
    tau = (b + 1) // (a + 1)
    g = star_forest(a, b).complement()
    assert g.e == b * (b - 1) // 2 + tau - 1 == 11


def test_f_graph():
    g = f_graph(2, 0, 2)  # b = 5
    assert g.n == 7 and g.e == 12
    v2 = g.labels.index("v2")
    assert g.degree(v2) == 2
    for parts in [(1, 2, 2), (5, 0, 0), (0, 0, 5), (2, 1, 2)]:
        b = sum(parts) + 1
        assert f_graph(*parts).e == b * (b - 1) // 2 + 2


def test_petersen():
    p = petersen()
    assert p.n == 10 and p.e == 15
    assert all(p.degree(v) == 3 for v in range(10))
    assert nx.is_isomorphic(to_nx(p), nx.petersen_graph())
    pc = petersen_complement()
    assert pc.e == 30
    assert all(pc.degree(v) == 6 for v in range(10))


def test_subdivided_clique():
    assert iso(subdivided_clique(3, 1), cycle(4))
    g = subdivided_clique(4, 2)
    assert g.n == 6 and g.e == 8
    assert subdivided_clique(5, 0).rows == complete(5).rows
    for b, k in [(4, 2), (5, 3), (6, 2)]:
        g = subdivided_clique(b, k)
        assert g.e == b * (b - 1) // 2 + k
        assert sum(1 for v in range(g.n) if g.degree(v) == 2) == k
    # the subdivided pair becomes a path of length k+1 between 0 and 1
    # through the new degree-2 vertices
    b, k = 4, 3
    g = subdivided_clique(b, k)
    assert not g.has_edge(0, 1)
    chain = [0] + list(range(b, b + k)) + [1]
    assert all(g.has_edge(u, v) for u, v in zip(chain, chain[1:]))


def test_clique_with_pendants():
    g = clique_with_pendants(5)
    assert g.n == 7 and g.e == 5 * 4 // 2 - 1 + 2
    assert g.degree(5) == 1 and g.degree(6) == 1
    assert not g.has_edge(0, 1)


def test_pendant_matching_graph():
    for b, u2 in [(4, 2), (6, 2), (6, 4), (8, 6)]:
        g = pendant_matching_graph(b, u2)
        assert g.n == b + 1
        assert g.degree(b) == u2
        assert all(g.degree(v) == b - 1 for v in range(b))
    with pytest.raises(ValueError):
        pendant_matching_graph(6, 3)
    with pytest.raises(ValueError):
        pendant_matching_graph(6, 6)
    # u2 = b-2 is the star-forest complement of the odd-order case
    g = pendant_matching_graph(4, 2)
    assert iso(g, star_forest(1, 4).complement())


def test_edit_operations():
    p3 = path_graph(3)
    assert iso(p3.add_edge(0, 2), complete(3))
    with pytest.raises(ValueError):
        p3.add_edge(0, 1)
    with pytest.raises(ValueError):
        p3.delete_edge(0, 2)
    assert p3.delete_edge(0, 1).e == 1


def test_family_params():
    p = FamilyParams(2, 5, 18)
    assert (p.k, p.t, p.tau, p.omega) == (3, 2, 2, 2)
    p = FamilyParams(1, 3, 7)
    assert (p.k, p.t, p.tau, p.omega) == (2, 1, 2, 1)
    p = FamilyParams(4, 8, 21)
    assert (p.k, p.t, p.tau) == (2, 2, 1)
    with pytest.raises(ValueError):
        FamilyParams(3, 2, 5)


def test_extremal_family_constructions():
    g = extremal_family(FamilyParams(2, 3, 8), CLAUSE_APEX_CLIQUES)
    assert g.n == 8 and g.e == 13
    g = extremal_family(FamilyParams(4, 8, 21), CLAUSE_APEX_PETERSEN)
    assert g.n == 21
    assert g.e == 3 + 3 * 18 + 28 + 30
    g = extremal_family(FamilyParams(1, 4, 5), CLAUSE_STAR_FOREST)
    assert g.e == 7
    with pytest.raises(ValueError):
        extremal_family(FamilyParams(2, 3, 8), CLAUSE_STAR_FOREST)


def test_graph6_known_values():
    assert complete(4).to_graph6() == "C~"
    assert from_graph6("C~").rows == complete(4).rows
    with pytest.raises(ValueError):
        from_graph6("C~~")  # wrong body length
    with pytest.raises(ValueError):
        from_graph6("C\x1f")  # out-of-range character
    with pytest.raises(ValueError):
        from_graph6("")
    for truncated in ("~", "~??"):  # long-form order field needs 3 chars
        with pytest.raises(ValueError, match="truncated"):
            from_graph6(truncated)


def _random_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])


def test_graph6_matches_networkx():
    # orders from 63 on take the '~' long-form header
    long_form = [_random_graph(n, n) for n in (63, 64, 100, 300)]
    for g in [petersen(), cycle(7), star(5), subdivided_clique(5, 2),
              disjoint_union([complete(3), complete(2)])] + long_form:
        ours = g.to_graph6()
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs
        assert from_graph6(ours).rows == g.rows
    assert all(g.to_graph6().startswith("~") for g in long_form)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_graph6_roundtrip(g):
    assert from_graph6(g.to_graph6()).rows == g.rows


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_complement_involution(g):
    assert g.complement().complement().rows == g.rows
    assert g.e + g.complement().e == g.n * (g.n - 1) // 2


def test_dot_export():
    d = cycle(3).to_dot()
    assert "0 -- 1" in d and d.startswith("graph")


def test_relabel_and_induced():
    g = path_graph(4)
    h = g.relabel([3, 2, 1, 0])
    assert iso(g, h) and h.has_edge(3, 2)
    sub = g.induced([1, 2])
    assert sub.n == 2 and sub.e == 1


def test_derived_graphs_equal_validated_constructions():
    # induced, induced_mask, complement and relabel skip the symmetry
    # check; each result must equal an independent validated construction
    from kabminor.extremal import enumerate_graphs

    labelled = [star(3), join(complete(1), star(2))]
    for g in [h for n in range(1, 8) for h in enumerate_graphs(n)] + labelled:
        n, edges = g.n, g.edges()
        labels = g.labels or [None] * n
        non_edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if not g.has_edge(u, v)]
        assert g.complement() == Graph(n, from_edges(n, non_edges).rows, g.labels)
        perm = [(n - v) % n for v in range(n)]
        moved = [None] * n
        for v in range(n):
            moved[perm[v]] = labels[v]
        assert g.relabel(perm) == from_edges(n, [(perm[u], perm[v]) for u, v in edges],
                                             moved if g.labels else None)
        verts = list(range(n - 1, -1, -2))
        pos = {v: i for i, v in enumerate(verts)}
        sub = from_edges(len(verts), [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos],
                         [labels[v] for v in verts] if g.labels else None)
        assert g.induced(verts) == sub
        assert g.induced_mask(sum(1 << v for v in verts)) == sub.relabel(list(range(len(verts)))[::-1])
        for h in (g.complement(), g.relabel(perm), g.induced(verts)):
            assert Graph(h.n, h.rows, h.labels) == h
