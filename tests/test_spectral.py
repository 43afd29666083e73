"""Spectral computations: alpha matrices, radii, quotients, polynomials."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kabminor import spectral
from kabminor.extremal import _stable_partition, enumerate_graphs
from kabminor.graphs import (
    Graph,
    _bits,
    complete,
    cycle,
    disjoint_union,
    empty_graph,
    from_edges,
    join,
    path_graph,
    petersen_complement,
    star,
    subdivided_clique,
)
from kabminor.spectral import (
    alpha_matrix,
    f1_eval,
    f1_threshold_closed,
    f2_eval,
    f2_threshold_closed,
    g_eval,
    h_eval,
    perron_stats,
    quotient,
    quotient_radius_check,
    spectral_radii,
    spectral_radius,
    SpectralResult,
    subdivided_clique_partition,
    threshold,
    xy_identity_check,
)

ALPHAS = [0.0, 0.25, 0.5, 0.75, 0.9]


def eigen_equation_residual(g, alpha, res):
    """Worst-case violation of lam*x_v = alpha*d(v)*x_v + (1-alpha)*sum of
    neighbour coordinates, re-derived entrywise from the graph, apart from
    the solver's own residual check."""
    worst = 0.0
    x = res.vector
    for v in range(g.n):
        rhs = alpha * g.degree(v) * x[v] + (1 - alpha) * sum(x[u] for u in g.neighbors(v))
        worst = max(worst, abs(res.lam * x[v] - rhs))
    return worst


def random_connected(rng, n, p=0.4):
    while True:
        m = (rng.random((n, n)) < p)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if m[i, j]:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        from kabminor.graphs import Graph

        g = Graph(n, tuple(rows))
        if g.is_connected():
            return g


def test_alpha_matrix_basic():
    g = complete(2)
    for a in ALPHAS:
        m = alpha_matrix(g, a)
        assert np.allclose(m, [[a, 1 - a], [1 - a, a]])
    g = cycle(4)
    assert np.allclose(alpha_matrix(g, 0.0), nx_adj(g))
    with pytest.raises(ValueError):
        alpha_matrix(g, 1.0)
    with pytest.raises(ValueError):
        alpha_matrix(g, -0.1)


def nx_adj(g):
    n = g.n
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def test_half_alpha_is_half_signless_laplacian():
    g = subdivided_clique(5, 2)
    q = np.diag([g.degree(v) for v in range(g.n)]) + nx_adj(g)
    assert np.allclose(alpha_matrix(g, 0.5), q / 2)


def test_regular_graph_radius():
    for a in ALPHAS:
        assert abs(spectral_radius(complete(6), a).lam - 5) < 1e-9
        assert abs(spectral_radius(cycle(7), a).lam - 2) < 1e-9


def test_star_radius_closed_form():
    res = spectral_radius(star(4), 0.5)
    assert abs(res.lam - 2.5) < 1e-9
    # adjacency radius of a star is sqrt(leaves)
    assert spectral_radius(star(8), 0.0).lam >= math.sqrt(8) - 1e-9


def test_radius_matches_numpy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected(rng, int(rng.integers(4, 9)))
        for a in ALPHAS:
            ours = spectral_radius(g, a)
            ref = float(np.linalg.eigvalsh(alpha_matrix(g, a))[-1])
            assert abs(ours.lam - ref) < 1e-9
            assert eigen_equation_residual(g, a, ours) <= 1e-10
            assert min(ours.vector) > 0 and ours.is_perron
            assert abs(np.linalg.norm(ours.vector) - 1) < 1e-9


def test_disconnected_radius():
    g = disjoint_union([complete(4), complete(3)])
    res = spectral_radius(g, 0.3)
    assert abs(res.lam - 3) < 1e-9
    assert not res.is_perron
    assert any(x == 0.0 for x in res.vector)


def test_disconnected_tie_takes_component_of_vertex_zero():
    # two equal triangles tie at lambda = 2; the vector must live on the
    # component that holds vertex 0
    g = disjoint_union([cycle(3), cycle(3)])
    for a in (0.0, 0.5):
        res = spectral_radius(g, a)
        assert abs(res.lam - 2) < 1e-12 and not res.is_perron
        assert min(res.vector[:3]) > 0 and res.vector[3:] == (0.0, 0.0, 0.0)
    g = from_edges(6, [(0, 3), (3, 5), (5, 0), (1, 2), (2, 4), (4, 1)])
    res = spectral_radius(g, 0.3)
    assert [v for v, x in enumerate(res.vector) if x > 0] == [0, 3, 5]


def test_eigh_matches_oracle_on_all_connected_graphs_up_to_order_7():
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=True):
            for a in (0.0, 0.5, 0.9):
                res = spectral_radius(g, a)
                ref = float(np.linalg.eigvalsh(alpha_matrix(g, a))[-1])
                assert abs(res.lam - ref) <= 1e-9, (g.to_graph6(), a)
                assert eigen_equation_residual(g, a, res) <= 1e-10
                assert res.is_perron and min(res.vector) > 0, (g.to_graph6(), a)


def _reference_matrix(g, a):
    n = g.n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in g.rows), dtype=np.uint8)
    adj = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")
    m = (1.0 - a) * adj
    m[np.diag_indices(n)] = a * np.array(g.degrees(), dtype=float)
    return m


def _reference_component(g, a):
    m = _reference_matrix(g, a)
    w, v = np.linalg.eigh(m)
    lam = float(w[-1])
    x = np.abs(v[:, -1])
    resid = float(np.max(np.abs(m @ x - lam * x)))
    assert resid <= spectral.RESIDUAL_TOL
    return lam, x, resid


def _reference_radius(g, a):
    """The per-graph path that spectral_radii replaced: one eigh per
    component, the first component within the tie tolerance wins."""
    comps = g.component_masks()
    if len(comps) == 1:
        lam, x, resid = _reference_component(g, a)
        x = x / np.linalg.norm(x)
        return SpectralResult(lam, tuple(x.tolist()), resid, True)
    best = None
    for mask in comps:
        verts = list(_bits(mask))
        lam, x, resid = _reference_component(g.induced(verts), a)
        if best is None or lam > best[0] + spectral.LAMBDA_TIE_TOL:
            best = (lam, verts, x, resid)
    lam, verts, x, resid = best
    full = np.zeros(g.n)
    full[verts] = x
    full /= np.linalg.norm(full)
    return SpectralResult(lam, tuple(full.tolist()), resid, False)


def _bits_of(res):
    return (res.lam.hex(), tuple(v.hex() for v in res.vector), res.residual.hex(), res.is_perron)


def test_batched_radii_match_per_graph_path_bit_for_bit():
    # _reference_radius solves every component, one-vertex ones included,
    # so this also checks that skipping them changes no bit
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    disconnected_8 = [g for g in enumerate_graphs(8) if not g.is_connected()]
    assert len(disconnected_8) == 1229
    graphs += disconnected_8
    edgeless = [empty_graph(n) for n in (1, 2, 5, 8)]
    isolated_first = [disjoint_union([complete(1), g])
                      for n in range(1, 7) for g in enumerate_graphs(n)]
    k1_k2 = disjoint_union([complete(1), complete(2)])
    batches = [graphs, edgeless, [k1_k2] + edgeless, isolated_first + edgeless + [k1_k2]]
    for a in (0.0, 0.5, 0.9):
        for batch in batches:
            got = spectral_radii(batch, a)
            assert len(got) == len(batch)
            for g, lam in zip(batch, got):
                ref = _reference_radius(g, a)
                assert lam.hex() == ref.lam.hex(), (g.to_graph6(), a)
                assert _bits_of(spectral_radius(g, a)) == _bits_of(ref), (g.to_graph6(), a)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 130])
def test_alpha_matrices_match_entrywise_assembly_across_byte_boundaries(n):
    rng = random.Random(n)
    graphs = [from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p]) for p in (0.05, 0.5, 0.95)]
    for a in (0.0, 0.5, 0.9):
        stack = spectral._alpha_matrices([g.rows for g in graphs], n, a)
        assert stack.shape == (len(graphs), n, n)
        for g, m in zip(graphs, stack):
            ref = np.zeros((n, n))
            for u in range(n):
                ref[u, list(g.neighbors(u))] = 1.0 - a
                ref[u, u] = a * g.degrees()[u]
            assert np.array_equal(m, ref)
            assert np.array_equal(alpha_matrix(g, a), ref)


def test_batched_radii_do_not_depend_on_the_batch():
    rng = random.Random(11)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [subdivided_clique(8, 5), disjoint_union([complete(9), cycle(9), complete(9)]),
               join(complete(2), disjoint_union([cycle(5)] * 3)), petersen_complement()]
    rng.shuffle(graphs)
    for a in (0.0, 0.5, 0.9):
        batch = spectral_radii(graphs, a)
        for g, lam in zip(graphs, batch):
            assert lam.hex() == spectral_radii([g], a)[0].hex(), (g.to_graph6(), a)
            assert lam.hex() == spectral_radius(g, a).lam.hex()


def test_batched_residual_above_tolerance_raises(monkeypatch):
    # connected graphs, so every solved residual is reported, in two
    # stacks of many matrices each
    graphs = enumerate_graphs(6, connected_only=True) + enumerate_graphs(7, connected_only=True)
    worst = max(spectral_radius(g, 0.5).residual for g in graphs)
    assert worst > 0
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", worst)
    spectral_radii(graphs, 0.5)
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", float(np.nextafter(worst, 0.0)))
    with pytest.raises(RuntimeError, match="eigen residual"):
        spectral_radii(graphs, 0.5)
    with pytest.raises(ValueError):
        spectral_radii([complete(3), Graph(0, ())], 0.5)


def test_perron_vector_nonnegative_below_rounding():
    # Perron entries fall to about 1e-28 here, below eigh's rounding, so
    # some come back as tiny negatives unless their sign is cleared
    g = subdivided_clique(30, 31)
    res = spectral_radius(g, 0.9)
    assert res.is_perron and min(res.vector) >= 0
    assert res.residual <= 1e-10


def test_quotient_star():
    g = star(4)
    q = quotient(g, 0.5, [(0,), (1, 2, 3, 4)])
    assert q.equitable
    assert np.allclose(q.as_array(), [[0.5 * 4, 0.5 * 4], [0.5, 0.5]])
    assert abs(q.rho() - 2.5) < 1e-12


def test_quotient_single_class_row_sum():
    g = subdivided_clique(4, 1)
    q = quotient(g, 0.3, [tuple(range(g.n))])
    # row sum of the alpha matrix at v is d(v), so the average is 2e/n
    assert abs(q.entries[0][0] - 2 * g.e / g.n) < 1e-12
    assert not q.equitable  # degrees differ


def test_quotient_radius_check():
    for b in range(3, 9):
        for a in (0.0, 0.3, 0.7):
            g = subdivided_clique(b, 1)
            rq, rf, d = quotient_radius_check(g, a, subdivided_clique_partition(b))
            assert d <= 1e-8
    g = complete(5)
    rq, rf, d = quotient_radius_check(g, 0.4, [tuple(range(5))])
    assert abs(rq - 4) < 1e-9 and abs(rf - 4) < 1e-9


def test_quotient_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        quotient(g, 0.1, [(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        quotient_radius_check(subdivided_clique(4, 1), 0.1, [tuple(range(5))])


@pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
def test_quotient_eigenvalues_match_the_nonsymmetric_reference(a):
    # the stable partition of every graph is equitable; the reference
    # solves the quotient matrix as it stands, with the nonsymmetric solver
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            q = quotient(g, a, _stable_partition(g.rows))
            assert q.equitable
            ref = np.sort(np.linalg.eigvals(q.as_array()).real)
            got = q.eigenvalues()
            scale = max(1.0, abs(ref).max())
            assert np.abs(got - ref).max() <= 1e-12 * scale, (g.to_graph6(), a)
            if g.is_connected():
                lam = spectral_radius(g, a).lam
                assert abs(q.rho() - lam) <= 1e-12 * max(1.0, lam), (g.to_graph6(), a)


def test_quotient_rho_refuses_a_partition_that_is_not_equitable():
    g = subdivided_clique(4, 1)
    q = quotient(g, 0.3, [tuple(range(g.n))])
    with pytest.raises(ValueError, match="not equitable"):
        q.rho()


def test_quotient_char_poly_matches_cubic():
    b, a = 4, 0.25
    q = quotient(subdivided_clique(b, 1), a, subdivided_clique_partition(b))
    coeffs = np.poly(q.as_array())
    for x in (0.0, 1.0, 2.5, b - 1.0):
        assert abs(np.polyval(coeffs, x) - f1_eval(b, a, x)) < 1e-8 * max(
            1, abs(f1_eval(b, a, x))
        )


def test_cubic_roots_are_radii():
    lam = spectral_radius(subdivided_clique(5, 1), 0.4).lam
    assert abs(f1_eval(5, 0.4, lam)) <= 1e-7
    from kabminor.graphs import clique_with_pendants

    lam2 = spectral_radius(clique_with_pendants(5), 0.4).lam
    assert abs(f2_eval(5, 0.4, lam2)) <= 1e-7


def test_threshold_closed_forms():
    assert abs(f1_threshold_closed(3, 0.0) - (-3.0)) < 1e-12
    assert abs(f1_eval(3, 0.0, threshold(3, 0.0)) - (-3.0)) < 1e-12
    for b in range(3, 13):
        for a in (0.0, 0.2, 0.5, 0.8):
            x = threshold(b, a)
            assert abs(f1_eval(b, a, x) - f1_threshold_closed(b, a)) < 1e-8
            assert abs(f2_eval(b, a, x) - f2_threshold_closed(b, a)) < 1e-8
            assert f2_eval(b, a, x) < 0


def test_g_identity():
    b, a = 6, 0.3
    diff = g_eval(b, a, b - 2) - g_eval(b, a, 2)
    assert abs(diff - 1.28) < 1e-10
    assert abs(g_eval(4, 0.7, 2) - g_eval(4, 0.7, 4 - 2)) < 1e-12


def test_h_matches_g_on_candidates():
    from kabminor.graphs import pendant_matching_graph

    for b, u2, a in [(6, 4, 0.5), (6, 2, 0.5), (4, 2, 0.3)]:
        g = pendant_matching_graph(b, u2)
        lam = spectral_radius(g, a).lam
        assert abs(h_eval(b, a, u2, lam) - g_eval(b, a, u2)) < 1e-8


def test_xy_identity():
    g = cycle(5)
    assert xy_identity_check(g, g, 0.3) < 1e-12
    h = join(complete(1), path_graph(4))
    assert xy_identity_check(g, h, 0.2) <= 1e-8
    with pytest.raises(ValueError):
        xy_identity_check(cycle(4), cycle(5), 0.2)


def test_perron_stats_bounds():
    g = join(complete(1), disjoint_union([complete(3), complete(3), complete(1)]))
    st_ = perron_stats(g, 0.0, (0,))
    assert st_.lower_ok and st_.upper_ok
    assert st_.X_m <= st_.X_M
    # within one clique block all coordinates agree by symmetry
    x = spectral_radius(g, 0.3).vector
    assert abs(x[1] - x[2]) < 1e-9 and abs(x[2] - x[3]) < 1e-9
    with pytest.raises(ValueError):
        perron_stats(cycle(5), 0.1, (0,))


def test_perron_stats_vertex_transitive_scope():
    g = join(complete(1), complete(4))
    st_ = perron_stats(g, 0.2, (0,))
    assert abs(st_.X_M - st_.X_m) < 1e-10


def test_subgraph_monotonicity_sample():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_connected(rng, 7)
        if g.e == g.n * (g.n - 1) // 2:
            continue
        # delete an edge keeping connectivity
        for u, v in g.edges():
            h = g.delete_edge(u, v)
            if h.is_connected():
                break
        else:
            continue
        for a in (0.0, 0.5):
            assert spectral_radius(h, a).lam < spectral_radius(g, a).lam - 1e-9


def test_max_degree_bound():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = random_connected(rng, 6)
        for a in (0.0, 0.4, 0.8):
            lam = spectral_radius(g, a).lam
            assert lam <= g.max_degree() + 1e-9
            degs = set(g.degrees())
            if len(degs) == 1:
                assert abs(lam - g.max_degree()) <= 1e-9
            else:
                assert lam < g.max_degree() - 1e-9


def test_alpha_zero_is_lower_bound():
    rng = np.random.default_rng(13)
    for _ in range(8):
        g = random_connected(rng, 6)
        lam0 = spectral_radius(g, 0.0).lam
        for a in (0.2, 0.5, 0.9):
            assert lam0 <= spectral_radius(g, a).lam + 1e-9


def test_rewiring_increases_radius():
    # move edges from the lighter endpoint to the heavier one
    g = from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (1, 5)])
    for a in (0.0, 0.3, 0.6):
        x = spectral_radius(g, a).vector
        u, v = (0, 1) if x[0] >= x[1] else (1, 0)
        movable = [w for w in g.neighbors(v) if w != u and not g.has_edge(u, w)]
        assert movable
        h = g
        for w in movable:
            h = h.delete_edge(v, w).add_edge(u, w)
        assert spectral_radius(h, a).lam > spectral_radius(g, a).lam + 1e-9


def test_petersen_complement_radius():
    # 6-regular, so the radius is 6 at every alpha
    for a in ALPHAS:
        assert abs(spectral_radius(petersen_complement(), a).lam - 6) < 1e-9
