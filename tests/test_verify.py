"""Verification suites: statuses, margins, artifacts, reproducibility."""

import json
import types

import numpy as np
import pytest

from kabminor import cli, extremal, minors, verify
from kabminor.graphs import (
    complete,
    disjoint_union,
    f_graph,
    join,
    path_graph,
    pendant_matching_graph,
    subdivided_clique,
)
from kabminor.verify import (
    STATUS_FAIL,
    STATUS_INCONCLUSIVE,
    STATUS_PASS,
    SUITES,
    alpha_grid,
    check_degree_ordering_claim,
    check_edge_lemmas,
    check_lemma_updown,
    check_mm_bounds,
    check_polynomial_identities,
    check_theorem_small_n,
    run_suites,
)
from kabminor.spectral import quotient_radius_check, spectral_radius, subdivided_clique_partition


def test_alpha_grid():
    g = alpha_grid()
    assert g == tuple(round(0.1 * i, 10) for i in range(10))
    g4 = alpha_grid(4)
    assert 2 / 5 in g4 and len(g4) == 10  # 0.4 collides with a tenth
    g5 = alpha_grid(5)
    assert 1 / 3 in g5 and len(g5) == 11


def test_lemma_updown_passes():
    out = check_lemma_updown()
    assert out.status == STATUS_PASS
    # the chain inequality is tight at b = 3, so the worst margin is 0
    assert out.margin is not None and out.margin >= 0
    assert out.artifacts == ()


def test_lemma_updown_custom_range():
    out = check_lemma_updown(range(3, 5), alphas=(0.0, 0.5))
    assert out.status == STATUS_PASS
    assert out.scope["b"] == [3, 4]


def test_mm_bounds_exact_parts_hold():
    out = check_mm_bounds()
    # exact coordinate bounds never fail; asymptotic consequences may
    # lag at these orders, which is reported, not failed
    assert out.status in (STATUS_PASS, STATUS_INCONCLUSIVE)
    assert out.artifacts == ()
    assert any("ratio trajectory" in n for n in out.notes)


def test_degree_ordering_passes():
    out = check_degree_ordering_claim()
    assert out.status == STATUS_PASS
    assert out.margin > 0


def test_degree_ordering_rejects_bad_partition():
    with pytest.raises(ValueError):
        check_degree_ordering_claim(cases=((2, 6, 1, 2, 2),))


def test_edge_lemmas_pass():
    outs = check_edge_lemmas()
    assert len(outs) == 4
    ids = [o.check_id for o in outs]
    assert ids == [
        "edge-bound-star-minor-free",
        "edge-max-property-order-5",
        "edge-max-property-order-6",
        "complement-criterion-agreement",
    ]
    for o in outs:
        assert o.status == STATUS_PASS, o.to_json()


@pytest.mark.parametrize("suite", ["theorem-small-n", "edge-lemmas"])
def test_starved_verify_exits_budget(capsys, monkeypatch, suite):
    # a budget of one expansion leaves minor checks undecided: the filter
    # raises, and verify reports budget exhaustion, never a status
    monkeypatch.setattr(extremal, "has_minor",
                        lambda g, h, budget=None: minors.has_minor(g, h, 1))
    assert cli.main(["verify", suite]) == cli.EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: minor-search budget exhausted on candidate ")


def test_polynomial_identities_pass():
    outs = check_polynomial_identities()
    assert [o.status for o in outs] == [STATUS_PASS] * 6
    assert all(o.margin > 0 for o in outs)
    assert [o.check_id for o in outs[3:]] == [
        "quotient-radius-equality", "quotient-cubic-identity", "double-eigenvector-identity",
    ]


def _tags(fmt, bs=range(3, 13)):
    return [fmt.format(b=b, alpha=alpha) for b in bs for alpha in alpha_grid(b)]


def test_folded_checks_fail_with_artifacts_in_order(monkeypatch):
    # break the identity each check asserts and read back which instances
    # fail, in sweep order
    def failed(outcome):
        assert outcome.status == STATUS_FAIL
        return list(outcome.artifacts)

    monkeypatch.setattr(verify, "threshold",
                        lambda b, alpha: 100.0 if b == 4 else b - 3 + alpha)
    out = check_lemma_updown(range(3, 5), alphas=(0.0, 0.5))
    assert failed(out) == (["chain:b=3,alpha=0.0", "chain:b=3,alpha=0.5"]
                           + [subdivided_clique(4, k).to_graph6() for k in (1, 2, 5)] * 2)
    monkeypatch.undo()

    monkeypatch.setattr(verify, "spectral_radius",
                        lambda g, alpha: types.SimpleNamespace(vector=np.zeros(g.n)))
    cases = ((2, 6, 1, 2, 3), (2, 6, 1, 3, 2), (2, 7, 1, 3, 3))
    graphs = [join(complete(a - 1), disjoint_union([complete(b)] * k + [f_graph(a1, 0, a3)]))
              for a, b, k, a1, a3 in cases]
    out = check_degree_ordering_claim(cases=cases)
    assert failed(out) == [g.to_graph6() for g in graphs[:2] for _ in range(2)]
    monkeypatch.undo()

    monkeypatch.setattr(verify, "f1_eval", lambda b, alpha, x: 1e6)
    outs = check_polynomial_identities()
    pairs = _tags("path-mismatch:b={b},alpha={alpha} nonnegative:b={b},alpha={alpha}")
    assert failed(outs[0]) == [t for p in pairs for t in p.split()]
    assert failed(outs[4]) == [
        f"b={b},alpha={alpha},x={x}" for b in range(3, 13) for alpha in alpha_grid(b)
        for x in (0.0, 1.0, b - 1.0, spectral_radius(subdivided_clique(b, 1), alpha).lam)]
    assert [o.status for o in outs[1:4] + outs[5:]] == [STATUS_PASS] * 4
    monkeypatch.undo()

    g_eval = verify.g_eval
    monkeypatch.setattr(verify, "g_eval",
                        lambda b, alpha, u: g_eval(b, alpha, u) + (u == 2))
    outs = check_polynomial_identities()
    # at b = 4 both arguments of the difference are 2, so it still holds
    assert failed(outs[1]) == _tags("b={b},alpha={alpha}", [3] + list(range(5, 13)))
    assert failed(outs[2]) == ([pendant_matching_graph(4, 2).to_graph6()] * 6
                               + [pendant_matching_graph(6, 2).to_graph6()] * 3)
    monkeypatch.undo()

    monkeypatch.setattr(verify, "quotient_radius_check", lambda g, alpha, cells: (None, 1.0, 1.0))
    monkeypatch.setattr(verify, "xy_identity_check", lambda g, h, alpha: 1.0)
    outs = check_polynomial_identities()
    assert failed(outs[3]) == failed(outs[5]) == _tags("b={b},alpha={alpha}")


def test_theorem_small_n_asserted_regime():
    out = check_theorem_small_n(1, 3, [4, 5, 6], alphas=(0.0, 0.5))
    assert out.status == STATUS_PASS
    assert out.artifacts == ()


def test_theorem_small_n_star_forest_order():
    out = check_theorem_small_n(1, 4, [5], alphas=(0.2, 0.7))
    assert out.status == STATUS_PASS


def test_theorem_small_n_outside_noted():
    out = check_theorem_small_n(1, 4, [6], alphas=(0.1,))
    # alpha below the window: prediction abstains, noted not failed
    assert out.status == STATUS_PASS
    assert any("outside" in n for n in out.notes)


def test_theorem_small_n_disagreement_asserted_without_caveat(monkeypatch):
    # each prediction's graph is swapped for a path, which is minor free
    # but no maximizer: a caveat-free prediction fails with the search's
    # maximizers, a caveated one is reported and left inconclusive
    real = extremal.predict
    monkeypatch.setattr(extremal, "predict", lambda a, b, n, alpha: real(
        a, b, n, alpha)._replace(graph=path_graph(n)))
    for a, b, n, status in ((1, 3, 5, STATUS_FAIL), (2, 3, 6, STATUS_INCONCLUSIVE)):
        assert (real(a, b, n, 0.5).caveat == "") == (status == STATUS_FAIL)
        rep = extremal.search_max(extremal.enumerate_graphs(n, True), f"kab-minor-free:{a},{b}", 0.5)
        tag = f"n={n},alpha=0.5:maximizers={list(rep.maximizers)}"
        out = check_theorem_small_n(a, b, [n], alphas=(0.5,))
        assert out.status == status
        if status == STATUS_FAIL:
            assert out.artifacts == (tag,) and out.notes == ()
        else:
            assert out.artifacts == () and out.notes == ("report-only disagreement " + tag,)


def test_theorem_small_n_filters_once_per_ranked_order(monkeypatch):
    # the filter does not depend on alpha: one survivors() call per order
    # that some alpha ranks and none for an order every alpha leaves
    # outside; each ranking is the report search_max gives at its alpha
    alphas = (0.1, 0.2, 0.5, 0.7)
    expected = []
    for n in (5, 6, 7):
        for alpha in alphas:
            pred = extremal.predict(1, 4, n, alpha)
            if pred.graph is not None:
                expected.append(extremal.search_max(
                    extremal.InternalCorpus(n, True), "kab-minor-free:1,4", alpha,
                    corpus_source=f"internal:n={n}", prediction=pred).to_json())
    filtered, ranked = [], []
    real_survivors, real_rank = extremal.survivors, extremal.rank_survivors

    def survivors(corpus, constraint, *args):
        filtered.append(corpus.n)
        return real_survivors(corpus, constraint, *args)

    def rank_survivors(*args):
        rep = real_rank(*args)
        ranked.append(rep.to_json())
        return rep

    monkeypatch.setattr(extremal, "survivors", survivors)
    monkeypatch.setattr(extremal, "rank_survivors", rank_survivors)
    assert check_theorem_small_n(1, 4, [5, 6, 7], alphas=alphas).status == STATUS_PASS
    assert filtered == [5, 6, 7] and ranked == expected
    filtered.clear()
    check_theorem_small_n(1, 4, [6], alphas=(0.1, 0.2))
    assert filtered == []


def test_suite_registry_and_unknown():
    assert set(SUITES) == {
        "lemma-updown", "mm-bounds", "degree-ordering", "edge-lemmas",
        "polynomial-identities", "theorem-small-n",
    }
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nope"])


def test_run_suites_subset():
    outs = run_suites(["lemma-updown", "polynomial-identities"])
    assert len(outs) == 7


def test_quotient_checks_use_no_nonsymmetric_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nonsymmetric eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    outs = run_suites(["polynomial-identities"])
    assert [o.status for o in outs] == [STATUS_PASS] * len(outs)
    assert {"quotient-radius-equality", "quotient-cubic-identity"} <= {o.check_id for o in outs}
    rq, rf, d = quotient_radius_check(subdivided_clique(5, 1), 0.5, subdivided_clique_partition(5))
    assert d <= 1e-9 * rf


def test_margins_agree_with_statuses():
    # a check that does not fail reports no negative worst slack
    for o in run_suites(["all"]):
        if o.status != STATUS_FAIL:
            assert o.margin is None or o.margin >= 0, (o.check_id, o.margin)


def test_outcome_json_reproducible():
    a = check_lemma_updown(range(3, 5), alphas=(0.3,)).to_json()
    b = check_lemma_updown(range(3, 5), alphas=(0.3,)).to_json()
    assert a == b
    data = json.loads(a)
    assert set(data) == {"check_id", "scope", "status", "margin", "artifacts", "notes"}
