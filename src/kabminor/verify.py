"""Named, re-runnable verification suites.  Each check sweeps a declared
parameter scope, evaluates a numerical or exhaustive claim, and emits a
CheckOutcome with a signed worst-case margin and reproducing artifacts on
failure.

Suites (runnable from the CLI as `verify <suite>`):
  lemma-updown            spectral lower bound for subdivided cliques
  mm-bounds               Perron-coordinate bounds around dominating cliques
  degree-ordering         path-end coordinate ordering in the F-block family
  edge-lemmas             exhaustive edge bounds and the complement criterion
  polynomial-identities   the cubic/quadratic closed-form identities, and
                          quotient-radius-equality, quotient-cubic-identity
                          and double-eigenvector-identity on subdivided
                          cliques
  theorem-small-n         exhaustive maximizer agreement at small orders

A graph an exhaustive check cannot decide within the default budget
raises minors.BudgetExhausted (CLI exit 3), never a status: inconclusive
marks only the large-order and caveated claims.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from . import extremal as ex
from .graphs import (
    clique_with_pendants,
    complete,
    disjoint_union,
    f_graph,
    join,
    pendant_matching_graph,
    star_forest,
    subdivided_clique,
)
from .minors import ab_property_complement_criterion
from .spectral import (
    f1_eval,
    f1_threshold_closed,
    f2_eval,
    f2_threshold_closed,
    g_eval,
    h_eval,
    perron_stats,
    quotient,
    quotient_radius_check,
    spectral_radius,
    subdivided_clique_partition,
    threshold,
    xy_identity_check,
)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"


def alpha_grid(b: int | None = None) -> tuple[float, ...]:
    """Default sweep grid: tenths in [0, 0.9] plus the 2/(b+1) boundary."""
    grid = [round(0.1 * i, 10) for i in range(10)]
    if b is not None:
        edge = 2 / (b + 1)
        if edge < 1 and all(abs(edge - x) > 1e-12 for x in grid):
            grid.append(edge)
    return tuple(sorted(grid))


class CheckOutcome(NamedTuple):
    check_id: str
    scope: dict
    status: str  # pass | fail | inconclusive
    margin: float | None = None  # signed worst slack; positive = room
    artifacts: tuple[str, ...] = ()  # offending instances, graph6
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "check_id": self.check_id,
                "scope": self.scope,
                "status": self.status,
                "margin": self.margin,
                "artifacts": list(self.artifacts),
                "notes": list(self.notes),
            },
            sort_keys=True,
        )


def _outcome(check_id, scope, failures, margin, notes=(), inconclusive=False):
    if failures:
        return CheckOutcome(check_id, scope, STATUS_FAIL, margin, tuple(failures), tuple(notes))
    status = STATUS_INCONCLUSIVE if inconclusive else STATUS_PASS
    return CheckOutcome(check_id, scope, status, margin, (), tuple(notes))


def _fold(check_id, scope, cases) -> CheckOutcome:
    """The outcome of (artifact, margin, ok) cases: the worst margin, and
    the artifacts of the cases that are not ok, in case order."""
    failures = []
    worst = math.inf
    for artifact, margin, ok in cases:
        worst = min(worst, margin)
        if not ok:
            failures.append(artifact)
    return _outcome(check_id, scope, failures, worst)


def _close(artifact, rel, tol=1e-8):
    """The case of a relative error that must stay within tol."""
    return artifact, tol - rel, rel <= tol


def _rel(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


# ---------------------------------------------------------------------
# spectral lower bound for subdivided cliques
# ---------------------------------------------------------------------

#: orders, less b, of the subdivided cliques check_lemma_updown builds
UPDOWN_OFFSETS = (1, 2, 5)


def check_lemma_updown(b_range=range(3, 9), alphas=None) -> CheckOutcome:
    """lambda_alpha(subdivided clique on b + k vertices), for each k of
    UPDOWN_OFFSETS, exceeds b-1-2(1-alpha)/(b-1), and that point is itself
    >= b-2+alpha."""
    def cases():
        for b in b_range:
            for alpha in alphas if alphas is not None else alpha_grid(b):
                thr = threshold(b, alpha)
                chain = thr - (b - 2 + alpha)
                yield f"chain:b={b},alpha={alpha}", chain, chain >= -1e-12
                for k in UPDOWN_OFFSETS:
                    g = subdivided_clique(b, k)
                    margin = spectral_radius(g, alpha).lam - thr
                    yield g.to_graph6(), margin, margin > 0

    scope = {"b": list(b_range), "n_offsets": list(UPDOWN_OFFSETS)}
    return _fold("spectral-lower-bound-subdivided-clique", scope, cases())


# ---------------------------------------------------------------------
# Perron-coordinate bounds around dominating cliques
# ---------------------------------------------------------------------

def _mm_instances():
    """Apex-over-blocks family instances carrying dominating cliques."""
    out = []
    g = join(complete(1), disjoint_union([complete(5), complete(5),
                                          star_forest(2, 5).complement()]))
    out.append(("apex1-2K5-starforest25", g, (0,)))
    g = join(complete(1), disjoint_union([complete(3), complete(3), complete(1)]))
    out.append(("apex1-2K3-K1", g, (0,)))
    g = join(complete(2), disjoint_union([complete(4), f_graph(3, 0, 2)]))
    out.append(("apex2-K4-fblock", g, (0, 1)))
    return out


def check_mm_bounds() -> CheckOutcome:
    """The two Perron-coordinate bounds hold exactly; the large-order
    consequences (constant-ratio domination, degree-monotone coordinates)
    are reported, with violations marked inconclusive rather than
    failed."""
    failures = []
    notes = []
    inconclusive = False
    worst = math.inf
    alphas = (0.0, 0.3, 0.6)
    for name, g, S in _mm_instances():
        rest = [v for v in range(g.n) if v not in S]
        sub = g.induced(rest)
        for alpha in alphas:
            st = perron_stats(g, alpha, S)
            worst = min(worst, st.lower_margin, st.upper_margin)
            if not (st.lower_ok and st.upper_ok):
                failures.append(f"{name}:alpha={alpha}")
            res = spectral_radius(g, alpha)
            x = res.vector
            for p, q in ((2, 1), (12, 11)):
                if not (p * st.X_m > q * st.X_M and p * st.X_m**2 > q * st.X_M**2):
                    inconclusive = True
                    notes.append(f"{name}:alpha={alpha}:ratio {p}/{q} not yet dominant at n={g.n}")
            degs = sub.degrees()
            for i, u in enumerate(rest):
                for j, v in enumerate(rest):
                    if degs[i] > degs[j] and x[u] <= x[v]:
                        inconclusive = True
                        notes.append(f"{name}:alpha={alpha}:degree ordering not yet strict at n={g.n}")
                        break
                else:
                    continue
                break
    # convergence trajectory: the extreme-coordinate ratio over growing
    # orders of one apex family, so a reader can see the drift toward 1
    traj = []
    for k in (2, 4, 8, 16):
        g = join(complete(1), disjoint_union([complete(3)] * k + [complete(1)]))
        st = perron_stats(g, 0.3, (0,))
        traj.append(f"n={g.n}:Xm/XM={st.X_m / st.X_M:.4f}")
    notes.append("ratio trajectory " + " ".join(traj))
    scope = {"instances": [n for n, _, _ in _mm_instances()], "alphas": list(alphas)}
    return _outcome("perron-extreme-bounds", scope, failures, worst, notes, inconclusive)


# ---------------------------------------------------------------------
# path-end coordinate ordering in the F-block family
# ---------------------------------------------------------------------

def check_degree_ordering_claim(cases=((2, 6, 1, 2, 3), (2, 6, 1, 3, 2), (3, 7, 1, 2, 4))) -> CheckOutcome:
    """Inside apex ∨ (clique copies ∪ F(a1,0,a3)): the Perron coordinate
    of the path end attached to the smaller class is the smaller one;
    equal classes give equal coordinates."""
    alphas = (0.2, 0.5)

    def folded():
        for a, b, k, a1, a3 in cases:
            if a1 + a3 != b - 1:
                raise ValueError("classes must partition b-1")
            block = f_graph(a1, 0, a3)
            g = join(complete(a - 1), disjoint_union([complete(b)] * k + [block]))
            lv1 = g.labels.index("v1")
            lv3 = g.labels.index("v3")
            for alpha in alphas:
                x = spectral_radius(g, alpha).vector
                diff = x[lv3] - x[lv1]
                if a1 < a3:
                    yield g.to_graph6(), diff, diff > 0
                elif a1 > a3:
                    yield g.to_graph6(), -diff, diff < 0
                else:
                    yield g.to_graph6(), -abs(diff) + 1e-9, abs(diff) <= 1e-9

    scope = {"cases": [list(c) for c in cases], "alphas": list(alphas)}
    return _fold("path-end-coordinate-ordering", scope, folded())


# ---------------------------------------------------------------------
# exhaustive edge bounds
# ---------------------------------------------------------------------

def check_edge_lemmas() -> list[CheckOutcome]:
    return [
        _check_edge_bound_star(4, (6, 7)),
        _check_edge_max_property(2, 4),
        _check_edge_max_property(2, 5),
        _check_criterion_agreement(2, 5),
    ]


def _check_edge_bound_star(b: int, n_range) -> CheckOutcome:
    """Connected star-minor-free graphs have at most C(b,2)+n-b edges,
    and the bound is attained."""
    failures = []
    worst = math.inf
    notes = []
    for n in n_range:
        bound = b * (b - 1) // 2 + n - b
        best = -1
        for g in ex.survivors(ex.InternalCorpus(n, connected_only=True), f"star-minor-free:{b}"):
            if g.e > bound:
                failures.append(g.to_graph6())
            best = max(best, g.e)
        worst = min(worst, bound - best)
        if best != bound:
            failures.append(f"bound-not-attained:n={n}")
        notes.append(f"n={n}:max_e={best},bound={bound}")
    return _outcome("edge-bound-star-minor-free", {"b": b, "n": list(n_range)},
                    failures, worst, notes)


def _check_edge_max_property(a: int, b: int) -> CheckOutcome:
    """Edge-maximal connected order-(b+1) graphs with the (a,b)-property
    have C(b,2)+tau-1 edges and forest complements with tau components."""
    tau = (b + 1) // (a + 1)
    target = b * (b - 1) // 2 + tau - 1
    failures = []
    notes = []
    best = -1
    maximizers = []
    for g in ex.survivors(ex.InternalCorpus(b + 1, connected_only=True), f"ab-property:{a},{b}"):
        if g.e > best:
            best, maximizers = g.e, [g]
        elif g.e == best:
            maximizers.append(g)
    if best != target:
        failures.append(f"max-e={best},expected={target}")
    for g in maximizers:
        comp = g.complement()
        comps = comp.component_masks()
        acyclic = comp.e == comp.n - len(comps)
        if not acyclic or len(comps) != tau:
            failures.append(g.to_graph6())
    notes.append(f"max_e={best},maximizers={len(maximizers)},tau={tau}")
    return _outcome(f"edge-max-property-order-{b + 1}", {"a": a, "b": b},
                    failures, float(target - best) if best >= 0 else None, notes)


def _check_criterion_agreement(a: int, b: int) -> CheckOutcome:
    """The complement-component criterion agrees with the direct
    (a,b)-property test on every connected graph of order b+1."""
    corpus = ex.enumerate_graphs(b + 1, connected_only=True)
    held = set(ex.survivors(corpus, f"ab-property:{a},{b}"))
    failures = [g.to_graph6() for g in corpus
                if (g in held) != ab_property_complement_criterion(g, a, b)]
    return _outcome("complement-criterion-agreement", {"a": a, "b": b, "graphs": len(corpus)},
                    failures, None)


# ---------------------------------------------------------------------
# polynomial identities
# ---------------------------------------------------------------------

#: b values of the identities swept over alpha_grid(b)
_IDENTITY_BS = range(3, 13)


def check_polynomial_identities() -> list[CheckOutcome]:
    return [
        _check_cubic_threshold(),
        _check_quadratic_difference(),
        _check_cubic_at_radius(),
        _check_quotient_radius(),
        _check_quotient_cubic(),
        _check_double_eigenvector(),
    ]


def _check_cubic_threshold() -> CheckOutcome:
    """Direct evaluation of the two cubics at the threshold point matches
    their closed forms, and both values are negative."""
    def cases():
        for b in _IDENTITY_BS:
            for alpha in alpha_grid(b):
                x = threshold(b, alpha)
                for f, closed in ((f1_eval, f1_threshold_closed), (f2_eval, f2_threshold_closed)):
                    direct = f(b, alpha, x)
                    yield _close(f"path-mismatch:b={b},alpha={alpha}", _rel(direct, closed(b, alpha)))
                    yield f"nonnegative:b={b},alpha={alpha}", math.inf, direct < 0

    return _fold("cubic-threshold-identities", {"b": list(_IDENTITY_BS)}, cases())


def _check_quadratic_difference() -> CheckOutcome:
    """g(b-2) - g(2) equals (b-4)(alpha*b - 1)^2."""
    return _fold("quadratic-difference-identity", {"b": list(_IDENTITY_BS)}, (
        _close(f"b={b},alpha={alpha}",
               _rel(g_eval(b, alpha, b - 2) - g_eval(b, alpha, 2), (b - 4) * (alpha * b - 1) ** 2), 1e-10)
        for b in _IDENTITY_BS for alpha in alpha_grid(b)))


def _check_cubic_at_radius() -> CheckOutcome:
    """On the order-(b+1) candidate maximizers with attachment-set size
    u2, the cubic at the spectral radius equals the quadratic at u2."""
    bs = (4, 6)
    graphs = [(b, u2, pendant_matching_graph(b, u2)) for b in bs for u2 in (2, b - 2)]
    return _fold("cubic-at-radius-identity", {"b": list(bs), "u2": "2 and b-2"}, (
        _close(g.to_graph6(), _rel(h_eval(b, alpha, u2, spectral_radius(g, alpha).lam), g_eval(b, alpha, u2)))
        for b, u2, g in graphs for alpha in (0.2, 0.5, 0.8)))


def _check_quotient_radius() -> CheckOutcome:
    """The equitable quotient of the once-subdivided clique has the same
    spectral radius as the graph."""
    def cases():
        for b in _IDENTITY_BS:
            g = subdivided_clique(b, 1)
            for alpha in alpha_grid(b):
                _, lam, diff = quotient_radius_check(g, alpha, subdivided_clique_partition(b))
                yield _close(f"b={b},alpha={alpha}", diff / max(1.0, lam))

    return _fold("quotient-radius-equality", {"b": list(_IDENTITY_BS)}, cases())


def _check_quotient_cubic() -> CheckOutcome:
    """The characteristic polynomial of that quotient, the product of
    x - theta over its eigenvalues, is the cubic f1, compared at four
    points (0, 1, b-1 and the spectral radius), which fix a cubic."""
    def cases():
        for b in _IDENTITY_BS:
            g = subdivided_clique(b, 1)
            for alpha in alpha_grid(b):
                roots = quotient(g, alpha, subdivided_clique_partition(b)).eigenvalues()
                for x in (0.0, 1.0, b - 1.0, spectral_radius(g, alpha).lam):
                    yield _close(f"b={b},alpha={alpha},x={x}",
                                 _rel(float(math.prod(x - roots)), f1_eval(b, alpha, x)))

    return _fold("quotient-cubic-identity", {"b": list(_IDENTITY_BS)}, cases())


def _check_double_eigenvector() -> CheckOutcome:
    """x^T y (lambda(H) - lambda(G)) = x^T (M(H) - M(G)) y for the Perron
    vectors x of G = subdivided_clique(b, 2) and y of H =
    clique_with_pendants(b), both connected of order b+2.  Unit vectors
    and a radius gap below 1 keep both sides below 1, so the residual is
    the relative error."""
    return _fold("double-eigenvector-identity", {"b": list(_IDENTITY_BS)}, (
        _close(f"b={b},alpha={alpha}", xy_identity_check(subdivided_clique(b, 2), clique_with_pendants(b), alpha))
        for b in _IDENTITY_BS for alpha in alpha_grid(b)))


# ---------------------------------------------------------------------
# exhaustive small-order maximizer agreement
# ---------------------------------------------------------------------

def check_theorem_small_n(a: int, b: int, n_range, alphas=None) -> CheckOutcome:
    """Exhaustive search over the internal corpus versus the clause
    prediction.  Asserted where the prediction carries no caveat;
    reported (inconclusive on disagreement) otherwise."""
    failures = []
    notes = []
    inconclusive = False
    constraint = f"kab-minor-free:{a},{b}"
    for n in n_range:
        corpus = ex.InternalCorpus(n, connected_only=True)
        found = None  # survivors, filtered once per order and only if ranked
        for alpha in alphas if alphas is not None else alpha_grid(b):
            pred = ex.predict(a, b, n, alpha)
            if pred.graph is None:
                notes.append(f"n={n},alpha={alpha}:outside ({pred.caveat})")
                continue
            if found is None:
                found = ex.survivors(corpus, constraint)
            rep = ex.rank_survivors(found, constraint, alpha, f"internal:n={n}", len(corpus), pred)
            if not rep.prediction_agrees or len(rep.maximizers) != 1:
                tag = f"n={n},alpha={alpha}:maximizers={list(rep.maximizers)}"
                if not pred.caveat:
                    failures.append(tag)
                else:
                    inconclusive = True
                    notes.append("report-only disagreement " + tag)
    scope = {"a": a, "b": b, "n": list(n_range)}
    return _outcome("small-order-maximizer-agreement", scope, failures, None,
                    notes, inconclusive)


# ---------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------

SUITES = {
    "lemma-updown": lambda: [check_lemma_updown()],
    "mm-bounds": lambda: [check_mm_bounds()],
    "degree-ordering": lambda: [check_degree_ordering_claim()],
    "edge-lemmas": check_edge_lemmas,
    "polynomial-identities": check_polynomial_identities,
    "theorem-small-n": lambda: [check_theorem_small_n(1, 3, range(4, 8)),
                                check_theorem_small_n(1, 4, [5])],
}


def run_suites(names) -> list[CheckOutcome]:
    if names == ["all"] or names == ("all",):
        names = list(SUITES)
    out = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        out.extend(SUITES[name]())
    return out
