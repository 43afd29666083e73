"""Exhaustive extremal search over small-graph corpora plus the clause
rules that pick the conjectured/known maximizer family for given
(a, b, n, alpha).

Canonical forms use colour refinement with individualization and
twin-pruned backtracking, exact for n <= 10, and graphs._renumbered
builds the canonically labelled copy.  The internal enumerator builds
all graphs up to isomorphism for n <= 8 by vertex augmentation: the
added vertex must have minimum degree in the child, one neighbourhood is
tried per orbit of the parent's twin swaps, a child is searched only
when the added vertex lies in the first cell of its stable partition,
and the children are deduplicated by canonical form.
That first cell is an isomorphism-invariant set of minimum-degree
vertices, so deleting any of its vertices gives a parent that reaches
the class (see _extend).

survivors() filters the internal corpus (InternalCorpus) while
generating it, McKay's hereditary pruning: _walk extends only the graphs
that passed or were undecided at the order below, and enumerate_graphs is
the same walk with no constraint.  A graph left undecided at the last
order makes survivors() raise BudgetExhausted.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from typing import NamedTuple

from . import minors
from .graphs import (
    CLAUSE_APEX_CLIQUES,
    CLAUSE_APEX_F_BLOCK,
    CLAUSE_APEX_PETERSEN,
    CLAUSE_APEX_STAR_FORESTS,
    CLAUSE_OUTSIDE,
    CLAUSE_STAR_FOREST,
    CLAUSE_SUBDIVIDED,
    FamilyParams,
    Graph,
    _Value,
    _bits,
    _renumbered,
    _twin_classes,
    complete_bipartite,
    extremal_family,
    from_graph6,
)
from .minors import (
    VERDICT_BUDGET,
    VERDICT_CONTAINS,
    BudgetExhausted,
    ab_pairs,
    fold_verdicts,
    has_minor,
    star_certificate,
)
from .spectral import LAMBDA_TIE_TOL, check_alpha, spectral_radii
# benchmark/trace_run looks star_minor_free and spectral_radius up here
# to wrap them
from .minors import star_minor_free  # noqa: F401
from .spectral import spectral_radius  # noqa: F401

CANONICAL_MAX_N = 10
ENUMERATE_MAX_N = 8

# known counts of graphs up to isomorphism, n = 1..8
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
CONNECTED_GRAPH_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


# ---------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------

def _mask(cell) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(rows, cells, fresh):
    """Colour refinement to a stable partition; cell order is determined
    by invariant signatures only.

    fresh lists the masks, in cell order, of the cells that the last split
    created, less the last fragment of each split cell (all cells but the
    last for a first refinement).  Every vertex of a cell has equal counts
    into each older cell, so a signature needs counts into fresh cells
    only, and ordering by it orders by the counts into every cell: a
    vertex's count into a dropped fragment is its count into the cell that
    split, which is equal across the vertex's cell, less its counts into
    the kept fragments, so it separates and orders nothing the kept counts
    do not.  Counts are at most CANONICAL_MAX_N - 1, so 4 bits each pack a
    signature into one int that sorts as the tuple would."""
    while fresh:
        new_cells = []
        split = []
        for c in cells:
            if len(c) > 1:
                groups: dict[int, list[int]] = {}
                for v in c:
                    r = rows[v]
                    sig = 0
                    for m in fresh:
                        sig = sig << 4 | (r & m).bit_count()
                    groups.setdefault(sig, []).append(v)
                if len(groups) > 1:
                    parts = [groups[sig] for sig in sorted(groups)]
                    new_cells.extend(parts)
                    split.extend(_mask(part) for part in parts[:-1])
                    continue
            new_cells.append(c)
        cells, fresh = new_cells, split
    return cells


def _stable_partition(rows):
    """The degree cells, by increasing degree, refined to a stable
    partition.  Its first cell is an isomorphism-invariant set of
    minimum-degree vertices."""
    by_deg: dict[int, list[int]] = {}
    for v, r in enumerate(rows):
        by_deg.setdefault(r.bit_count(), []).append(v)
    cells = [by_deg[d] for d in sorted(by_deg)]
    return _refine(rows, cells, [_mask(c) for c in cells[:-1]])


def _encode(rows, lab):
    """Upper-triangle bit packing of the graph relabelled so that lab[p]
    sits at position p."""
    n = len(lab)
    bits = 0
    count = 0
    for q in range(1, n):
        rq = rows[lab[q]]
        for p in range(q):
            bits = bits << 1 | (rq >> lab[p] & 1)
            count += 1
    nbytes = (count + 7) // 8
    return bytes([n]) + (bits << (nbytes * 8 - count)).to_bytes(nbytes, "big")


def _canonical_search(rows, cells):
    """(canonical code, labelling) of the graph with adjacency rows,
    searched from its stable partition cells: lab[p] is the vertex put at
    position p."""
    best: list = [None, None]

    def rec(cells):
        tgt = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if tgt is None:
            lab = [c[0] for c in cells]
            code = _encode(rows, lab)
            if best[0] is None or code < best[0]:
                best[0], best[1] = code, lab
            return
        cell = cells[tgt]
        # one representative branch per twin class suffices
        for cls in _twin_classes(rows, cell):
            v = cls[0]
            split = cells[:tgt] + [[v], [u for u in cell if u != v]] + cells[tgt + 1:]
            rec(_refine(rows, split, [1 << v]))

    rec(cells)
    return best[0], best[1]


def canonical_form(g: Graph) -> bytes:
    """Byte string equal between two graphs iff they are isomorphic;
    exact for n <= 10."""
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical form supported only up to n = {CANONICAL_MAX_N}")
    code, _ = _canonical_search(g.rows, _stable_partition(g.rows))
    return code


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled copy of g."""
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical form supported only up to n = {CANONICAL_MAX_N}")
    _, lab = _canonical_search(g.rows, _stable_partition(g.rows))
    return Graph._unchecked(g.n, _renumbered(g.rows, lab))


# ---------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------

def _augmentation_masks(g: Graph, star: int | None = None):
    """Neighbourhood masks for a vertex added to g that has minimum degree
    in the child, one mask per orbit of the twin swaps of g: inside each
    twin class the mask's bits form a prefix of the class.

    With delta the minimum degree of g, a mask of k bits qualifies iff
    k <= delta, or k = delta + 1 and it covers every vertex of degree
    delta.  The prefixes are combined class by class, never past
    delta + 1 bits, in the order of their product.

    With star, only the masks whose child has no K_{1,star} certificate
    (minors.star_certificate) are given, and none when g has one: no
    degree and no edge's count of other neighbours falls when a vertex is
    added.  When g has none, the added vertex x raises by one the degree
    of each vertex of the mask and the count of each edge with an end in
    it, so the mask holds no hot vertex: one of degree star - 1, or an
    end of an edge whose ends have star - 1 other neighbours
    (minors._star_certificate_ends at star - 1).  Twin swaps keep
    hotness, so hot classes are skipped whole.  Left to test are x's
    degree, at most star - 1, and each edge ux of the mask, whose ends
    have the other neighbours N(u) | mask minus u."""
    rows = g.rows
    degs = g.degrees()
    delta = min(degs)
    low = 0
    for v, d in enumerate(degs):
        if d == delta:
            low |= 1 << v
    limit = delta + 1
    hot = 0
    if star is not None:
        if star_certificate(rows, star):
            return
        limit = min(limit, star - 1)
        hot = minors._star_certificate_ends(rows, star - 1)
    masks = [(0, 0)]
    for cls in _twin_classes(rows, range(g.n)):
        if hot >> cls[0] & 1:
            continue
        options = [(0, 0)]
        acc = 0
        for k, v in enumerate(cls[:limit], 1):
            acc |= 1 << v
            options.append((acc, k))
        masks = [(m | p, k + j) for m, k in masks for p, j in options if k + j <= limit]
    for mask, k in masks:
        if k <= delta or mask & low == low:
            if star is None or all((rows[u] | mask).bit_count() <= star for u in _bits(mask)):
                yield mask


def _check_order(n: int):
    if not 1 <= n <= ENUMERATE_MAX_N:
        raise ValueError(f"internal enumerator handles 1 <= n <= {ENUMERATE_MAX_N}")


def _extend(parents, n: int, connected_only: bool = False, star: int | None = None) -> list[Graph]:
    """The graphs of order n that extend the order-(n - 1) graphs parents
    by one vertex, one per isomorphism class, canonically labelled and in
    canonical-code order; only the connected ones when connected_only, and
    only those with no K_{1,star} certificate (minors.star_certificate)
    when star is given.

    Only masks that give the new vertex n - 1 minimum degree in the child
    are tried, and of those one per twin-swap orbit of the parent (see
    _augmentation_masks).  With connected_only a mask that misses a
    component of the parent is skipped before any refinement: its child
    is disconnected, and every connected child comes from masks that meet
    every component, so the result is the unpruned one filtered.  With
    star, no child with a vertex of degree >= star, or with an edge whose
    ends have >= star other neighbours together, is built: the masks that
    give one are never generated (_augmentation_masks).  Such a child has
    a K_{1,star} minor, and having a certificate does not depend on the
    labelling, so again the result is the unpruned one filtered.  A child
    is kept only when n - 1 lies in the first cell of its stable
    partition (_stable_partition).  That cell is a nonempty
    isomorphism-invariant set of minimum-degree vertices, so a graph G of
    order n is reached whenever parents holds G - v for some (hence every)
    vertex v of its first cell, up to isomorphism: the child that restores
    v (up to a twin swap of the parent) maps v to n - 1 under an
    isomorphism, which carries the first cell to the first cell.  Kept
    children are searched from that partition, deduplicated by canonical
    code and stored canonically labelled, so the graph kept for a code
    does not depend on which parent produced it."""
    seen: dict[bytes, Graph] = {}
    for g in parents:
        components = g.component_masks() if connected_only else ()
        for mask in _augmentation_masks(g, star):
            if any(not mask & c for c in components):
                continue
            rows = tuple(r | (mask >> v & 1) << (n - 1) for v, r in enumerate(g.rows)) + (mask,)
            cells = _stable_partition(rows)
            if n - 1 in cells[0]:
                code, lab = _canonical_search(rows, cells)
                if code not in seen:
                    seen[code] = Graph._unchecked(n, _renumbered(rows, lab))
    return [seen[c] for c in sorted(seen)]


def _walk(n: int, pairs, budget: int, pmap, connected_only: bool):
    """The internal corpus of order n filtered while it is generated: for
    each order m = 1..n, (level, verdicts), the graphs of order m reached
    and their _verdicts against the forbidden pairs, run through pmap.

    Only the graphs of order m - 1 that passed or were undecided are
    extended to order m (_extend).  Every search constraint is minor-closed,
    hence closed under vertex deletion: every vertex-deleted subgraph of a
    passing graph passes or is undecided, so the walk reaches every passing
    graph, and the passing graphs of the last level are those of the
    enumerated list (McKay's hereditary pruning).  connected_only applies
    at order n alone, where _extend skips the augmentations that give a
    disconnected child.  When a (1, s) pair forbids a K_{1,s} minor
    (star-minor-free:s, kab-minor-free:1,s, and the r = 1 pair of
    ab-property:a,s), _extend also never builds, at any order, a child
    with an O(n + e) certificate of that minor (minors.star_certificate),
    which fails the constraint.  The undecided graphs of the last level
    are thus an ordered subset of the list's: a graph whose own check
    would run out of budget is not reached when a parent failed or it has
    a certificate.  With no pair every graph passes, and the last level
    is the enumeration."""
    star = next((s for r, s in pairs if r == 1), None)
    check = functools.partial(_verdicts, pairs=pairs, budget=budget)
    kept = None
    for m in range(1, n + 1):
        level = [Graph(1, (0,))] if m == 1 else _extend(
            kept, m, connected_only=connected_only and m == n, star=star)
        verdicts = pmap(check, level)
        yield level, verdicts
        kept = [g for g, v in zip(level, verdicts) if v is not False]


@functools.cache
def _enumeration(n: int) -> list[Graph]:
    *_, (level, _) = _walk(n, (), 0, _serial_map, False)
    return level


def enumerate_graphs(n: int, connected_only: bool = False):
    """All graphs of order n up to isomorphism (internal enumerator,
    n <= 8), in canonical-form order: the last level of _walk with no
    forbidden pair, cached per order; only its connected graphs when
    connected_only."""
    _check_order(n)
    out = _enumeration(n)
    return [g for g in out if g.is_connected()] if connected_only else list(out)


class InternalCorpus(_Value):
    """The internal corpus of order n (connected graphs only when
    connected_only) as a value: survivors() filters it while generating
    it (_walk).  Its len is the pinned count of enumerate_graphs(n,
    connected_only)."""

    __slots__ = ("n", "connected_only")

    def __init__(self, n: int, connected_only: bool = False):
        _check_order(n)
        self._set(n, connected_only)

    def __len__(self) -> int:
        counts = CONNECTED_GRAPH_COUNTS if self.connected_only else GRAPH_COUNTS
        return counts[self.n - 1]


def ingest_graph6(path: str, decode=from_graph6):
    """Decode a file of newline-separated graph6 records, each by decode;
    a record it rejects with ValueError raises with its line number.  Bytes
    that are not UTF-8 decode to lone surrogates, which no graph6 record
    holds, so decode rejects their line like any other bad record."""
    out = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(decode(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


# ---------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------

CAVEAT_LARGE_N = "theorem requires large n"
CAVEAT_ALPHA_WINDOW = "alpha below 2/(b+1) open for b >= 4"
CAVEAT_ORDER_TOO_SMALL = "order too small for the clause construction"
CAVEAT_SMALL_B = "a = 1 clauses need b >= 3"


class ExtremalPrediction(NamedTuple):
    params: FamilyParams
    clause: str
    graph: Graph | None
    caveat: str = ""


def _select_clause(p: FamilyParams, alpha: float):
    a, b = p.a, p.b
    if a == 1:
        if b <= 2:
            return CLAUSE_OUTSIDE, CAVEAT_SMALL_B
        if p.n == b + 1:
            return CLAUSE_STAR_FOREST, ""
        if b == 3 or alpha >= 2 / (b + 1):
            return CLAUSE_SUBDIVIDED, ""
        return CLAUSE_OUTSIDE, CAVEAT_ALPHA_WINDOW
    t, tau = p.t, p.tau
    if t <= 2 * (tau - 1):
        if t == 2 and tau == 2:
            clause = CLAUSE_APEX_F_BLOCK if p.k >= 1 else CLAUSE_OUTSIDE
        else:
            clause = CLAUSE_APEX_STAR_FORESTS if p.k >= t else CLAUSE_OUTSIDE
    else:
        if t == 2 and tau == 1 and b == 8:
            clause = CLAUSE_APEX_PETERSEN if p.k >= 1 else CLAUSE_OUTSIDE
        else:
            clause = CLAUSE_APEX_CLIQUES
    if clause == CLAUSE_OUTSIDE:
        return clause, CAVEAT_ORDER_TOO_SMALL
    return clause, CAVEAT_LARGE_N


def predict(a: int, b: int, n: int, alpha: float) -> ExtremalPrediction:
    """Pick the extremal construction clause for (a, b, n, alpha) and
    build its graph, re-verified K_{a,b}-minor free by has_minor (whose
    dominating-vertex rule peels the a - 1 apex vertices) before being
    reported; raises BudgetExhausted naming the graph when that check
    runs out of budget.  An empty caveat marks a clause asserted with no
    large-order or alpha-window condition."""
    check_alpha(alpha)
    p = FamilyParams(a, b, n)
    clause, caveat = _select_clause(p, alpha)
    if clause == CLAUSE_OUTSIDE:
        return ExtremalPrediction(p, clause, None, caveat)
    g = extremal_family(p, clause)
    verdict = has_minor(g, complete_bipartite(a, b)).verdict
    if verdict == VERDICT_BUDGET:
        raise BudgetExhausted(f"minor-search budget exhausted on candidate {g.to_graph6()}", g.to_graph6())
    if verdict == VERDICT_CONTAINS:
        raise AssertionError("predicted graph fails the minor-freeness check")
    return ExtremalPrediction(p, clause, g, caveat)


# ---------------------------------------------------------------------
# search
# ---------------------------------------------------------------------

def parse_constraint(tag: str):
    """Constraint tags: star-minor-free:B, kab-minor-free:A,B,
    ab-property:A,B."""
    name, _, arg = tag.partition(":")
    try:
        nums = [int(x) for x in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"bad constraint arguments in {tag!r}")
    if name == "star-minor-free" and len(nums) == 1:
        if nums[0] < 1:
            raise ValueError(f"need b >= 1 in {tag!r}")
        return name, tuple(nums)
    if name in ("kab-minor-free", "ab-property") and len(nums) == 2:
        a, b = nums
        if not 1 <= a <= b:
            raise ValueError(f"need 1 <= a <= b in {tag!r}")
        return name, tuple(nums)
    raise ValueError(f"unknown constraint {tag!r}")


def _forbidden_pairs(tag: str) -> tuple[tuple[int, int], ...]:
    """The (r, s) of every K_{r,s} minor the constraint forbids:
    star-minor-free:b forbids (1, b), kab-minor-free:a,b forbids (a, b),
    and ab-property:a,b forbids minors.ab_pairs(a, b)."""
    name, args = parse_constraint(tag)
    if name == "star-minor-free":
        return ((1, args[0]),)
    if name == "kab-minor-free":
        return (args,)
    return ab_pairs(*args)


class SearchReport(NamedTuple):
    constraint: str
    corpus_source: str
    corpus_size: int
    survivors: int
    alpha: float
    lambda_max: float
    maximizers: tuple[str, ...]  # canonical graph6, sorted
    prediction_clause: str | None = None
    prediction_graph6: str | None = None
    prediction_agrees: bool | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "constraint": self.constraint,
                "alpha": self.alpha,
                "corpus": {"source": self.corpus_source, "count": self.corpus_size},
                "survivors": self.survivors,
                "lambda_max": self.lambda_max,
                "maximizers": list(self.maximizers),
                "prediction": {
                    "clause": self.prediction_clause,
                    "graph6": self.prediction_graph6,
                    "agrees": self.prediction_agrees,
                },
            }
        )


def _serial_map(fn, items):
    return fn(items)


@contextmanager
def _mapper(jobs: int, count: int):
    """A map(fn, items) -> list for a list-in, list-out fn: fn runs on
    contiguous slices of items and their results are joined in item order.
    The map runs fn on the whole list, one slice, in this process unless
    more than one worker is useful for count items: jobs, capped by count
    and the CPU count.  Then one fork pool, for the whole block, maps about
    four slices per worker.  With no item (count 0) it runs serially too,
    so an empty corpus fails the same way for every jobs."""
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers <= 1:
        yield _serial_map
        return
    import multiprocessing  # here, so that serial runs never load it

    with multiprocessing.get_context("fork").Pool(workers) as pool:
        def pmap(fn, items):
            size = -(-len(items) // (4 * workers)) or 1
            parts = pool.map(fn, [items[i:i + size] for i in range(0, len(items), size)])
            return [x for part in parts for x in part]

        yield pmap


def _verdicts(graphs, pairs, budget: int):
    """Per graph, fold_verdicts of its has_minor checks against the
    forbidden pairs, star or not: True when it has none of their K_{r,s}
    minors, False when it has one, None when none was found but a check
    ran out of budget.  Each K_{r,s} is built once per call.  The pairs
    are tried in order, and the first minor found ends a graph's checks;
    has_minor has revalidated the witness of every minor found."""
    patterns = [complete_bipartite(r, s) for r, s in pairs]
    out = []
    for g in graphs:
        verdicts = []
        for h in patterns:
            verdicts.append(has_minor(g, h, budget).verdict)
            if verdicts[-1] == VERDICT_CONTAINS:
                break
        out.append(fold_verdicts(verdicts))
    return out


def _filter(corpus, constraint: str, budget: int, jobs: int = 1):
    """(passing, undecided): the corpus graphs that satisfy the constraint
    and those left undecided, each in corpus order.

    The constraint is parsed once into the K_{r,s} it forbids
    (_forbidden_pairs), and every graph is checked against them by
    _verdicts: a graph with a minor found fails, even when another pair's
    check ran out of budget, and a graph is undecided only when no minor
    was found and some check ran out of budget.

    A list or other iterable corpus is checked graph by graph.  An
    InternalCorpus is the last level of _walk, which filters it while it
    is generated: passing equals the enumerated list's, and undecided is
    an ordered subset of the list's.

    The checks run through one _mapper for the whole call, which joins
    the verdicts of its slices in order, so results are independent of
    jobs."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    pairs = _forbidden_pairs(constraint)
    if isinstance(corpus, InternalCorpus):
        with _mapper(jobs, len(corpus)) as pmap:
            *_, (level, verdicts) = _walk(corpus.n, pairs, budget, pmap, corpus.connected_only)
    else:
        level = list(corpus)
        with _mapper(jobs, len(level)) as pmap:
            verdicts = pmap(functools.partial(_verdicts, pairs=pairs, budget=budget), level)
    return ([g for g, v in zip(level, verdicts) if v],
            [g for g, v in zip(level, verdicts) if v is None])


def survivors(corpus, constraint: str, budget: int = minors.DEFAULT_BUDGET, jobs: int = 1) -> list[Graph]:
    """The corpus graphs that satisfy the constraint, in corpus order
    (_filter).  Raises BudgetExhausted naming the first graph, in corpus
    order, whose check ran out of budget."""
    passing, undecided = _filter(corpus, constraint, budget, jobs)
    if undecided:
        g6 = undecided[0].to_graph6()
        raise BudgetExhausted(f"minor-search budget exhausted on candidate {g6}", g6)
    return passing


def search_max(
    corpus,
    constraint: str,
    alpha: float,
    corpus_source: str = "internal",
    budget: int = minors.DEFAULT_BUDGET,
    jobs: int = 1,
    prediction: ExtremalPrediction | None = None,
) -> SearchReport:
    """Filter the corpus by the minor constraint (survivors) and return
    every maximizer of the alpha spectral radius within the tie tolerance
    (rank_survivors).  The corpus is an InternalCorpus or any iterable of
    graphs, and corpus_size is its len.  Raises BudgetExhausted naming the
    first graph whose check ran out of budget.  Results are independent
    of jobs."""
    check_alpha(alpha)
    graphs = corpus if isinstance(corpus, InternalCorpus) else list(corpus)
    passing = survivors(graphs, constraint, budget, jobs)
    return rank_survivors(passing, constraint, alpha, corpus_source, len(graphs), prediction)


def rank_survivors(passing, constraint: str, alpha: float, corpus_source: str,
                   corpus_size: int, prediction: ExtremalPrediction | None = None) -> SearchReport:
    """The ranking half of search_max: the report on the corpus whose
    survivors() are passing, ranked at alpha.  An alpha-independent filter
    can thus run once for several alphas.  Raises ValueError when nothing
    passed."""
    check_alpha(alpha)
    if not passing:
        raise ValueError("no corpus graph satisfies the constraint")
    lams = spectral_radii(passing, alpha)
    lam_max = max(lams)
    maximizers = sorted({
        canonical_graph(g).to_graph6()
        for g, lam in zip(passing, lams)
        if lam >= lam_max - LAMBDA_TIE_TOL
    })
    pred_clause = pred_g6 = agrees = None
    if prediction is not None:
        pred_clause = prediction.clause
        if prediction.graph is not None:
            pred_g6 = canonical_graph(prediction.graph).to_graph6()
            agrees = pred_g6 in maximizers
    return SearchReport(
        constraint,
        corpus_source,
        corpus_size,
        len(passing),
        alpha,
        lam_max,
        tuple(maximizers),
        pred_clause,
        pred_g6,
        agrees,
    )


# ---------------------------------------------------------------------
# candidate comparison
# ---------------------------------------------------------------------

def compare_candidates(candidates, alpha: float):
    """Spectral radii of same-order candidate graphs, from one
    spectral_radii batch, sorted descending, with strict-order flags at
    the tie tolerance.

    candidates: list of (id, Graph).  Returns a list of dict rows."""
    check_alpha(alpha)
    items = list(candidates)
    if not items:
        return []
    n0 = items[0][1].n
    if any(g.n != n0 for _, g in items):
        raise ValueError("candidates must share one order")
    lams = spectral_radii([g for _, g in items], alpha)
    rows = [{"id": cid, "lambda": lam} for (cid, _), lam in zip(items, lams)]
    rows.sort(key=lambda r: (-r["lambda"], r["id"]))
    for i, r in enumerate(rows):
        if i + 1 < len(rows):
            gap = r["lambda"] - rows[i + 1]["lambda"]
            r["strictly_above_next"] = gap > LAMBDA_TIE_TOL
            r["gap_to_next"] = gap
        else:
            r["strictly_above_next"] = None
            r["gap_to_next"] = None
    return rows
