"""Exhaustive extremal search over small-graph corpora plus the clause
rules that pick the conjectured/known maximizer family for given
(a, b, n, alpha).

Canonical forms use colour refinement with individualization and
twin-pruned backtracking, exact for n <= 10.  The internal enumerator
builds all graphs up to isomorphism for n <= 8 by vertex augmentation:
the added vertex must have minimum degree in the child, one
neighbourhood is tried per orbit of the parent's twin swaps, a child is
searched only when the added vertex lies in the first cell of its
stable partition, and the children are deduplicated by canonical form.
That first cell is an isomorphism-invariant set of minimum-degree
vertices, so deleting any of its vertices gives a parent that reaches
the class (see _extend).

Every search constraint (star-minor-free, kab-minor-free, ab-property)
is minor-closed, hence closed under vertex deletion: a graph fails it
whenever one of its vertex-deleted subgraphs does.  survivors()
therefore filters the internal corpus (InternalCorpus) while generating
it, McKay's hereditary pruning: it walks the orders 1..n and extends
only the graphs that passed or were undecided at the order below.  When
only connected graphs are wanted, the last order skips every
augmentation whose new vertex misses a component of its parent, before
any refinement, since that child is disconnected.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing as mp
import os
from contextlib import contextmanager
from dataclasses import dataclass

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
    _twin_classes,
    complete_bipartite,
    extremal_family,
    from_graph6,
)
from .minors import (
    BudgetExhausted,
    ab_property,
    all_free,
    find_clique_dominating_set,
    has_minor,
    minor_free_given_apex,
    star_minor_free,
)
from .spectral import LAMBDA_TIE_TOL, check_alpha, spectral_radii
# benchmark/trace_run looks spectral_radius up here to wrap it
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


def _relabelled(rows, lab) -> Graph:
    """The unlabelled graph with adjacency rows, relabelled so that lab[p]
    sits at position p.  rows come from a valid graph, so the relabelled
    rows are valid too and are not checked again."""
    bit = [0] * len(lab)
    for p, v in enumerate(lab):
        bit[v] = 1 << p
    out = []
    for v in lab:
        r = rows[v]
        row = 0
        while r:
            low = r & -r
            row |= bit[low.bit_length() - 1]
            r ^= low
        out.append(row)
    return Graph._unchecked(len(lab), tuple(out))


def canonical_form(g: Graph) -> bytes:
    """Byte string equal between two graphs iff they are isomorphic;
    exact for n <= 10."""
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical form supported only up to n = {CANONICAL_MAX_N}")
    if g.n == 0:
        return b"\x00"
    code, _ = _canonical_search(g.rows, _stable_partition(g.rows))
    return code


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled copy of g."""
    if g.n == 0:
        return g
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical form supported only up to n = {CANONICAL_MAX_N}")
    _, lab = _canonical_search(g.rows, _stable_partition(g.rows))
    return _relabelled(g.rows, lab)


# ---------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------

_ENUM_CACHE: dict[int, list[Graph]] = {}


def _augmentation_masks(g: Graph):
    """Neighbourhood masks for a vertex added to g that has minimum degree
    in the child, one mask per orbit of the twin swaps of g: inside each
    twin class the mask's bits form a prefix of the class.

    With delta the minimum degree of g, a mask of k bits qualifies iff
    k <= delta, or k = delta + 1 and it covers every vertex of degree
    delta."""
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


def _check_order(n: int):
    if not 1 <= n <= ENUMERATE_MAX_N:
        raise ValueError(f"internal enumerator handles 1 <= n <= {ENUMERATE_MAX_N}")


def _extend(parents, n: int, connected_only: bool = False) -> list[Graph]:
    """The graphs of order n that extend the order-(n - 1) graphs parents
    by one vertex, one per isomorphism class, canonically labelled and in
    canonical-code order; only the connected ones when connected_only.

    Only masks that give the new vertex n - 1 minimum degree in the child
    are tried, and of those one per twin-swap orbit of the parent (see
    _augmentation_masks).  With connected_only a mask that misses a
    component of the parent is skipped before any refinement: its child
    is disconnected, and every connected child comes from masks that meet
    every component, so the result is the unpruned one filtered.  A child
    is kept only when n - 1 lies in the first cell of its stable partition
    (_stable_partition).  That cell is a nonempty isomorphism-invariant
    set of minimum-degree vertices, so a graph G of order n is reached
    whenever parents holds G - v for some (hence every) vertex v of its
    first cell, up to isomorphism: the child that restores v (up to a twin
    swap of the parent) maps v to n - 1 under an isomorphism, which
    carries the first cell to the first cell.  Kept children are searched
    from that partition, deduplicated by canonical code and stored
    canonically labelled, so the graph kept for a code does not depend on
    which parent produced it."""
    seen: dict[bytes, Graph] = {}
    for g in parents:
        components = g.component_masks() if connected_only else ()
        for mask in _augmentation_masks(g):
            if any(not mask & c for c in components):
                continue
            rows = tuple(r | (mask >> v & 1) << (n - 1) for v, r in enumerate(g.rows)) + (mask,)
            cells = _stable_partition(rows)
            if n - 1 in cells[0]:
                code, lab = _canonical_search(rows, cells)
                if code not in seen:
                    seen[code] = _relabelled(rows, lab)
    return [seen[c] for c in sorted(seen)]


def enumerate_graphs(n: int, connected_only: bool = False):
    """All graphs of order n up to isomorphism (internal enumerator,
    n <= 8), in canonical-form order: _extend over every graph of order
    n - 1, cached per order."""
    _check_order(n)
    if n not in _ENUM_CACHE:
        _ENUM_CACHE[n] = [Graph(1, (0,))] if n == 1 else _extend(enumerate_graphs(n - 1), n)
    out = _ENUM_CACHE[n]
    if connected_only:
        out = [g for g in out if g.is_connected()]
    return list(out)


@dataclass(frozen=True)
class InternalCorpus:
    """The internal corpus of order n (connected graphs only when
    connected_only) as a value: survivors() filters it while generating
    it.  Its len is the pinned count and iterating it gives
    enumerate_graphs(n, connected_only)."""

    n: int
    connected_only: bool = False

    def __post_init__(self):
        _check_order(self.n)

    def __len__(self) -> int:
        counts = CONNECTED_GRAPH_COUNTS if self.connected_only else GRAPH_COUNTS
        return counts[self.n - 1]

    def __iter__(self):
        return iter(enumerate_graphs(self.n, self.connected_only))


def ingest_graph6(path: str):
    """Decode a file of newline-separated graph6 records; malformed lines
    raise with their line number."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(from_graph6(line))
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


@dataclass(frozen=True)
class ExtremalPrediction:
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
    build its graph.  The graph is re-verified K_{a,b}-minor free through
    the dominating-clique reduction (S empty when a = 1) before being
    reported; raises RuntimeError (BudgetExhausted) when that check runs
    out of budget.  An empty caveat marks a clause asserted with no
    large-order or alpha-window condition."""
    check_alpha(alpha)
    p = FamilyParams(a, b, n)
    clause, caveat = _select_clause(p, alpha)
    if clause == CLAUSE_OUTSIDE:
        return ExtremalPrediction(p, clause, None, caveat)
    g = extremal_family(p, clause)
    S = find_clique_dominating_set(g, a - 1)
    if S is None or not minor_free_given_apex(g, S, a, b):
        raise AssertionError("predicted graph fails the minor-freeness check")
    return ExtremalPrediction(p, clause, g, caveat)


# ---------------------------------------------------------------------
# search
# ---------------------------------------------------------------------

class BudgetAbort(RuntimeError):
    """Raised when a constraint check runs out of budget on a candidate."""

    def __init__(self, graph6: str):
        super().__init__(f"minor-search budget exhausted on candidate {graph6}")
        self.graph6 = graph6


def parse_constraint(tag: str):
    """Constraint tags: star-minor-free:B, kab-minor-free:A,B,
    ab-property:A,B."""
    name, _, arg = tag.partition(":")
    try:
        nums = [int(x) for x in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"bad constraint arguments in {tag!r}")
    if name == "star-minor-free" and len(nums) == 1:
        return name, tuple(nums)
    if name in ("kab-minor-free", "ab-property") and len(nums) == 2:
        a, b = nums
        if not 1 <= a <= b:
            raise ValueError(f"need 1 <= a <= b in {tag!r}")
        return name, tuple(nums)
    raise ValueError(f"unknown constraint {tag!r}")


def _check_constraint(g: Graph, name: str, args, budget: int) -> bool:
    """Whether g satisfies the constraint; raises BudgetExhausted when the
    minor search runs out of budget first."""
    if name == "star-minor-free" or (name == "kab-minor-free" and args[0] == 1):
        return star_minor_free(g, args[-1], budget)
    if name == "kab-minor-free":
        return all_free([has_minor(g, complete_bipartite(*args), budget).verdict], budget)
    if name == "ab-property":
        return all_free(ab_property(g, *args, budget).verdicts, budget)
    raise ValueError(f"unknown constraint {name!r}")


@dataclass(frozen=True)
class SearchReport:
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


@contextmanager
def _mapper(jobs: int, count: int):
    """A map(fn, items) -> list over one fork pool when more than one
    worker is useful for count items: jobs, capped by count and the CPU
    count.  Results are in item order either way."""
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers > 1:
        with mp.get_context("fork").Pool(workers) as pool:
            yield pool.map
    else:
        yield lambda fn, items: [fn(x) for x in items]


def _pmap(fn, items, jobs: int):
    """[fn(x) for x in items], over a pool of _mapper's size."""
    with _mapper(jobs, len(items)) as pmap:
        return pmap(fn, items)


def _verdicts(graphs, constraint: str, budget: int):
    """Per graph: whether it satisfies the constraint, or None when its
    check ran out of budget."""
    name, args = parse_constraint(constraint)
    out = []
    for g in graphs:
        try:
            out.append(_check_constraint(g, name, args, budget))
        except BudgetExhausted:
            out.append(None)
    return out


def _check_all(graphs, constraint: str, budget: int, jobs: int, pmap):
    """_verdicts over graphs cut into contiguous slices, about four per
    job, mapped by pmap and joined in order."""
    size = -(-len(graphs) // (4 * jobs)) or 1
    slices = [graphs[i:i + size] for i in range(0, len(graphs), size)]
    check = functools.partial(_verdicts, constraint=constraint, budget=budget)
    return [v for part in pmap(check, slices) for v in part]


def survivors(corpus, constraint: str, budget: int = minors.DEFAULT_BUDGET, jobs: int = 1):
    """(passing, undecided): the corpus graphs that satisfy the constraint
    and those whose check ran out of budget, each in corpus order.

    A list or other iterable corpus is checked graph by graph.  An
    InternalCorpus is filtered while it is generated: at each order
    m = 1..n the graphs are checked, and only those that passed or were
    undecided are extended to order m + 1 (_extend).  connected_only
    applies at order n alone, where _extend skips the augmentations that
    give a disconnected child.  The constraint is closed under vertex
    deletion, so every vertex-deleted subgraph of a passing graph passes
    or is undecided, and _extend reaches the graph: passing equals the
    enumerated list's.  undecided holds only graphs reached that way, an
    ordered subset of the list's.

    With jobs > 1 one pool, for the whole call, checks contiguous slices,
    and the verdicts are joined in order, so results are independent of
    jobs."""
    parse_constraint(constraint)
    if isinstance(corpus, InternalCorpus):
        with _mapper(jobs, len(corpus)) as pmap:
            level = enumerate_graphs(1)
            verdicts = _check_all(level, constraint, budget, jobs, pmap)
            for m in range(2, corpus.n + 1):
                level = _extend([g for g, v in zip(level, verdicts) if v is not False], m,
                                connected_only=corpus.connected_only and m == corpus.n)
                verdicts = _check_all(level, constraint, budget, jobs, pmap)
    else:
        level = list(corpus)
        with _mapper(jobs, len(level)) as pmap:
            verdicts = _check_all(level, constraint, budget, jobs, pmap)
    return ([g for g, v in zip(level, verdicts) if v],
            [g for g, v in zip(level, verdicts) if v is None])


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
    graphs, and corpus_size is its len.  Raises BudgetAbort naming the
    first graph whose check ran out of budget.  Results are independent
    of jobs."""
    check_alpha(alpha)
    graphs = corpus if isinstance(corpus, InternalCorpus) else list(corpus)
    found = survivors(graphs, constraint, budget, jobs)
    return rank_survivors(found, constraint, alpha, corpus_source, len(graphs), prediction)


def rank_survivors(found, constraint: str, alpha: float, corpus_source: str,
                   corpus_size: int, prediction: ExtremalPrediction | None = None) -> SearchReport:
    """The ranking half of search_max: the report on the corpus whose
    survivors() are found = (passing, undecided), ranked at alpha.  An
    alpha-independent filter can thus run once for several alphas.
    Raises BudgetAbort naming the first undecided graph, and ValueError
    when nothing passed."""
    check_alpha(alpha)
    passing, undecided = found
    if undecided:
        raise BudgetAbort(undecided[0].to_graph6())
    if not passing:
        raise ValueError("no corpus graph satisfies the constraint")
    lams = [r.lam for r in spectral_radii(passing, alpha)]
    lam_max = max(lams)
    maximizers = sorted(
        canonical_graph(g).to_graph6()
        for g, lam in zip(passing, lams)
        if lam >= lam_max - LAMBDA_TIE_TOL
    )
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

def compare_candidates(candidates, alpha: float, jobs: int = 1):
    """Spectral radii of same-order candidate graphs, sorted descending,
    with strict-order flags at the tie tolerance.

    candidates: list of (id, Graph).  Returns a list of dict rows;
    independent of jobs, which cut the candidates into that many
    contiguous slices for spectral_radii."""
    check_alpha(alpha)
    items = list(candidates)
    if not items:
        return []
    n0 = items[0][1].n
    if any(g.n != n0 for _, g in items):
        raise ValueError("candidates must share one order")
    graphs = [g for _, g in items]
    size = -(-len(graphs) // jobs)
    slices = [graphs[i:i + size] for i in range(0, len(graphs), size)]
    lams = [r.lam for part in _pmap(functools.partial(spectral_radii, alpha=alpha), slices, jobs)
            for r in part]
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
