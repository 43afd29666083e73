"""Minor containment with explicit branch-set witnesses, the star-minor
fast path, and the (a,b)-property.

A branch-set model of H inside G assigns each H-vertex a nonempty
connected vertex subset of G, all pairwise disjoint, with a cross edge in
G for every edge of H.  has_minor is the one engine: a star pattern
K_{1,b} takes its boundary-criterion route (_star_search), any other
pattern the branch-set search, and every "contains" it returns carries a
witness that validate_witness has rechecked.  star_minor_free is its
boolean view.  Searches are exact within an expansion budget; budget
exhaustion is a first-class third verdict, never coerced to "free" or
"contains".  A check against several patterns (the pairs of
the (a,b)-property from ab_pairs, or a corpus filter's constraint) folds
its verdicts with fold_verdicts: a found minor decides "not free" even
when another pattern ran out of budget, and the budget verdict applies
only when none was found.  The boolean checks raise BudgetExhausted, the
one budget exception, which extremal.survivors makes name its candidate.

has_minor is one loop over sub-problems (X, h - X), each searched in
place inside rest, the vertex mask of g - D, so the branch sets found
are in g's numbering.  Unless h is a star, D is the host's first
dominating vertices (degree n - 1), at most h.n - 1: g has an h minor
iff g - D has an h - X minor for some |D| vertices X of h, one X per
split of |D| over h's twin classes, X's vertices taking the singletons
of D, branch sets that meet every other; else the one sub-problem is
([], h).  For K_{a,b} and the a - 1 apex vertices of the paper's joins,
the h - X are the K_{r, b+1-r} of the (a,b)-property, the reduction of
Zhai and Lin; for h = K_{r,s}, an h - X whose mirror was tried is
skipped.  No second peel: a vertex dominating g - D is adjacent to all
of D too, so dominates g, and D holds it unless D was cut to h.n - 1
vertices, when h - X is K_1, which peels nothing.

What depends only on the pattern is worked out once per pattern and
kept with it (_pattern, a cached _Pattern record): the search's placement
order and twin links, h's twin classes and whether it is a K_{r,s}, and,
for each number |D| of peeled vertices, the table of sub-problems (X, the
kept vertices, h - X and its own record), filled in on first use.  What
depends on the host is worked out once per call: g - D is split into
components or blocks (or kept whole) at most once per kind, however many
sub-problems ask for that kind, and each part is kept with its doubled
edge count.

A 2-connected h - X other than a star (K_{a,b} with 2 <= a <= b among
them) is searched block by block, since every model of it lies inside
one block of g - D.  Take a 2-connected pattern H, a cut vertex c of a
host G and a model of H in G.  Branch sets that miss c and are adjacent
in H meet along an edge that misses c, and H minus one vertex is
connected, so all branch sets that miss c lie in one component C of
G - c.  The branch set that holds c, cut down to C and c, stays
connected (a path from C to c reaches c before it leaves C) and keeps
its cross edges, which all end in C.  Repeated at each cut vertex, this
leaves the model inside one block.  A block's branch sets are a model
in G, so the verdict is that of the search of each whole component.
Each block gets a component's order and edge-count skips, and the
expansions of a free answer are summed over the blocks searched, all
spent from the one budget.

The search breaks the symmetry of the pattern: twins of H (vertices
whose rows are equal once their mutual bit is cleared, as in one side of
K_{r,s}) may swap branch sets, so each twin's branch set must have a
larger lowest vertex than that of the twin placed before it.  This
searches one model out of every r!*s! relabellings and leaves every
verdict unchanged.

Both searches walk the connected vertex sets of the free vertices inline,
in one order, each set exactly once together with the OR of its rows, so
a candidate's neighbourhood is never recomputed and no generator is
resumed or tuple built per set.  Sets whose minimum vertex is v grow
from {v} by vertices above v, roots lowest bit first; a set's
extensions are tried candidate by candidate, and a tried candidate
leaves the set's allowed vertices for its later candidates and all
their descendants, so each set is reached once, in the branch of the
first candidate it contains.  The walk is depth first, with an explicit
stack of the sets a set grew from, so the depth of a set costs no
recursion.  tests/test_minors.py keeps this walk as a generator, the
reference that both searches are compared against.

One expansion is one connected set examined.  The count is part of the
contract of the `minor` report (its "expansions" field) and fixes the
exact expansion at which a budget runs out, so a change that only makes
the search faster must try the same sets in the same order and leave
every count as it is; tests/test_minors.py pins them with a digest, which
only a change of the search tree itself re-pins.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .graphs import Graph, _bits, _twin_classes, complete_bipartite

DEFAULT_BUDGET = 10**8

VERDICT_CONTAINS = "contains"
VERDICT_FREE = "free"
VERDICT_BUDGET = "budget"


class BudgetExhausted(RuntimeError):
    """An expansion budget ran out before a search could decide; graph6
    names the undecided candidate when a corpus filter raised it."""

    def __init__(self, message: str, graph6: str | None = None):
        super().__init__(message)
        self.graph6 = graph6


class MinorWitness(NamedTuple):
    verdict: str  # contains | free | budget
    branch_sets: tuple[tuple[int, ...], ...] | None  # indexed by H-vertex
    expansions: int


def validate_witness(g: Graph, h: Graph, witness: MinorWitness) -> bool:
    """Independent re-check of a containment witness: branch sets
    nonempty, disjoint, connected in g, and covering every edge of h.

    Every branch set's mask and the OR of its rows are rebuilt from the
    witness's vertex tuples on each call, from no record of the search's
    (nothing per pattern or per host), so the check stays independent of
    it; an edge uv of h is covered iff the OR of u's rows meets v's mask,
    one AND per edge."""
    if witness.verdict != VERDICT_CONTAINS or witness.branch_sets is None:
        return False
    if len(witness.branch_sets) != h.n:
        return False
    rows = g.rows
    masks = []
    nbs = []
    used = 0
    for bs in witness.branch_sets:
        if not bs:
            return False
        mask = nb = 0
        for v in bs:
            if not 0 <= v < g.n or used >> v & 1:
                return False
            mask |= 1 << v
            used |= 1 << v
            nb |= rows[v]
        if mask & (mask - 1) and len(g.component_masks(mask)) != 1:
            return False
        masks.append(mask)
        nbs.append(nb)
    for u, r in enumerate(h.rows):
        above = r >> u + 1 << u + 1
        while above:
            low = above & -above
            above ^= low
            if not nbs[u] & masks[low.bit_length() - 1]:
                return False
    return True


class _Pattern(NamedTuple):
    """What has_minor and the two searches use of a pattern h, worked out
    once per pattern by _pattern: its order and edge count, whether it is
    connected, a star and 2-connected (at least two vertices, all in one
    block), how has_minor splits a host for it (split), the placement order
    (decreasing degree, then index), per placement index the indices of the
    neighbours placed before it and of the twin placed just before it (None
    when it has none), its twin classes (in placement order, the classes by
    first member) and whether it is a K_{r,s} whose two classes are its
    sides (mirrored).

    tables maps a number k of peeled dominating vertices to the
    sub-problems (X, kept vertices, h - X, the _Pattern of h - X) of the
    dominating-vertex rule, in the order has_minor tries them; _subproblems
    fills it in lazily, once per (pattern, k)."""

    n: int
    e: int
    connected: bool
    star: bool
    biconnected: bool
    split: str  # "blocks", "components" or "whole"
    order: tuple[int, ...]
    placed_nbrs: tuple[tuple[int, ...], ...]
    twin_before: tuple[int | None, ...]
    classes: tuple[tuple[int, ...], ...]
    mirrored: bool
    tables: dict


@lru_cache(maxsize=64)
def _pattern(h: Graph) -> _Pattern:
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    pos = {hv: i for i, hv in enumerate(order)}
    placed_nbrs = tuple(tuple(pos[u] for u in h.neighbors(hv) if pos[u] < i) for i, hv in enumerate(order))
    classes = _twin_classes(h.rows, order)
    twin_before = [None] * h.n
    for cls in classes:
        for prev, hv in zip(cls, cls[1:]):
            twin_before[pos[hv]] = pos[prev]
    # h is K_{r,s} when its two twin classes are each joined to the other
    sides = [sum(1 << v for v in c) for c in classes]
    mirrored = len(classes) == 2 and h.rows[classes[0][0]] == sides[1] and h.rows[classes[1][0]] == sides[0]
    connected = h.is_connected()
    star = _is_star(h)
    biconnected = h.n >= 2 and h.block_masks() == [(1 << h.n) - 1]
    # a connected h - X lives in one component, a 2-connected one in one block
    split = "blocks" if biconnected and not star else "components" if connected else "whole"
    return _Pattern(h.n, h.e, connected, star, biconnected, split, tuple(order), placed_nbrs,
                    tuple(twin_before), tuple(map(tuple, classes)), mirrored, {})


def _subproblems(h: Graph, p: _Pattern, k: int):
    """The sub-problems (X, kept vertices, h - X, _pattern(h - X)) of
    has_minor when k dominating vertices are peeled, worked out on the
    first call for (p, k) and kept in p.tables.  With k = 0 the one
    sub-problem is ([], h); else one X of k vertices per vector of counts
    from h's twin classes, the first class taking the most, and for a
    mirrored h = K_{r,s} an h - X = K_{r-i,s-j} is tried once with its
    mirror."""
    table = p.tables.get(k)
    if table is not None:
        return table
    xs = [[]]  # the X of each sub-problem (X, h - X)
    if k:
        xs, tried = [], set()
        for counts in product(*(range(min(len(c), k), -1, -1) for c in p.classes)):
            x = [v for c, i in zip(p.classes, counts) for v in c[:i]]
            if len(x) != k:
                continue
            if p.mirrored:
                left = tuple(sorted(len(c) - i for c, i in zip(p.classes, counts)))
                if left in tried:
                    continue
                tried.add(left)
            xs.append(x)
    table = []
    for x in xs:
        keep = [v for v in range(h.n) if v not in x]
        sub = h.induced(keep) if x else h
        table.append((x, keep, sub, _pattern(sub) if x else p))
    table = p.tables[k] = tuple(table)
    return table


def _minor_search(g: Graph, h: Graph, budget: int, within: int, p: _Pattern | None = None):
    """Backtracking branch-set assignment inside the vertex mask `within`;
    returns (found, branch_masks, expansions) or raises BudgetExhausted.
    p is _pattern(h), looked up when not given.

    H-vertices are placed in order of decreasing degree, each drawing its
    branch set from the connected sets of the still-free vertices.  Twins
    of h (rows equal once their mutual bit is cleared) can swap branch
    sets, so a vertex with a twin placed before it draws only from free
    vertices above the lowest vertex of that twin's branch set.  Every
    model becomes one of this form by reordering each twin class's branch
    sets, so the verdict is that of the unbroken search.

    Each level walks the connected subsets of its allowed vertices inline,
    in the walk order of the module docstring, and leaves off the stack a
    set with no untried candidate."""
    if p is None:
        p = _pattern(h)
    nh = p.n
    placed_nbrs = p.placed_nbrs
    twin_before = p.twin_before
    rows = g.rows
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
        # the inner loop examines s (nb the OR of its rows), grows it when
        # it has room, and then takes the next untried candidate of the
        # deepest set that has one
        rest = allowed
        stack = []
        while rest:
            s = rest & -rest
            nb = rows[s.bit_length() - 1]
            ext = rest
            cand = 0
            while True:
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
                if s.bit_count() <= slack:
                    if cand:
                        stack.append((fs, fnb, cand, ext))
                    fs, fnb, cand = s, nb, nb & ext & ~s
                while not cand and stack:
                    fs, fnb, cand, ext = stack.pop()
                if not cand:
                    break
                low = cand & -cand
                cand ^= low
                ext &= ~low
                s = fs | low
                nb = fnb | rows[low.bit_length() - 1]
            rest &= rest - 1
        return False

    found = assign(0, 0)
    if not found:
        return False, None, count
    # undo the placement order: report branch sets indexed by H-vertex
    out = [0] * nh
    for i, hv in enumerate(p.order):
        out[hv] = branch[i]
    return True, out, count


def _star_certificate_ends(rows, s: int) -> int:
    """The mask of the vertices of degree >= s and of the ends of each
    edge uv with |N(u) | N(v) minus {u, v}| >= s, in the graph with
    adjacency rows, in O(n + e)."""
    ends = 0
    for v, r in enumerate(rows):
        if r.bit_count() >= s:
            ends |= 1 << v
        above = r >> v + 1 << v + 1
        while above:
            low = above & -above
            above ^= low
            if ((r | rows[low.bit_length() - 1]) & ~(low | 1 << v)).bit_count() >= s:
                ends |= low | 1 << v
    return ends


def star_certificate(rows, s: int) -> bool:
    """Whether the graph with adjacency rows shows a K_{1,s} minor in
    O(n + e): a vertex of degree >= s, or an edge uv with
    |N(u) | N(v) minus {u, v}| >= s.  These are the |S| <= 2 sets of
    _star_search's boundary criterion, so True implies the minor; False
    decides nothing."""
    return _star_certificate_ends(rows, s) != 0


def _is_star(h: Graph) -> bool:
    """K_{1,b}: a tree with a vertex adjacent to all others."""
    return h.n >= 2 and h.e == h.n - 1 and h.max_degree() == h.n - 1


def _star_search(g: Graph, h: Graph, budget: int, within: int, p: _Pattern | None = None):
    """_minor_search for a star pattern h = K_{1,b} via the boundary
    criterion: inside the vertex mask `within`, any set of vertices of g,
    the minor exists iff some connected set S has at least b neighbours
    in within outside S.  The centre's branch set is the first such S,
    each leaf a single vertex of those neighbours.  Returns (found,
    branch_masks, expansions) or raises BudgetExhausted; one expansion per
    connected set examined.  p is _pattern(h), looked up when not given.

    Singletons go first, since a vertex of degree >= b settles it.  Then
    the sets of size 2 to |within| - b are walked inline in the order of
    _minor_search's walk, from each root but without examining it again."""
    if p is None:
        p = _pattern(h)
    b = p.n - 1
    rows = g.rows
    count = 0

    def found(s: int, leaves: int):
        out = [1 << u for u in _bits(leaves)][:b]
        out.insert(p.order[0], s)  # the placement order puts the centre first
        return True, out, count

    for v in _bits(within):
        count += 1
        if count > budget:
            raise BudgetExhausted(f"expansion budget {budget} exhausted")
        leaves = rows[v] & within
        if leaves.bit_count() >= b:
            return found(1 << v, leaves)
    cap = within.bit_count() - b
    rest = within if cap > 1 else 0
    stack = []
    while rest:
        fs = rest & -rest
        fnb = rows[fs.bit_length() - 1]
        ext = rest
        cand = fnb & rest & ~fs
        while True:
            while not cand and stack:
                fs, fnb, cand, ext = stack.pop()
            if not cand:
                break
            low = cand & -cand
            cand ^= low
            ext &= ~low
            s = fs | low
            nb = fnb | rows[low.bit_length() - 1]
            count += 1
            if count > budget:
                raise BudgetExhausted(f"expansion budget {budget} exhausted")
            leaves = nb & within & ~s
            if leaves.bit_count() >= b:
                return found(s, leaves)
            if s.bit_count() < cap:
                if cand:
                    stack.append((fs, fnb, cand, ext))
                fs, fnb, cand = s, nb, nb & ext & ~s
        rest &= rest - 1
    return False, None, count


def _twice_edges(rows, mask: int) -> int:
    """Twice the edge count of the subgraph induced on the vertex mask."""
    total = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        total += (rows[low.bit_length() - 1] & mask).bit_count()
    return total


def has_minor(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> MinorWitness:
    """Exact minor test within the expansion budget (>= 0).  A "contains"
    answer carries branch sets that revalidate independently.

    The sub-problems (X, h - X) of the module docstring come from h's
    table for the number of dominating vertices peeled (_subproblems,
    worked out once per pattern and number), each with its _Pattern,
    which the search is handed.  Each is searched in the parts of g - D
    that its split asks for (components, blocks when h - X is
    2-connected, or the whole mask), each kind worked out at most once per
    call: a part with fewer vertices than h - X is dropped, and each
    other is kept with its doubled edge count, which skips it for an h - X
    with more edges.  Expansions are summed over every search run, and a
    budget verdict reports the whole budget.  A found model's witness is
    built straight from the branch masks, X's vertices taking the
    singletons of D, and rechecked by validate_witness."""
    if h.n < 1:
        raise ValueError("pattern must be nonempty")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if h.n > g.n:
        return MinorWitness(VERDICT_FREE, None, 0)
    p = _pattern(h)
    if p.e > g.e:
        return MinorWitness(VERDICT_FREE, None, 0)
    dom = [] if p.star else [v for v, r in enumerate(g.rows) if r.bit_count() == g.n - 1][: h.n - 1]
    rest = (1 << g.n) - 1 - sum(1 << d for d in dom)  # the vertex mask of g - dom
    # every h - X has h.n - |dom| vertices, so a part with fewer is dropped
    least = h.n - len(dom)
    splits = {}  # split -> the parts of rest, each (mask, doubled edge count)
    spent = 0
    for x, keep, sub, q in _subproblems(h, p, len(dom)):
        parts = splits.get(q.split)
        if parts is None:
            if q.split == "blocks":
                cut = g.block_masks(rest)
            else:
                cut = g.component_masks(rest) if q.split == "components" else [rest]
            parts = splits[q.split] = [(m, _twice_edges(g.rows, m)) for m in cut if m.bit_count() >= least]
        search = _star_search if q.star else _minor_search
        for mask, twice_e in parts:
            if 2 * q.e > twice_e:
                continue
            try:
                found, masks, used = search(g, sub, budget - spent, mask, q)
            except BudgetExhausted:
                return MinorWitness(VERDICT_BUDGET, None, budget)
            spent += used
            if found:
                # X takes the singletons of dom, h - X the masks found
                sets = [None] * h.n
                for v, d in zip(x, dom):
                    sets[v] = (d,)
                for v, m in zip(keep, masks):
                    sets[v] = tuple(_bits(m))
                w = MinorWitness(VERDICT_CONTAINS, tuple(sets), spent)
                if not validate_witness(g, h, w):
                    raise AssertionError("search produced an invalid witness")
                return w
    return MinorWitness(VERDICT_FREE, None, spent)


def star_minor_free(g: Graph, b: int, budget: int = DEFAULT_BUDGET) -> bool:
    """K_{1,b}-minor freeness: the boolean view of has_minor(g, K_{1,b},
    budget), whose star route decides it by the boundary criterion
    (_star_search) and revalidates the witness of a star found.  Raises
    BudgetExhausted when the expansion budget runs out first."""
    if b < 1:
        raise ValueError("need b >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if b + 1 > g.n:  # too few vertices: free, with no K_{1,b} built
        return True
    verdict = has_minor(g, complete_bipartite(1, b), budget).verdict
    if verdict == VERDICT_BUDGET:
        raise BudgetExhausted(f"expansion budget {budget} exhausted")
    return verdict == VERDICT_FREE


def fold_verdicts(verdicts) -> bool | None:
    """The one fold of per-pattern verdicts into freeness: False when any
    pattern was found (a found minor decides, whatever else ran out of
    budget), else None when any search ran out of budget, else True."""
    if VERDICT_CONTAINS in verdicts:
        return False
    if VERDICT_BUDGET in verdicts:
        return None
    return True


def ab_pairs(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """The (r, s) of every K_{r,s} minor the (a,b)-property forbids: each
    split r + s = b + 1 with r <= omega = min(a, floor((b+1)/2)), by
    increasing r."""
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    return tuple((r, b + 1 - r) for r in range(1, min(a, (b + 1) // 2) + 1))


class AbPropertyReport(NamedTuple):
    checked_pairs: tuple[tuple[int, int], ...]
    verdicts: tuple[str, ...]  # "free" | "contains" | "budget" per pair
    overall: bool | None  # fold_verdicts: None when undecided


def ab_property(g: Graph, a: int, b: int, budget: int = DEFAULT_BUDGET) -> AbPropertyReport:
    """K_{r,s}-minor freeness for every pair of ab_pairs(a, b), each pair
    decided by has_minor within the budget."""
    pairs = ab_pairs(a, b)
    verdicts = tuple(has_minor(g, complete_bipartite(r, s), budget).verdict for r, s in pairs)
    return AbPropertyReport(pairs, verdicts, fold_verdicts(verdicts))


def ab_property_complement_criterion(g: Graph, a: int, b: int) -> bool:
    """For connected graphs of order b+1: the (a,b)-property holds iff
    every component of the complement has at least omega+1 vertices."""
    if g.n != b + 1:
        raise ValueError("criterion applies to graphs of order b+1")
    if not g.is_connected():
        raise ValueError("criterion applies to connected graphs")
    omega = len(ab_pairs(a, b))
    comp = g.complement()
    return all(m.bit_count() >= omega + 1 for m in comp.component_masks())
