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

Unless h is a star, has_minor first peels dominating vertices: with D
the host's first dominating vertices (degree n - 1), at most h.n - 1,
g has an h minor iff g - D has an h - X minor for some |D| vertices X
of h, each of which then takes a singleton of D, a branch set that
meets every other; every h - X tried spends from the one budget.  For
K_{a,b} and the a - 1 apex vertices of the paper's joins, the h - X are
the K_{r, b+1-r} of the (a,b)-property: the reduction of Zhai and Lin.

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
every count as it is; tests/test_minors.py pins them with a digest.
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
    nonempty, disjoint, connected in g, and covering every edge of h."""
    if witness.verdict != VERDICT_CONTAINS or witness.branch_sets is None:
        return False
    if len(witness.branch_sets) != h.n:
        return False
    masks = []
    used = 0
    for bs in witness.branch_sets:
        if not bs:
            return False
        mask = 0
        for v in bs:
            if not 0 <= v < g.n or used >> v & 1:
                return False
            mask |= 1 << v
            used |= 1 << v
        if mask & (mask - 1) and len(g.induced_mask(mask).component_masks()) != 1:
            return False
        masks.append(mask)
    for u, v in h.edges():
        if not any(g.rows[x] & masks[v] for x in _bits(masks[u])):
            return False
    return True


class _Pattern(NamedTuple):
    """What has_minor and the two searches use of a pattern h, worked out
    once per pattern by _pattern: its edge count, whether it is connected
    and a star, the placement order (decreasing degree, then index), and
    per placement index the indices of the neighbours placed before it
    and of the twin placed just before it (None when it has none)."""

    e: int
    connected: bool
    star: bool
    order: tuple[int, ...]
    placed_nbrs: tuple[tuple[int, ...], ...]
    twin_before: tuple[int | None, ...]


@lru_cache(maxsize=64)
def _pattern(h: Graph) -> _Pattern:
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    pos = {hv: i for i, hv in enumerate(order)}
    placed_nbrs = tuple(tuple(pos[u] for u in h.neighbors(hv) if pos[u] < i) for i, hv in enumerate(order))
    twin_before = [None] * h.n
    for cls in _twin_classes(h.rows, order):
        for prev, hv in zip(cls, cls[1:]):
            twin_before[pos[hv]] = pos[prev]
    return _Pattern(h.e, h.is_connected(), _is_star(h), tuple(order), placed_nbrs, tuple(twin_before))


def _minor_search(g: Graph, h: Graph, budget: int, within: int):
    """Backtracking branch-set assignment inside the vertex mask `within`;
    returns (found, branch_masks, expansions) or raises BudgetExhausted.

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
    p = _pattern(h)
    nh = h.n
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


def _star_search(g: Graph, h: Graph, budget: int, within: int):
    """_minor_search for a star pattern h = K_{1,b} via the boundary
    criterion: inside the vertex mask `within`, a union of components of
    g, the minor exists iff some connected set S has at least b
    neighbours outside S.  The centre's branch set is the first such S,
    each leaf a single vertex of N(S) minus S.  Returns (found,
    branch_masks, expansions) or raises BudgetExhausted; one expansion per
    connected set examined.

    Singletons go first, since a vertex of degree >= b settles it.  Then
    the sets of size 2 to |within| - b are walked inline in the order of
    _minor_search's walk, from each root but without examining it again."""
    b = h.n - 1
    rows = g.rows
    count = 0

    def found(s: int, nb: int):
        out = [1 << u for u in _bits(nb & ~s)][:b]
        out.insert(_pattern(h).order[0], s)  # the placement order puts the centre first
        return True, out, count

    for v in _bits(within):
        count += 1
        if count > budget:
            raise BudgetExhausted(f"expansion budget {budget} exhausted")
        if rows[v].bit_count() >= b:
            return found(1 << v, rows[v])
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
            if (nb & ~s).bit_count() >= b:
                return found(s, nb)
            if s.bit_count() < cap:
                if cand:
                    stack.append((fs, fnb, cand, ext))
                fs, fnb, cand = s, nb, nb & ext & ~s
        rest &= rest - 1
    return False, None, count


def has_minor(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> MinorWitness:
    """Exact minor test within the expansion budget (>= 0).  A "contains"
    answer carries branch sets that revalidate independently."""
    if h.n < 1:
        raise ValueError("pattern must be nonempty")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if h.n > g.n:
        return MinorWitness(VERDICT_FREE, None, 0)
    p = _pattern(h)
    if p.e > g.e:
        return MinorWitness(VERDICT_FREE, None, 0)
    spent = 0
    dom = [] if p.star else [v for v, r in enumerate(g.rows) if r.bit_count() == g.n - 1][: h.n - 1]
    if dom:
        # the dominating-vertex rule: g - dom against one h - X per vector
        # of counts from h's twin classes, the first class taking the most
        rest = [v for v in range(g.n) if v not in dom]
        sub = g.induced(rest)
        classes = _twin_classes(h.rows, p.order)
        for counts in product(*(range(min(len(c), len(dom)), -1, -1) for c in classes)):
            x = [v for c, k in zip(classes, counts) for v in c[:k]]
            if len(x) != len(dom):
                continue
            keep = [v for v in range(h.n) if v not in x]
            w = has_minor(sub, h.induced(keep), budget - spent)
            spent += w.expansions
            if w.verdict == VERDICT_CONTAINS:
                sets = [(d,) for d in dom] + [tuple(rest[u] for u in bs) for bs in w.branch_sets]
                w = MinorWitness(VERDICT_CONTAINS, tuple(bs for _, bs in sorted(zip(x + keep, sets))), spent)
                if not validate_witness(g, h, w):
                    raise AssertionError("search produced an invalid witness")
            if w.verdict != VERDICT_FREE:
                return w._replace(expansions=spent)
        return MinorWitness(VERDICT_FREE, None, spent)
    # a connected pattern must live inside one component, searched in place
    parts = g.component_masks() if p.connected else [(1 << g.n) - 1]
    search = _star_search if p.star else _minor_search
    for mask in parts:
        if h.n > mask.bit_count() or 2 * p.e > sum((g.rows[v] & mask).bit_count() for v in _bits(mask)):
            continue
        try:
            found, masks, used = search(g, h, budget - spent, mask)
        except BudgetExhausted:
            return MinorWitness(VERDICT_BUDGET, None, budget)
        spent += used
        if found:
            w = MinorWitness(VERDICT_CONTAINS, tuple(tuple(_bits(m)) for m in masks), spent)
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
