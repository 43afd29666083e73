"""Immutable simple graphs on bitset adjacency rows, plus the named
constructions used throughout the package (joins of cliques, star-forest
complements, subdivided cliques, the Petersen complement, ...).

Vertices are 0..n-1.  Adjacency is stored as one Python int per vertex
(bit j of rows[v] set iff v~j), so graphs above 64 vertices work the same
as small ones.  All mutating operations return new graphs, and every
vertex renumbering goes through one bit-table loop, _renumbered.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator, Sequence


def _bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _renumbered(rows, order) -> tuple[int, ...]:
    """The rows of the graph induced on the distinct vertices order, with
    vertex order[i] renumbered i: a vertex left out keeps bit 0 in the
    table, so its edges drop.  Valid rows give valid rows."""
    bit = [0] * len(rows)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    out = []
    for v in order:
        r = rows[v]
        row = 0
        while r:
            low = r & -r
            row |= bit[low.bit_length() - 1]
            r ^= low
        out.append(row)
    return tuple(out)


def check_alpha(alpha: float) -> float:
    """alpha as a float; ValueError unless 0 <= alpha < 1, so NaN too."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1); got {alpha}")
    return float(alpha)


def _twin_classes(rows, vertices):
    """The vertices grouped into twin classes, each in the given order and
    the classes by first member.  Twins have identical rows once their
    mutual bits are cleared, so swapping two is an automorphism."""
    classes: list[list[int]] = []
    for v in vertices:
        for cls in classes:
            u = cls[0]
            off = ~(1 << v | 1 << u)
            if rows[v] & off == rows[u] & off:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


class _Value:
    """Immutable value semantics for a class that checks its fields when
    built and lists them in __slots__: equal only to an instance of the
    same class with equal fields, hashed on the fields, shown as
    Name(field=value, ...), refusing attribute assignment, and pickled
    as its field values."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return self._values(self)

    def __setstate__(self, state):
        self._set(*state)


class Graph(_Value):
    """Immutable simple undirected graph.

    rows[v] is the neighbourhood bitmask of v.  labels, when present, are
    vertex annotations (e.g. "apex", "clique", "path").  No search, minor
    test or spectral solve consults them; verify.check_degree_ordering_claim
    finds the F-block's path ends by their labels "v1" and "v3".
    """

    __slots__ = ("n", "rows", "labels")

    def __init__(self, n: int, rows: tuple[int, ...], labels: tuple | None = None):
        self._set(n, rows, labels)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("row count must equal vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(self.rows):
            for u in _bits(row):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v},{u})")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label count must equal vertex count")

    @classmethod
    def _unchecked(cls, n: int, rows: tuple[int, ...], labels: tuple | None = None) -> "Graph":
        """A graph on rows and labels that are known to be valid (derived
        from a validated graph), built without the O(n^2) checks of
        __init__."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        object.__setattr__(g, "labels", labels)
        return g

    # -- basic queries -------------------------------------------------

    @property
    def e(self) -> int:
        """Edge count (half the degree sum)."""
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def degree_sequence(self) -> list[int]:
        """Degrees sorted non-increasing."""
        return sorted(self.degrees(), reverse=True)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return list(_bits(self.rows[v]))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u]) if u < v]

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for order {self.n}")

    # -- connectivity --------------------------------------------------

    def component_masks(self, within: int | None = None) -> list[int]:
        """Vertex bitmasks of the components of the subgraph induced on the
        vertex mask within (default: every vertex), by smallest vertex."""
        rows = self.rows
        rest = (1 << self.n) - 1 if within is None else within
        out = []
        while rest:
            comp = rest & -rest
            frontier = rows[comp.bit_length() - 1] & rest & ~comp
            while frontier:  # one BFS level per round, its vertices by lowest bit
                comp |= frontier
                reached = 0
                while frontier:
                    low = frontier & -frontier
                    reached |= rows[low.bit_length() - 1]
                    frontier ^= low
                frontier = reached & rest & ~comp
            rest &= ~comp
            out.append(comp)
        return out

    def block_masks(self, within: int | None = None) -> list[int]:
        """Vertex bitmasks of the blocks of the subgraph induced on the
        vertex mask within (default: every vertex): its maximal 2-connected
        subgraphs and its bridges, so two blocks share at most one vertex,
        a cut vertex.  An isolated vertex lies in none.  Components go by
        smallest vertex, and the blocks of one in the order a depth-first
        search from that vertex closes them.

        Hopcroft-Tarjan in O(n + e) row operations, its depth-first search
        on an explicit stack, so no order reaches the recursion limit.  The
        visited neighbours of a vertex just reached are all its ancestors,
        so its low point starts at the smallest of their numbers."""
        rows = self.rows
        within = (1 << self.n) - 1 if within is None else within
        num = [0] * self.n
        low = [0] * self.n
        seen = count = 0
        out = []
        rest = within
        while rest:
            root = (rest & -rest).bit_length() - 1
            count += 1
            num[root] = low[root] = count
            seen |= 1 << root
            path = [root]  # vertices reached and not yet closed in a block
            stack = [root]
            todo = [rows[root] & within]  # per stacked vertex, neighbours left to try
            while stack:
                t = todo[-1] & ~seen
                if t:
                    w = t & -t
                    todo[-1] = t ^ w
                    u = w.bit_length() - 1
                    count += 1
                    num[u] = count
                    least = count
                    back = rows[u] & seen
                    while back:
                        b = back & -back
                        back ^= b
                        k = num[b.bit_length() - 1]
                        if k < least:
                            least = k
                    low[u] = least
                    seen |= w
                    path.append(u)
                    stack.append(u)
                    todo.append(rows[u] & within)
                    continue
                v = stack.pop()
                todo.pop()
                if not stack:
                    break
                p = stack[-1]
                if low[v] >= num[p]:  # p cuts v's subtree off: close a block
                    block = 1 << p
                    while True:
                        x = path.pop()
                        block |= 1 << x
                        if x == v:
                            break
                    out.append(block)
                elif low[v] < low[p]:
                    low[p] = low[v]
            rest &= ~seen
        return out

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.component_masks()) == 1

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, vertices renumbered in the given order."""
        verts = list(vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertices")
        for v in verts:
            self._check_vertex(v)
        labels = tuple(self.labels[v] for v in verts) if self.labels else None
        return Graph._unchecked(len(verts), _renumbered(self.rows, verts), labels)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph with vertex v moved to position perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        return self.induced(sorted(range(self.n), key=lambda v: perm[v]))

    # -- edit operations (all return new graphs) -----------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("no loops")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) already present")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows), self.labels)

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows), self.labels)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        rows = tuple((full & ~r & ~(1 << v)) for v, r in enumerate(self.rows))
        return Graph._unchecked(self.n, rows, self.labels)

    # -- serialization -------------------------------------------------

    def to_graph6(self) -> str:
        return to_graph6(self)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in range(self.n):
            lab = ""
            if self.labels and self.labels[v]:
                lab = f' [label="{v}:{self.labels[v]}"]'
            lines.append(f"  {v}{lab};")
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)


def from_edges(n: int, edges: Iterable[tuple[int, int]], labels=None) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {(u, v)} has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError("no loops")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows), tuple(labels) if labels else None)


# ---------------------------------------------------------------------
# graph6 (6-bit chunks of the upper triangle, column-major, offset 63)
# ---------------------------------------------------------------------

def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("order too large for graph6 short form")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(g.rows[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


def _graph6_header(s: str) -> tuple[int, int]:
    """(order, body start) of a stripped graph6 record."""
    if not s:
        raise ValueError("empty graph6 record")
    # the order digits: 1 byte, '~' and 3 (orders 63..258047), or '~~' and 6
    start, end = (0, 1) if s[0] != "~" else (2, 8) if s[1:2] == "~" else (1, 4)
    for ch in s[:end]:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"character {ch!r} out of graph6 range")
    if len(s) < end:
        raise ValueError("truncated graph6 order field")
    n = 0
    for ch in s[start:end]:
        n = n << 6 | (ord(ch) - 63)
    return n, end


def graph6_order(s: str) -> int:
    """The order of a graph6 record, read from its header without
    decoding any of its rows."""
    return _graph6_header(s.strip())[0]


def from_graph6(s: str) -> Graph:
    s = s.strip()
    n, start = _graph6_header(s)
    body = s[start:]
    for ch in body:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"character {ch!r} out of graph6 range")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 body length does not match order")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------
# generic constructions
# ---------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(m: int) -> Graph:
    if m < 0:
        raise ValueError("order must be >= 0")
    full = (1 << m) - 1
    return Graph(m, tuple(full & ~(1 << v) for v in range(m)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star(leaves: int) -> Graph:
    """K_{1,leaves}; vertex 0 is the centre."""
    g = from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    labels = ("center",) + ("leaf",) * leaves
    return Graph(g.n, g.rows, labels)


def complete_bipartite(r: int, s: int) -> Graph:
    if r < 0 or s < 0:
        raise ValueError("sides must be >= 0")
    return from_edges(r + s, [(i, r + j) for i in range(r) for j in range(s)])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges; labels preserved."""
    n = g.n + h.n
    rows = list(g.rows)
    hmask = ((1 << h.n) - 1) << g.n
    gmask = (1 << g.n) - 1
    rows = [r | hmask for r in rows]
    rows += [(h.rows[v] << g.n) | gmask for v in range(h.n)]
    labels = None
    if g.labels or h.labels:
        labels = (g.labels or (None,) * g.n) + (h.labels or (None,) * h.n)
    return Graph(n, tuple(rows), labels)


def disjoint_union(parts: Iterable[Graph]) -> Graph:
    n = 0
    rows: list[int] = []
    labels: list = []
    any_labels = False
    for p in parts:
        rows.extend(r << n for r in p.rows)
        labels.extend(p.labels or (None,) * p.n)
        any_labels = any_labels or bool(p.labels)
        n += p.n
    return Graph(n, tuple(rows), tuple(labels) if any_labels else None)


# ---------------------------------------------------------------------
# family parameters and the named families
# ---------------------------------------------------------------------

class FamilyParams(_Value):
    """Parameters (a, b, n) together with the derived decomposition
    n - a + 1 = k*b + t (0 <= t <= b-1), tau = floor((b+1)/(a+1)) and
    omega = min(a, floor((b+1)/2))."""

    __slots__ = ("a", "b", "n", "k", "t", "tau", "omega")

    def __init__(self, a: int, b: int, n: int):
        if not 1 <= a <= b <= n:
            raise ValueError("need 1 <= a <= b <= n")
        rem = n - a + 1
        self._set(a, b, n, rem // b, rem % b, (b + 1) // (a + 1), min(a, (b + 1) // 2))


def star_forest(a: int, b: int) -> Graph:
    """The star forest on b+1 vertices made of tau = floor((b+1)/(a+1))
    stars, all K_{1,a} except possibly one larger one (placed first)."""
    tau = (b + 1) // (a + 1)
    if a < 1 or b < a or tau < 1:
        raise ValueError(f"invalid star-forest parameters ({a},{b})")
    c = b - (a + 1) * (tau - 1)
    if c < a:
        raise AssertionError("leading star smaller than K_{1,a}")
    return disjoint_union([star(c)] + [star(a)] * (tau - 1))


def f_graph(a1: int, a2: int, a3: int) -> Graph:
    """K_{b-1} (b = a1+a2+a3+1) plus a path v1 v2 v3 with v_i joined to a
    class of a_i clique vertices.  Clique vertices come first; the path is
    the last three vertices, labelled v1, v2, v3."""
    if min(a1, a2, a3) < 0:
        raise ValueError("class sizes must be >= 0")
    bm1 = a1 + a2 + a3  # order of the clique, b - 1
    edges = list(combinations(range(bm1), 2))
    v1, v2, v3 = bm1, bm1 + 1, bm1 + 2
    edges += [(v1, v2), (v2, v3)]
    edges += [(i, v1) for i in range(a1)]
    edges += [(i, v2) for i in range(a1, a1 + a2)]
    edges += [(i, v3) for i in range(a1 + a2, bm1)]
    labels = ("clique",) * bm1 + ("v1", "v2", "v3")
    return from_edges(bm1 + 3, edges, labels)


_PETERSEN_PAIRS = list(combinations(range(5), 2))


def petersen() -> Graph:
    """The Petersen graph with vertices the 2-subsets of {0..4} in
    lexicographic order, adjacent iff disjoint."""
    idx = {p: i for i, p in enumerate(_PETERSEN_PAIRS)}
    edges = [
        (idx[p], idx[q])
        for p, q in combinations(_PETERSEN_PAIRS, 2)
        if not set(p) & set(q)
    ]
    return from_edges(10, edges)


def petersen_complement() -> Graph:
    return petersen().complement()


def subdivided_clique(b: int, k: int) -> Graph:
    """K_b with one edge subdivided k times.  All clique edges tie on
    endpoint degree sum, so the lexicographically smallest pair (0,1) is
    subdivided; the k new degree-2 vertices are b..b+k-1 forming the path
    0, b, b+1, ..., b+k-1, 1."""
    if b < 3 or k < 0:
        raise ValueError("need b >= 3, k >= 0")
    if k == 0:
        return complete(b)
    edges = [(i, j) for i, j in combinations(range(b), 2) if (i, j) != (0, 1)]
    path = [0] + list(range(b, b + k)) + [1]
    edges += list(zip(path, path[1:]))
    labels = ("clique",) * b + ("path",) * k
    return from_edges(b + k, edges, labels)


def clique_with_pendants(b: int) -> Graph:
    """K_b minus the edge (0,1), plus pendant vertices b (on 0) and b+1
    (on 1)."""
    if b < 3:
        raise ValueError("need b >= 3")
    edges = [(i, j) for i, j in combinations(range(b), 2) if (i, j) != (0, 1)]
    edges += [(0, b), (1, b + 1)]
    return from_edges(b + 2, edges)


def pendant_matching_graph(b: int, u2: int) -> Graph:
    """Order-(b+1) candidate maximizer: K_b on vertices 0..b-1 minus a
    perfect matching on the u2 vertices b-u2..b-1, plus vertex b joined to
    exactly those u2 vertices.  Requires u2 even, 2 <= u2 <= b-2."""
    if u2 % 2 or not 2 <= u2 <= b - 2:
        raise ValueError("need u2 even with 2 <= u2 <= b-2")
    matched = list(range(b - u2, b))
    drop = {(matched[i], matched[i + 1]) for i in range(0, u2, 2)}
    edges = [(i, j) for i, j in combinations(range(b), 2) if (i, j) not in drop]
    edges += [(v, b) for v in matched]
    return from_edges(b + 1, edges)


# clause tags for the extremal constructions
CLAUSE_STAR_FOREST = "star-forest-complement"        # n = b+1, a = 1
CLAUSE_SUBDIVIDED = "subdivided-clique"              # n != b+1, a = 1
CLAUSE_APEX_F_BLOCK = "apex-f-block"                 # t = tau = 2
CLAUSE_APEX_STAR_FORESTS = "apex-star-forest-complements"
CLAUSE_APEX_PETERSEN = "apex-petersen-complement"    # t = 2, tau = 1, b = 8
CLAUSE_APEX_CLIQUES = "apex-cliques-remainder"
CLAUSE_OUTSIDE = "outside-theorem"


def extremal_family(p: FamilyParams, clause: str) -> Graph:
    """Build the named extremal construction for parameters p under the
    given clause tag.  Raises ValueError when the clause is inconsistent
    with p (wrong order would result)."""
    a, b, k, t = p.a, p.b, p.k, p.t
    if clause == CLAUSE_STAR_FOREST:
        if a != 1 or p.n != b + 1:
            raise ValueError("clause needs a=1, n=b+1")
        return star_forest(1, b).complement()
    if clause == CLAUSE_SUBDIVIDED:
        if a != 1 or p.n == b + 1 or p.n < b:
            raise ValueError("clause needs a=1, n >= b, n != b+1")
        return subdivided_clique(b, p.n - b)
    if a < 2:
        raise ValueError(f"clause {clause} needs a >= 2")
    apex = complete(a - 1)
    if apex.n:
        apex = Graph(apex.n, apex.rows, ("apex",) * apex.n)
    if clause == CLAUSE_APEX_F_BLOCK:
        if not (t == 2 and p.tau == 2) or k < 1:
            raise ValueError("clause needs t = tau = 2 and k >= 1")
        block = disjoint_union([complete(b)] * (k - 1) + [f_graph(a, 0, b - 1 - a)])
    elif clause == CLAUSE_APEX_STAR_FORESTS:
        if k < t:
            raise ValueError("clause needs k >= t")
        block = disjoint_union(
            [complete(b)] * (k - t) + [star_forest(a, b).complement()] * t
        )
    elif clause == CLAUSE_APEX_PETERSEN:
        if not (t == 2 and p.tau == 1 and b == 8) or k < 1:
            raise ValueError("clause needs t=2, tau=1, b=8 and k >= 1")
        block = disjoint_union([complete(b)] * (k - 1) + [petersen_complement()])
    elif clause == CLAUSE_APEX_CLIQUES:
        block = disjoint_union([complete(b)] * k + [complete(t)])
    else:
        raise ValueError(f"unknown clause {clause!r}")
    out = join(apex, block)
    if out.n != p.n:
        raise AssertionError("construction order mismatch")
    return out
