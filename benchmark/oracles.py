"""Independent checks of the program's outputs.

Nothing here imports kabminor.  A graph is an order n and a list of edges
(u, v); every check recomputes its answer from that description with its
own code, never from a stored copy of an earlier output.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

#: connected graphs of order 8 up to isomorphism (OEIS A001349)
CONNECTED_ORDER_8 = 11117

#: eigenvalue agreement and the tie tolerance of the program's contract
LAMBDA_TOL = 1e-9


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list of a short-form graph6 record (n <= 62)."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"not a short-form graph6 record: {text!r}")
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bits.extend(val >> shift & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, edges


def alpha_radius(n: int, edges, alpha: float) -> float:
    """Largest eigenvalue of alpha*D + (1-alpha)*A by numpy.linalg.eigvalsh."""
    m = np.zeros((n, n))
    for u, v in edges:
        m[u, v] = m[v, u] = 1.0 - alpha
        m[u, u] += alpha
        m[v, v] += alpha
    return float(np.linalg.eigvalsh(m)[-1])


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def regular_degree(n: int, edges) -> int | None:
    """The common degree of a regular graph, else None."""
    deg = set(degrees(n, edges))
    return deg.pop() if len(deg) == 1 else None


def _adjacency(n: int, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _connected(vertices: set[int], adj: dict[int, set[int]]) -> bool:
    if not vertices:
        return False
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()] & vertices:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def is_connected(n: int, edges) -> bool:
    return _connected(set(range(n)), _adjacency(n, edges))


def is_cycle(n: int, edges) -> bool:
    return n >= 3 and len(edges) == n and regular_degree(n, edges) == 2 and is_connected(n, edges)


def _contains_kst_spanning(adj: dict[int, set[int]], r: int, s: int) -> bool:
    """K_{r,s} as a subgraph using every vertex of a graph on r+s vertices."""
    verts = sorted(adj)
    for side in combinations(verts, r):
        other = [v for v in verts if v not in side]
        if all(set(other) <= adj[u] for u in side):
            return True
    return False


def _reductions(adj: dict[int, set[int]]):
    """Every graph one vertex smaller: each vertex deletion and each edge
    contraction."""
    for v in adj:
        yield {u: nb - {v} for u, nb in adj.items() if u != v}
    for u in adj:
        for v in adj[u]:
            if u < v:
                merged = (adj[u] | adj[v]) - {u, v}
                out = {w: (nb - {v}) for w, nb in adj.items() if w != v}
                out[u] = merged
                for w in merged:
                    out[w].add(u)
                yield out


def kst_minor(n: int, edges, r: int, s: int) -> bool:
    """Brute-force K_{r,s}-minor decision for graphs at most two vertices
    larger than the pattern: apply every sequence of deletions and
    contractions down to r+s vertices, then test for a spanning K_{r,s}
    subgraph (edge deletions are implied by the subgraph test)."""
    steps = n - (r + s)
    if steps < 0:
        return False
    if steps > 2:
        raise ValueError("the brute-force oracle handles |G| - |H| <= 2 only")
    level = {_freeze(_adjacency(n, edges)): _adjacency(n, edges)}
    for _ in range(steps):
        nxt = {}
        for adj in level.values():
            for red in _reductions(adj):
                nxt.setdefault(_freeze(red), red)
        level = nxt
    return any(_contains_kst_spanning(adj, r, s) for adj in level.values())


def _freeze(adj: dict[int, set[int]]):
    return frozenset(adj), frozenset((u, v) for u, nb in adj.items() for v in nb if u < v)


def valid_kst_witness(n: int, edges, r: int, s: int, branch_sets) -> bool:
    """A branch-set model of K_{r,s}, indexed as the pattern's vertices
    (0..r-1 on one side, r..r+s-1 on the other): nonempty, disjoint,
    each connected, and every cross pair joined by an edge."""
    if branch_sets is None or len(branch_sets) != r + s:
        return False
    adj = _adjacency(n, edges)
    sets = [set(bs) for bs in branch_sets]
    used: set[int] = set()
    for bs in sets:
        if not bs or bs & used or not bs <= set(range(n)) or not _connected(bs, adj):
            return False
        used |= bs
    for i in range(r):
        reach = set().union(*(adj[v] for v in sets[i]))
        if any(not reach & sets[r + j] for j in range(s)):
            return False
    return True
