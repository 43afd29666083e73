"""Alpha-weighted adjacency spectra: matrix assembly, spectral radius and
Perron vectors, equitable-partition quotients, and the closed-form
cubic/quadratic evaluators used by the verification suites.

The alpha matrix of a graph is M = alpha*D + (1-alpha)*A with D the degree
diagonal and A the adjacency matrix, alpha in [0, 1).  alpha = 0 gives the
adjacency matrix; alpha = 1/2 gives half the signless Laplacian.

There is one eigen path.  It splits a batch of graphs into connected
components, stacks the alpha matrices of all components of one order into
a (k, n, n) array, and makes one LAPACK eigh call per order, which runs
the same routine on each matrix as a lone call would, so every result is
bit-identical to a batch of one.  A one-vertex component beside a
component with an edge is not solved: its radius is 0, and any component
with an edge has radius at least 1, so it could never win.  An edgeless
graph solves only its first vertex.  Every solved matrix has its residual
checked against RESIDUAL_TOL.  spectral_radii returns only the
residual-checked radii of a batch; spectral_radius is the batch of one,
and it alone builds the normalised (zero-padded, for a disconnected graph)
Perron vector.  Equitable-partition quotients take their alpha matrix
from the same assembly and their eigenvalues from the symmetric solver;
QuotientMatrix.rho refuses a partition that is not equitable.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .graphs import Graph, _bits, _renumbered, check_alpha

#: numerical contract, fixed so reports are comparable across runs
RESIDUAL_TOL = 1e-10
LAMBDA_TIE_TOL = 1e-9


def _alpha_matrices(row_lists, n: int, alpha: float) -> np.ndarray:
    """The alpha matrices of graphs of one order n, given by their rows, as
    one (k, n, n) array: one unpackbits over all their rows joined."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for rows in row_lists for r in rows),
                           dtype=np.uint8)
    adj = np.unpackbits(packed.reshape(len(row_lists) * n, width), axis=1, count=n,
                        bitorder="little").reshape(len(row_lists), n, n)
    m = (1.0 - alpha) * adj
    diag = np.arange(n)
    m[:, diag, diag] = alpha * adj.sum(axis=2, dtype=float)
    return m


def alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    return _alpha_matrices([g.rows], g.n, check_alpha(alpha))[0]


class SpectralResult(NamedTuple):
    """Largest alpha-matrix eigenvalue with its eigenvector.

    is_perron is True when the vector is the strictly positive Perron
    vector (connected graph); for disconnected graphs the vector lives on
    one dominant component, padded with zeros elsewhere.
    """

    lam: float
    vector: tuple[float, ...]
    residual: float
    is_perron: bool


def _top_eigenpairs(row_lists, n: int, alpha: float):
    """Top eigenpairs of connected graphs of one order n by one stacked
    LAPACK eigh: (lams, vectors, residuals), a (k, n) array of vectors.
    Perron-Frobenius makes each top eigenvector single-signed; abs() also
    lifts entries that rounding leaves just below zero, which a sign flip
    would not."""
    m = _alpha_matrices(row_lists, n, alpha)
    w, v = np.linalg.eigh(m)
    lam = w[:, -1]
    x = np.abs(v[:, :, -1])
    resid = np.abs((m @ x[:, :, None])[:, :, 0] - lam[:, None] * x).max(axis=1)
    worst = resid.max()
    if worst > RESIDUAL_TOL:
        raise RuntimeError(f"eigen residual {worst:.3e} exceeds {RESIDUAL_TOL:g}")
    return lam.tolist(), x, resid.tolist()


def _solve(graphs, alpha: float):
    """The one eigen path: split a batch into components, make one stacked
    eigh per component order, and raise if any residual exceeds
    RESIDUAL_TOL.  Returns (solved, winners): solved maps a component order
    to its _top_eigenpairs, and winners holds per graph (lam, order, slot,
    vertices) of its winning component; vertices is None for a connected
    graph.  Components are scanned by smallest vertex, and a later one
    wins only when its radius exceeds the current winner's by more than
    LAMBDA_TIE_TOL.  One-vertex components are dropped unless the graph
    is edgeless, which keeps its first vertex: a component with an edge
    has radius >= 1, above their 0, so the winner is the same."""
    alpha = check_alpha(alpha)
    stacks: dict[int, list] = {}  # component order -> rows of its components
    layout = []  # per graph: (order, slot in that stack, vertices or None) per component
    for g in graphs:
        if g.n == 0:
            raise ValueError("spectral radius of the empty graph is undefined")
        masks = g.component_masks()
        comps = [c for c in masks if c & (c - 1)] or masks[:1]  # those with an edge, else vertex 0
        parts = [(g.rows, None)] if len(masks) == 1 else [
            (_renumbered(g.rows, verts), verts) for verts in (list(_bits(c)) for c in comps)]
        entry = []
        for rows, verts in parts:
            stack = stacks.setdefault(len(rows), [])
            entry.append((len(rows), len(stack), verts))
            stack.append(rows)
        layout.append(entry)
    solved = {n: _top_eigenpairs(rows, n, alpha) for n, rows in stacks.items()}
    winners = []
    for entry in layout:
        best = None
        for order, i, verts in entry:
            lam = solved[order][0][i]
            if best is None or lam > best[0] + LAMBDA_TIE_TOL:
                best = (lam, order, i, verts)
        winners.append(best)
    return solved, winners


def spectral_radii(graphs, alpha: float) -> list[float]:
    """spectral_radius(g, alpha).lam of each graph, by one stacked eigh per
    component order, with no eigenvectors built.  Each radius is
    bit-identical to the graph's own, whatever else is in the batch; a
    residual above RESIDUAL_TOL anywhere in the batch raises."""
    return [w[0] for w in _solve(graphs, alpha)[1]]


def spectral_radius(g: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of the alpha matrix with its eigenvector.

    Connected graphs get the positive Perron vector.  Disconnected graphs
    take the max over components; the vector of one maximizing component
    (the one containing the smallest vertex among maximizers) is
    zero-padded to full length and flagged non-Perron.  The solve is
    spectral_radii's on a batch of one.
    """
    solved, ((lam, order, i, verts),) = _solve([g], alpha)
    _, xs, resids = solved[order]
    if verts is None:
        x = xs[i] / np.linalg.norm(xs[i])
    else:
        x = np.zeros(g.n)
        x[verts] = xs[i]
        x /= np.linalg.norm(x)
    return SpectralResult(lam, tuple(x.tolist()), resids[i], verts is None)


# ---------------------------------------------------------------------
# equitable partitions and quotient matrices
# ---------------------------------------------------------------------

class QuotientMatrix(NamedTuple):
    entries: tuple[tuple[float, ...], ...]  # class-by-class average row sums
    equitable: bool
    sizes: tuple[int, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.entries)

    def eigenvalues(self) -> np.ndarray:
        """Ascending, by the symmetric eigensolver: with c the class sizes,
        sqrt(c_i/c_j) B_ij is symmetric and similar to B."""
        c = np.array(self.sizes, dtype=float)
        return np.linalg.eigvalsh(np.sqrt(c[:, None] / c) * self.as_array())

    def rho(self) -> float:
        """Largest eigenvalue; ValueError unless the partition is equitable."""
        if not self.equitable:
            raise ValueError("partition is not equitable")
        return float(self.eigenvalues()[-1])


def quotient(g: Graph, alpha: float, partition) -> QuotientMatrix:
    """The quotient B = P^T M P / sizes, with P the vertex-by-class indicator
    matrix and M the shared alpha matrix; the partition is equitable when
    the integer neighbour counts A P are constant within each class."""
    classes = [list(c) for c in partition]
    if sorted(v for c in classes for v in c) != list(range(g.n)) or not all(classes):
        raise ValueError("partition must cover all vertices disjointly, no empty classes")
    p = np.zeros((g.n, len(classes)))
    for j, c in enumerate(classes):
        p[c, j] = 1.0
    counts = alpha_matrix(g, 0.0) @ p  # exact: sums of 0/1 entries
    sizes = tuple(len(c) for c in classes)
    b = p.T @ alpha_matrix(g, alpha) @ p / np.array(sizes)[:, None]
    equitable = all((counts[c] == counts[c[0]]).all() for c in classes)
    return QuotientMatrix(tuple(map(tuple, b.tolist())), equitable, sizes)


def quotient_radius_check(g: Graph, alpha: float, partition):
    """(rho of the quotient, full spectral radius, |difference|); rho
    raises ValueError unless the partition is equitable."""
    rho_q = quotient(g, alpha, partition).rho()
    rho_full = spectral_radius(g, alpha).lam
    return rho_q, rho_full, abs(rho_q - rho_full)


def subdivided_clique_partition(b: int):
    """The natural equitable partition of the once-subdivided clique
    subdivided_clique(b, 1): subdivision vertex, the two path endpoints,
    the rest of the clique."""
    return [(b,), (0, 1), tuple(range(2, b))]


# ---------------------------------------------------------------------
# closed-form evaluators for the subdivided-clique analysis
# ---------------------------------------------------------------------

def threshold(b: int, alpha: float) -> float:
    """The lower-bound point b - 1 - 2(1-alpha)/(b-1)."""
    return b - 1 - 2 * (1 - alpha) / (b - 1)


def f1_eval(b: int, alpha: float, x: float) -> float:
    """Cubic whose largest root is the spectral radius of the
    once-subdivided clique on b+1 vertices."""
    a = alpha
    return (
        x**3
        - (a * b + b + 3 * a - 3) * x**2
        + (a * b**2 + (2 * a**2 + 2 * a - 2) * b + 2 * a**2 - 7 * a + 2) * x
        - 2 * a**2 * b**2
        + (2 * a**2 + 2) * b
        - 4 * a**2
        + 8 * a
        - 6
    )


def f1_threshold_closed(b: int, alpha: float) -> float:
    """Closed form of f1 at the threshold point."""
    a = alpha
    return (
        -4 * (1 - a) ** 2 * (b - 2) * ((2 - a) * b**2 - 4 * b + 3 * a)
        / (b - 1) ** 3
    )


def f2_eval(b: int, alpha: float, x: float) -> float:
    """Cubic whose largest root is the spectral radius of the clique with
    one edge replaced by two pendant edges (clique_with_pendants)."""
    a = alpha
    return (
        x**3
        - (a * b + b + 2 * a - 3) * x**2
        + (a * b**2 + (a**2 + a - 2) * b + 2 * a**2 - 6 * a + 3) * x
        - a**2 * b**2
        + (a**2 + 1) * b
        - 2 * a**2
        + 4 * a
        - 3
    )


def f2_threshold_closed(b: int, alpha: float) -> float:
    a = alpha
    return (
        -2 * (1 - a) ** 2 * (b - 2) * ((3 - a) * b**2 - 6 * b + 5 * a - 1)
        / (b - 1) ** 3
    )


def h_eval(b: int, alpha: float, u2: int, x: float) -> float:
    """Cubic in the spectral radius tied to the order-(b+1) candidate
    maximizers parametrized by the attachment-set size u2."""
    a = alpha
    return (
        x**3
        - (a * u2 + b * a + a + b - 3) * x**2
        + ((b * a**2 + a**2 + b * a - 3 * a) * u2 + b**2 * a - a - 2 * b + 2) * x
    )


def g_eval(b: int, alpha: float, y: float) -> float:
    """Quadratic matching h at the spectral radius: h(lam) = g(u2)."""
    a = alpha
    return (1 - a) ** 2 * y**2 + (b * a**2 - 1) * (b - 1) * y


# ---------------------------------------------------------------------
# double-eigenvector identity
# ---------------------------------------------------------------------

def xy_identity_check(g: Graph, h: Graph, alpha: float) -> float:
    """Residual of x^T y (lam(h) - lam(g)) = x^T (M(h) - M(g)) y with x, y
    the Perron vectors of g and h (same order, both connected)."""
    if g.n != h.n:
        raise ValueError("graphs must have the same order")
    if not (g.is_connected() and h.is_connected()):
        raise ValueError("both graphs must be connected")
    rg = spectral_radius(g, alpha)
    rh = spectral_radius(h, alpha)
    x = np.array(rg.vector)
    y = np.array(rh.vector)
    lhs = float(x @ y) * (rh.lam - rg.lam)
    rhs = float(x @ (alpha_matrix(h, alpha) - alpha_matrix(g, alpha)) @ y)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------
# Perron-coordinate bounds around a dominating clique
# ---------------------------------------------------------------------

class PerronStats(NamedTuple):
    X_M: float
    X_m: float
    lower_ok: bool        # X_m >= (1-a) X_s / (lam - a|S|), up to the slack
    lower_margin: float
    upper_ok: bool        # X_M < (1-a) X_s / (lam - a|S| - c)
    upper_margin: float


def perron_stats(g: Graph, alpha: float, S) -> PerronStats:
    """Perron-coordinate extremes X_M, X_m over the vertices off the
    dominating set S, together with the two standard bounds, where X_s is
    the coordinate sum over S and c is the max degree of the graph induced
    off S plus one."""
    S = tuple(sorted(S))
    for v in S:
        if g.degree(v) != g.n - 1:
            raise ValueError(f"vertex {v} is not dominating")
    rest = [v for v in range(g.n) if v not in S]
    if not rest:
        raise ValueError("no vertex off S")
    res = spectral_radius(g, alpha)
    x = res.vector
    c = g.induced(rest).max_degree() + 1.0
    xs = sum(x[v] for v in S)
    xm = min(x[v] for v in rest)
    xM = max(x[v] for v in rest)
    lo_den = res.lam - alpha * len(S)
    hi_den = res.lam - alpha * len(S) - c
    lower_bound = (1 - alpha) * xs / lo_den if lo_den > 0 else -math.inf
    # equality is attained by vertices adjacent only to S, so the lower
    # bound allows slack at the eigensolver's residual scale
    lower_margin = xm - (lower_bound - 1e-9)
    if hi_den > 0:
        upper_bound = (1 - alpha) * xs / hi_den
        upper_margin = upper_bound - xM
        upper_ok = xM < upper_bound
    else:
        # the bound degenerates when lam <= alpha|S| + c; report vacuous
        upper_margin = math.inf
        upper_ok = True
    return PerronStats(xM, xm, lower_margin >= 0, lower_margin, upper_ok, upper_margin)
