"""Seeded inputs of the three workloads.

Every input carries its own edge list, so the oracles never read the
program's graph objects.

The cost of one operation spreads over orders of magnitude from graph to
graph (power iteration at alpha = 0.9 needs 30 to 11,000 iterations on
G(n, p) graphs of order <= 12; a small K_{2,4} decision takes 0.01 to
100 ms), so freshly drawn random graphs in every run would move the
metrics by 15-25% from seed to seed.  The random graphs are therefore drawn
once from the fixed POOL_SEED, and the run's seed changes what does not
change the work: spectral-rank relabels every graph's vertices (power
iteration starts from the uniform vector, so its iterations do not depend
on the labelling) and shuffles candidates and groups; minor-decide
shuffles the order of the small decisions; search-n8 orders its calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from kabminor import (
    FamilyParams,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    extremal_family,
    from_edges,
    pendant_matching_graph,
    petersen,
    petersen_complement,
    star_forest,
    subdivided_clique,
)

#: fixed seed of the random graphs; never change it, or every figure moves
POOL_SEED = 2412

#: the (b) values of search-n8, one CLI call each
SEARCH_BS = (3, 4, 5)

SPECTRAL_ALPHAS = (0.0, 0.5, 0.9)
GNP_ORDERS = range(6, 13)
GNP_GROUP_SIZE = 10
FAMILY_ORDERS = (21, 37, 61)

#: Petersen complement against K_{r,s}: expected verdict comes from the
#: brute-force oracle at check time, these only name the patterns
HARD_PATTERNS = ((1, 7), (2, 6), (4, 4), (2, 7), (3, 6))
SMALL_PATTERN = (2, 4)
SMALL_PS = (0.3, 0.45, 0.6)
SMALL_PER_P = 40


@dataclass(frozen=True)
class Case:
    """One input graph with the edge list the oracles use."""

    name: str
    graph: Graph
    edges: tuple[tuple[int, int], ...]


def _gnp(rng: random.Random, n: int, p: float, name: str) -> Case:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    return Case(name, from_edges(n, edges), edges)


def _family(name: str, g: Graph) -> Case:
    return Case(name, g, tuple(g.edges()))


def _relabel(rng: random.Random, case: Case) -> Case:
    n = case.graph.n
    perm = rng.sample(range(n), n)
    edges = tuple((perm[u], perm[v]) for u, v in case.edges)
    return Case(case.name, from_edges(n, edges), edges)


def _family_group(n: int) -> list[Case]:
    """Same-order candidates from the paper's constructions: subdivided
    cliques and every apex clause that builds at this order."""
    out = [_family(f"sk:{b},{n - b}", subdivided_clique(b, n - b)) for b in (3, 5, 8)]
    for a, b in ((2, 6), (2, 8), (3, 8), (4, 8), (3, 10)):
        params = FamilyParams(a, b, n)
        for clause in ("apex-f-block", "apex-star-forest-complements",
                       "apex-petersen-complement", "apex-cliques-remainder"):
            try:
                g = extremal_family(params, clause)
            except ValueError:
                continue
            out.append(_family(f"{clause}:{a},{b}", g))
    return out


def _order12_group() -> list[Case]:
    """Order b+1 = 12: star-forest complements, pendant matchings and
    subdivided cliques."""
    out = []
    for a in range(1, 6):
        try:
            out.append(_family(f"fab-complement:{a},11", star_forest(a, 11).complement()))
        except ValueError:
            continue
    out += [_family(f"pmg:11,{u2}", pendant_matching_graph(11, u2)) for u2 in (2, 4, 6, 8)]
    out += [_family(f"sk:{b},{12 - b}", subdivided_clique(b, 12 - b)) for b in (8, 11)]
    return out


def _regular_group() -> list[Case]:
    """Regular graphs of order 10, where the radius equals the degree."""
    return [
        _family("petersen", petersen()),
        _family("petersen-complement", petersen_complement()),
        _family("C:10", cycle(10)),
        _family("Kst:5,5", complete_bipartite(5, 5)),
        _family("K:10", complete(10)),
    ]


def spectral_groups(seed: int) -> list[tuple[str, list[Case]]]:
    """Named same-order groups for compare_candidates: one G(n, p) group
    per order 6..12 with p uniform in [0.2, 0.7] (some disconnected), then
    the family groups; relabelled and shuffled by the seed."""
    pool = random.Random(POOL_SEED)
    groups = [(f"gnp{n}", [_gnp(pool, n, pool.uniform(0.2, 0.7), f"gnp{n}.{i}")
                           for i in range(GNP_GROUP_SIZE)])
              for n in GNP_ORDERS]
    groups.append(("regular10", _regular_group()))
    groups.append(("order12", _order12_group()))
    groups += [(f"family{n}", _family_group(n)) for n in FAMILY_ORDERS]
    rng = random.Random(seed)
    out = []
    for name, cases in groups:
        cases = [_relabel(rng, c) for c in cases]
        rng.shuffle(cases)
        out.append((name, cases))
    rng.shuffle(out)
    return out


def minor_cases(seed: int) -> list[tuple[Case, tuple[int, int]]]:
    """The Petersen-complement decisions, then SMALL_PER_P graphs
    G(8, p) for each p in SMALL_PS against K_{2,4}, in a seeded order."""
    pc = _family("petersen-complement", petersen_complement())
    pool = random.Random(POOL_SEED)
    small = [(_gnp(pool, 8, p, f"g8p{p}.{i}"), SMALL_PATTERN)
             for p in SMALL_PS for i in range(SMALL_PER_P)]
    random.Random(seed).shuffle(small)
    return [(pc, rs) for rs in HARD_PATTERNS] + small
