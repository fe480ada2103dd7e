"""Proper colorings and flows over GF(q), counted as values of chi and C.

A flow with values in GF(q) assigns f(i) to every point so that the values
on each sigma-cycle and each alpha-cycle sum to zero; the solution space has
dimension n + kappa - z(sigma) - z(alpha), as ``oracles.flow_space``
checks by elimination.  A flow is nowhere zero when f(i) = 0 only happens
on alpha fixed points (buds).  Proper colorings and nowhere-zero flows are
counted as values of chi and C (``charflow``) on graph maps, each one pass
of ``refinement_profile``'s evaluated kind, which carries one int per state
instead of a polynomial.  Only the ``colorings`` and ``flows`` subcommands
and the checks load this module.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .hypermap import Hypermap
from .nclattice import mobius_nc, refinement_profile
from .perm import Permutation


def proper_coloring_count(h: Hypermap, colors: int) -> int:
    """Count vertex colorings in which every hyperedge meets distinct colors.

    Vertices are sigma-cycles, so a hyperedge visiting some vertex twice, or
    more vertices than there are colors, admits none.
    ``oracles.proper_coloring_enumeration`` lists all colors^V colorings.
    """
    vertex = h.sigma.cycle_labels()
    groups = ([vertex[p] for p in c] for c in h.alpha.cycles())
    return distinct_colorings(h.sigma.cycle_count, groups, colors)


def distinct_colorings(nv: int, groups: Iterable[Sequence[int]], colors: int) -> int:
    """Colorings of vertices 0..nv-1 giving each group's vertices distinct colors.

    The groups are the cliques of one simple graph G.  A vertex of degree
    d <= 1 takes colors - d colors whatever the others take, so such
    vertices are removed one at a time, counted by d, and their factors
    taken as two powers; this keeps trees and long paths away from the
    frontier DP.  What is left counts as colors^kappa * chi(colors) of its
    map, the sum of mu(id, beta) * colors^kappa(sigma, beta): the level
    form evaluated at (colors, 1).
    """
    adj: List[Set[int]] = [set() for _ in range(nv)]
    for g in groups:
        if len(set(g)) != len(g) or len(g) > colors:
            return 0
        for u, v in combinations(g, 2):
            adj[u].add(v)
            adj[v].add(u)
    stripped = [0, 0]  # removed vertices of degree 0 and of degree 1
    low = [v for v in range(nv) if len(adj[v]) <= 1]
    while low:
        v = low.pop()
        d = len(adj[v])
        if colors == d:
            return 0
        stripped[d] += 1
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) == 1:
                low.append(u)
        adj[v] = set()
    total = colors ** stripped[0] * (colors - 1) ** stripped[1]
    g = _graph_map([(u, v) for u in range(nv) for v in sorted(adj[u]) if u < v])
    value, _ = refinement_profile(g.alpha, g.sigma.cycle_labels(),
                                  block_weight=mobius_nc, at=(colors, 1))
    return total * value


def _graph_map(edges: Sequence[Tuple[int, int]]) -> Hypermap:
    """A graph's map: edges[e] = (u, v) is the 2-cycle (2e+1 2e+2), 2e+1 at u.

    The points at a vertex form its sigma-cycle; any rotation gives the same
    chi and C.
    """
    ends: Dict[int, List[int]] = {}
    for e, (u, v) in enumerate(edges):
        ends.setdefault(u, []).append(2 * e + 1)
        ends.setdefault(v, []).append(2 * e + 2)
    n = 2 * len(edges)
    return Hypermap(Permutation.from_cycles(n, ends.values()),
                    Permutation.from_cycles(n, zip(range(1, n, 2), range(2, n + 1, 2))))


# Miller-Rabin with these bases is exact for every q < 2^64.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(q: int) -> bool:
    for p in _PRIME_BASES:
        if q % p == 0:
            return q == p
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def check_prime(q: int) -> None:
    if q >= 1 << 64:
        raise ValueError(f"q must be below 2^64, got a {q.bit_length()}-bit q")
    if q < 2 or not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")


def nowhere_zero_flow_count(h: Hypermap, q: int) -> int:
    """Count flows over GF(q) whose zeros all sit on alpha fixed points (buds).

    These are the nowhere-zero flows of the incidence graph, which has a
    vertex per sigma-cycle and per alpha-cycle and an edge per point that
    is not a bud, from its sigma side to its alpha side; a bud carries 0 by
    conservation at its alpha-cycle.  Their count is that graph's flow
    polynomial at q (Tutte 1954).  ``oracles.nowhere_zero_flow_enumeration``
    lists the q^dim flows instead.  A sigma-cycle holding one point that is
    not a bud makes that point the only edge at its vertex, a bridge, so
    the count is 0 without the graph.  C(q) of the graph's map is the block
    form, weighted by ``mobius_nc`` per complement block, evaluated at
    (q, q), which gives q^(n + kappa(sigma, beta) - z(beta)) per term,
    divided by q^z(sigma).
    """
    check_prime(q)
    if any(sum(h.alpha(p) != p for p in c) == 1 for c in h.sigma.cycles()):
        return 0
    vertex, edge = h.sigma.cycle_labels(), h.alpha.cycle_labels()
    z = h.sigma.cycle_count
    # Hyperedge by hyperedge, so each alpha-side vertex finishes before the
    # next one opens and the DP's frontier keeps little beyond the sigma side.
    incidence = [(vertex[p], z + edge[p])
                 for c in h.alpha.cycles() if len(c) > 1 for p in c]
    g = _graph_map(incidence)
    value, _ = refinement_profile(g.alpha, g.sigma.cycle_labels(),
                                  complement_weight=mobius_nc, at=(q, q))
    return value // q ** g.sigma.cycle_count
