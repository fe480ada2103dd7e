"""Independent reference computations used for cross-checking.

Everything here is deliberately naive and coded against textbook
definitions on graphs or plain enumeration, sharing as little as possible
with the main code paths.  The selftest subcommand and the test suite both
compare the fast routes against these.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .hypermap import Hypermap
from .poly import BiPoly, UniPoly


def narayana(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def underlying_graph(h: Hypermap) -> Tuple[int, List[Tuple[int, int]]]:
    """Vertex count and edge list of a map's underlying multigraph.

    Vertices are sigma-cycles (numbered 0..), each alpha 2-cycle becomes an
    edge (loops kept), alpha fixed points are bare buds and produce nothing.
    Only defined when every alpha-cycle has length at most 2.
    """
    vertex_of: Dict[int, int] = {}
    for idx, c in enumerate(h.sigma.cycles()):
        for p in c:
            vertex_of[p] = idx
    edges: List[Tuple[int, int]] = []
    for c in h.alpha.cycles():
        if len(c) > 2:
            raise ValueError("not a map: hyperedge longer than 2")
        if len(c) == 2:
            edges.append((vertex_of[c[0]], vertex_of[c[1]]))
    return h.sigma.cycle_count, edges


def _component_count(nv: int, edges: Sequence[Tuple[int, int]]) -> int:
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for v in range(nv) if find(v) == v)


def graph_whitney_rank(nv: int, edges: Sequence[Tuple[int, int]]) -> BiPoly:
    """Subset expansion sum_A u^(c(A) - c(E)) v^(|A| - nv + c(A))."""
    edges = list(edges)
    c_full = _component_count(nv, edges)
    terms: Dict[Tuple[int, int], int] = {}
    for r in range(len(edges) + 1):
        for subset in combinations(range(len(edges)), r):
            chosen = [edges[i] for i in subset]
            c = _component_count(nv, chosen)
            key = (c - c_full, r - nv + c)
            terms[key] = terms.get(key, 0) + 1
    return BiPoly(terms)


def graph_characteristic(nv: int, edges: Sequence[Tuple[int, int]]) -> UniPoly:
    """Chromatic subset expansion sum_A (-1)^|A| t^c(A), shifted down by c(E)."""
    edges = list(edges)
    c_full = _component_count(nv, edges)
    terms: Dict[int, int] = {}
    for r in range(len(edges) + 1):
        for subset in combinations(range(len(edges)), r):
            chosen = [edges[i] for i in subset]
            c = _component_count(nv, chosen)
            sign = -1 if r % 2 else 1
            terms[c] = terms.get(c, 0) + sign
    poly = UniPoly(terms).shift_exponents(-c_full)
    assert all(e >= 0 for e in poly.terms), "characteristic shift went negative"
    return poly


def graph_flow_polynomial(nv: int, edges: Sequence[Tuple[int, int]]) -> UniPoly:
    """Flow subset expansion sum_A (-1)^(|E| - |A|) t^(|A| - nv + c(A))."""
    edges = list(edges)
    ne = len(edges)
    terms: Dict[int, int] = {}
    for r in range(ne + 1):
        for subset in combinations(range(ne), r):
            chosen = [edges[i] for i in subset]
            c = _component_count(nv, chosen)
            sign = -1 if (ne - r) % 2 else 1
            e = r - nv + c
            terms[e] = terms.get(e, 0) + sign
    return UniPoly(terms)


def map_euler_genus(h: Hypermap) -> int:
    """Map genus from V - E + F per component, no orbit-count formula.

    For each connected component: faces are alpha^-1 sigma cycles inside it,
    vertices are sigma-cycles, edges are alpha 2-cycles, and
    2 - 2g = V - E + F.  Total genus is the sum over components.
    """
    faces = h.faces()
    total = 0
    for comp in h.components():
        pts = set(comp)
        v = sum(1 for c in h.sigma.cycles() if c[0] in pts)
        e = sum(1 for c in h.alpha.cycles() if len(c) == 2 and c[0] in pts)
        if any(len(c) > 2 for c in h.alpha.cycles() if c[0] in pts):
            raise ValueError("not a map")
        f = sum(1 for c in faces.cycles() if c[0] in pts)
        euler = v - e + f
        assert (2 - euler) % 2 == 0
        total += (2 - euler) // 2
    return total
