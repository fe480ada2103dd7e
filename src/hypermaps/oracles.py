"""Independent reference computations used for cross-checking.

Everything here is deliberately naive and coded against textbook
definitions on graphs or plain enumeration, sharing as little as possible
with the main code paths.  The selftest subcommand and the test suite both
compare the fast routes against these.  ``flow_space`` is Gaussian
elimination over GF(q); ``flows`` reads its dimension off a formula.
``is_flow`` and ``unique_nz_refinement``, which only the checks call,
live here too, and so do the primitives of the refinement order that only
the checks call: ``noncrossing_partitions``, ``is_refinement``,
``interval``, ``mobius`` and ``mobius_of_cycles``.  ``refinement_sum``
totals a term over the listed refinements ``nclattice.refinements``
streams.  ``refinement_profile_sum`` writes the frontier DP's contract
once, as such a sum; the checks of R, chi and C read their exponents off
its (kappa, z(beta)) totals with ``collect``.

``is_refinement`` checks genus zero of the restricted pairs without
relabeling (``nclattice`` defines the order).  Once
every beta-cycle lies inside an alpha-cycle, an alpha-cycle of m points
holds at most m + 1 cycles of beta and of beta^-1 alpha together, with
equality exactly at genus zero, so beta <= alpha if and only if

    z(beta) + z(beta^-1 alpha) == n + z(alpha).

The Moebius function is the closed form

    mu(beta, gamma) = prod over cycles c of beta^-1 gamma of (-1)^(|c|-1) Cat(|c|-1)

because an interval [beta, gamma] factors into full lattices NC(|c|), one per
cycle c of beta^-1 gamma (Kreweras 1972; Nica and Speicher, Lectures on the
Combinatorics of Free Probability, Lectures 9-10), and NC(m) itself has
mu = (-1)^(m-1) Cat(m-1), Catalan numbers indexed from Cat(0) = 1.  The tests
and the selftest check it against the defining recursion.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, permutations, product
from typing import (
    Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from .counting import check_prime
from .hypermap import Hypermap, orbit_count
from .medial import EulerianDigraph, EulerianMap, base, is_plus, medial_map
from .nclattice import mobius_nc, refinements
from .perm import Permutation
from .poly import BiPoly, UniPoly

Partition = Tuple[Tuple[int, ...], ...]


def noncrossing_partitions(m: int) -> Tuple[Partition, ...]:
    """All noncrossing partitions of positions 0..m-1, sorted.

    The position blocks of the refinements of the cycle (1 ... m): a block
    read along that cycle is increasing, so each canonical cycle of a
    refinement is one block.  Listed afresh on every call; nothing is cached.
    """
    cycle = Permutation._unchecked((0, *range(2, m + 1), 1) if m else (0,))
    parts = [
        tuple(tuple(p - 1 for p in c) for c in beta.cycles())
        for beta in refinements(cycle)
    ]
    return tuple(sorted(parts))


def is_refinement(beta: Permutation, alpha: Permutation) -> bool:
    if beta.n != alpha.n:
        raise ValueError("size mismatch")
    owner = alpha.cycle_labels()
    for c in beta.cycles():
        if any(owner[p] != owner[c[0]] for p in c):
            return False
    zc = (beta.inverse() * alpha).cycle_count
    return beta.cycle_count + zc == alpha.n + alpha.cycle_count


def interval(beta: Permutation, alpha: Permutation) -> List[Permutation]:
    """All gamma with beta <= gamma <= alpha."""
    if not is_refinement(beta, alpha):
        raise ValueError("beta does not refine alpha")
    return [g for g in refinements(alpha) if is_refinement(beta, g)]


def mobius_of_cycles(delta: Permutation) -> int:
    """prod over cycles c of delta of (-1)^(|c|-1) Cat(|c|-1).

    This is mu(beta, gamma) for delta = beta^-1 gamma whenever beta <= gamma;
    in particular mu(id, beta) comes from beta's own cycles.
    """
    value = 1
    for c in delta.cycles():
        value *= mobius_nc(len(c))
    return value


def mobius(beta: Permutation, alpha: Permutation) -> int:
    """Moebius function of the interval [beta, alpha] in refinement order."""
    if not is_refinement(beta, alpha):
        raise ValueError("beta does not refine alpha")
    return mobius_of_cycles(beta.inverse() * alpha)


def narayana(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def refinement_sum(
    alpha: Permutation, term: Callable[[Permutation], Tuple[Hashable, int]]
) -> Dict[Hashable, int]:
    """Sum term(beta) = (exponent key, coefficient) over beta <= alpha, by key.

    Every refinement is built, so a term may use all of beta, such as
    beta^-1 sigma, not only what ``refinement_profile`` keeps.
    """
    totals: Dict[Hashable, int] = {}
    for beta in refinements(alpha):
        key, coeff = term(beta)
        totals[key] = totals.get(key, 0) + coeff
    return totals


def refinement_profile_sum(
    h: Hypermap,
    block_weight: Optional[Callable[[int], int]] = None,
    complement_weight: Optional[Callable[[int], int]] = None,
) -> Dict[Tuple[int, int], int]:
    """``refinement_profile`` over sigma's cycles, term by term.

    Every beta <= alpha is listed; kappa(sigma, beta) comes from a search
    over the orbits of <sigma, beta>, and its weight is the product of
    block_weight(|b|) over the cycles b of beta, or of complement_weight(|c|)
    over the cycles c of beta^-1 alpha (1 without a weight).  The weights
    are totalled by (kappa, z(beta)), and zero totals are dropped, as
    ``refinement_profile`` does.
    """
    if block_weight is not None and complement_weight is not None:
        raise ValueError("give block_weight or complement_weight, not both")
    weight = block_weight or complement_weight

    def term(beta: Permutation):
        blocks = beta if complement_weight is None else beta.inverse() * h.alpha
        value = math.prod(weight(len(c)) for c in blocks.cycles()) if weight else 1
        return (orbit_count(h.sigma, beta), beta.cycle_count), value

    return {key: c for key, c in refinement_sum(h.alpha, term).items() if c}


def whitney_refinement_sum(h: Hypermap) -> BiPoly:
    """R(u, v) term by term, from ``refinement_profile_sum``."""
    zs = h.sigma.cycle_count
    return BiPoly.collect(refinement_profile_sum(h), lambda kb, zb: (
        kb - h.kappa, kb + h.n - zb - zs))


def x_interval_sum(h: Hypermap, alpha1: Permutation, alpha2: Permutation) -> UniPoly:
    """X([alpha1, alpha2]; t) term by term, for alpha1 <= alpha2 <= alpha.

    The sum over beta in ``interval(alpha1, alpha2)`` of
    mu(alpha1, beta) t^kappa(sigma, beta), with kappa(sigma, beta) from a
    search over the orbits of <sigma, beta>.
    """
    terms: Dict[int, int] = {}
    for beta in interval(alpha1, alpha2):
        e = orbit_count(h.sigma, beta)
        terms[e] = terms.get(e, 0) + mobius(alpha1, beta)
    return UniPoly(terms)


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


def _edge_subsets(
    nv: int, edges: Sequence[Tuple[int, int]]
) -> Iterator[Tuple[int, int]]:
    """(|A|, c(A)) for every subset A of the edges, c counted on nv vertices."""
    for r in range(len(edges) + 1):
        for subset in combinations(edges, r):
            yield r, _component_count(nv, subset)


def graph_whitney_rank(nv: int, edges: Sequence[Tuple[int, int]]) -> BiPoly:
    """Subset expansion sum_A u^(c(A) - c(E)) v^(|A| - nv + c(A))."""
    c_full = _component_count(nv, edges)
    subsets = _edge_subsets(nv, edges)
    return BiPoly(Counter((c - c_full, r - nv + c) for r, c in subsets))


def graph_characteristic(nv: int, edges: Sequence[Tuple[int, int]]) -> UniPoly:
    """Chromatic subset expansion sum_A (-1)^|A| t^c(A), shifted down by c(E)."""
    terms: Counter = Counter()
    for r, c in _edge_subsets(nv, edges):
        terms[c] += -1 if r % 2 else 1
    poly = UniPoly(terms).shift_exponents(-_component_count(nv, edges))
    if any(e < 0 for e in poly.terms):
        raise ValueError("characteristic shift went negative")
    return poly


def graph_flow_polynomial(nv: int, edges: Sequence[Tuple[int, int]]) -> UniPoly:
    """Flow subset expansion sum_A (-1)^(|E| - |A|) t^(|A| - nv + c(A))."""
    terms: Counter = Counter()
    for r, c in _edge_subsets(nv, edges):
        terms[r - nv + c] += -1 if (len(edges) - r) % 2 else 1
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
        if euler % 2:
            raise ValueError(f"odd Euler characteristic {euler} on a component")
        total += (2 - euler) // 2
    return total


def vertex_matchings(cycle: Sequence[int]) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """All noncrossing sign-alternating perfect matchings of one vertex.

    The cycle is the sigma'-cycle of the vertex.  Matchings are tuples of
    (plus point, minus point) pairs; chords may not cross in the cyclic
    order and must join opposite signs.  Enumerated directly on positions
    (match the first position, recurse inside and outside), independent of
    the refinement machinery it is compared against.
    """

    def rec(points: Tuple[int, ...]) -> List[Tuple[Tuple[int, int], ...]]:
        if not points:
            return [()]
        head = points[0]
        out: List[Tuple[Tuple[int, int], ...]] = []
        for j in range(1, len(points), 2):
            partner = points[j]
            if is_plus(partner) == is_plus(head):
                continue
            pair = (head, partner) if is_plus(head) else (partner, head)
            inside = rec(points[1:j])
            outside = rec(points[j + 1 :])
            for a in inside:
                for b in outside:
                    out.append((pair,) + a + b)
        return out

    return tuple(rec(tuple(cycle)))


def coherent_matchings(m: EulerianMap) -> Iterator[Dict[int, int]]:
    """All coherent matchings, as symmetric point-to-partner dicts."""
    per_vertex = [vertex_matchings(vc) for vc in m.vertices()]
    for combo in product(*per_vertex):
        state: Dict[int, int] = {}
        for group in combo:
            for p_plus, p_minus in group:
                state[p_plus] = p_minus
                state[p_minus] = p_plus
        yield state


def matching_refinement(m: EulerianMap, matching: Dict[int, int]) -> Permutation:
    """The refinement beta with beta(i) = j for each matched pair (i+, j-)."""
    img = [0] * (m.n_base + 1)
    for p in range(2, m.pair.n + 1, 2):
        img[base(p)] = base(matching[p])
    return Permutation(img[1:])


def circuits_of_state(
    m: EulerianMap, matching: Dict[int, int]
) -> Tuple[Tuple[int, ...], ...]:
    """Closed circuits: i+ goes to its edge partner sigma(i)-, j- to its partner."""
    edge = m.alpha_prime
    seen = set()
    circuits: List[Tuple[int, ...]] = []
    for start in range(1, m.pair.n + 1):
        if start in seen:
            continue
        walk = []
        p = start
        while p not in seen:
            seen.add(p)
            walk.append(p)
            p = edge(p) if is_plus(p) else matching[p]
        circuits.append(tuple(walk))
    return tuple(circuits)


def circuit_state_sum(m: EulerianMap) -> UniPoly:
    """Sum of x^(number of circuits) over every coherent matching, listed."""
    return UniPoly(Counter(
        len(circuits_of_state(m, mu)) for mu in coherent_matchings(m)))


def proper_coloring_enumeration(h: Hypermap, colors: int) -> int:
    """Proper vertex colorings by the definition: all colors^V are listed.

    Vertices are sigma-cycles; a coloring is proper when every alpha-cycle
    meets pairwise differently colored vertices at its points, so a
    hyperedge visiting a vertex twice admits none.
    """
    vertex_of = h.sigma.cycle_labels()
    edges = [[vertex_of[p] for p in c] for c in h.alpha.cycles() if len(c) > 1]
    return sum(
        all(len({coloring[v] for v in vl}) == len(vl) for vl in edges)
        for coloring in product(range(colors), repeat=h.sigma.cycle_count)
    )


def compatible_coloring_enumeration(
    h: Hypermap, alpha1: Permutation, colors: int
) -> int:
    """Colorings constant on alpha1-cycles and proper across the rest, listed.

    Over all colors^V colorings, any two points of one alpha-cycle must see
    equal vertex colors when they share an alpha1-cycle and distinct ones
    otherwise.
    """
    vertex_of = h.sigma.cycle_labels()
    cycle1_of = alpha1.cycle_labels()
    pairs = [(vertex_of[a], vertex_of[b], cycle1_of[a] == cycle1_of[b])
             for c in h.alpha.cycles() for a, b in combinations(c, 2)]
    return sum(
        all((coloring[u] == coloring[v]) == same for u, v, same in pairs)
        for coloring in product(range(colors), repeat=h.sigma.cycle_count)
    )


class FlowSpace(NamedTuple):
    """Nullspace of the cycle-sum equations over a prime field."""

    q: int
    n: int
    dimension: int
    basis: Tuple[Tuple[int, ...], ...]  # vectors indexed by point - 1

    def count(self) -> int:
        return self.q ** self.dimension

    def vectors(self) -> Iterator[Tuple[int, ...]]:
        q, n = self.q, self.n
        for coeffs in product(range(q), repeat=self.dimension):
            vec = [0] * n
            for c, b in zip(coeffs, self.basis):
                if c:
                    for i in range(n):
                        vec[i] = (vec[i] + c * b[i]) % q
            yield tuple(vec)


def flow_space(h: Hypermap, q: int) -> FlowSpace:
    """Gaussian elimination over GF(q) on one equation per cycle.

    The resulting dimension always equals n + kappa - z(sigma) - z(alpha),
    which the selftest and the tests check.
    """
    check_prime(q)
    n = h.n
    rows: List[List[int]] = []
    for perm in (h.sigma, h.alpha):
        for c in perm.cycles():
            row = [0] * n
            for p in c:
                row[p - 1] = (row[p - 1] + 1) % q
            rows.append(row)
    pivots: List[int] = []
    rank = 0
    for col in range(n):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col] % q != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [(x * inv) % q for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % q:
                factor = rows[r][col]
                rows[r] = [
                    (a - factor * b) % q for a, b in zip(rows[r], rows[rank])
                ]
        pivots.append(col)
        rank += 1
    free_cols = [c for c in range(n) if c not in pivots]
    basis: List[Tuple[int, ...]] = []
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rows[r][fc]) % q
        basis.append(tuple(vec))
    return FlowSpace(q=q, n=n, dimension=n - rank, basis=tuple(basis))


def nowhere_zero_flow_enumeration(h: Hypermap, q: int) -> int:
    """Flows over GF(q) with zeros only on buds, among all q^dim listed ones."""
    required = [p - 1 for p in range(1, h.n + 1) if h.alpha(p) != p]
    return sum(all(vec[i] for i in required) for vec in flow_space(h, q).vectors())


def is_flow(h: Hypermap, f: Tuple[int, ...], q: int) -> bool:
    if len(f) != h.n:
        raise ValueError("flow vector length mismatch")
    for perm in (h.sigma, h.alpha):
        for c in perm.cycles():
            if sum(f[p - 1] for p in c) % q != 0:
                return False
    return True


def unique_nz_refinement(h: Hypermap, f: Tuple[int, ...], q: int) -> Permutation:
    """Shrink alpha so a given flow becomes nowhere zero on the result.

    Only defined when every alpha-cycle has length at most 3.  Each zero
    point i that is not already a bud is split out of its hyperedge by
    multiplying alpha on the right with the transposition (alpha^-1(i), i);
    the result does not depend on the order the zeros are processed, and f
    stays a flow on (sigma, beta), which the tests check.
    """
    check_prime(q)
    if any(len(c) > 3 for c in h.alpha.cycles()):
        raise ValueError("hyperedges longer than 3 are not supported here")
    if not is_flow(h, f, q):
        raise ValueError("f is not a flow")
    beta = h.alpha
    for i in range(1, h.n + 1):
        if f[i - 1] % q != 0:
            continue
        if beta(i) == i:
            continue
        pre = beta.inverse()(i)
        beta = beta * Permutation.transposition(h.n, pre, i)
    return beta


def valence(cycle: Sequence[int], coloring: Dict[int, int]) -> int:
    """Number of noncrossing matchings of one vertex joining equal colors."""
    return sum(
        all(coloring[p] == coloring[q] for p, q in matching)
        for matching in vertex_matchings(cycle)
    )


def eulerian_edge_colorings(m: EulerianMap, colors: int) -> Iterator[Dict[int, int]]:
    """Colorings of the medial edges whose color classes are all Eulerian.

    A coloring is emitted as a signed-point coloring (both ends of an edge
    share its color).  The Eulerian condition is checked per vertex: every
    color must cover as many minus as plus points there.
    """
    edge_list = m.edges()
    vertex_of = m.sigma_prime.cycle_labels()
    for assignment in product(range(colors), repeat=len(edge_list)):
        point_color: Dict[int, int] = {}
        balance: Counter = Counter()
        for (p_plus, p_minus), c in zip(edge_list, assignment):
            point_color[p_plus] = point_color[p_minus] = c
            balance[vertex_of[p_plus], c] += 1
            balance[vertex_of[p_minus], c] -= 1
        if not any(balance.values()):
            yield point_color


def eulerian_valence_sum(h: Hypermap, colors: int) -> int:
    """Sum over Eulerian edge colorings of the product of vertex valences.

    The definition, enumerated: colors^n colorings of the medial edges, and
    every noncrossing matching of every vertex for each of them.
    """
    m = medial_map(h)
    return sum(
        math.prod(valence(vc, coloring) for vc in m.vertices())
        for coloring in eulerian_edge_colorings(m, colors)
    )


def digraph_isomorphic(a: EulerianDigraph, b: EulerianDigraph) -> bool:
    """Brute force directed multigraph isomorphism (small inputs only)."""
    va, vb = a.vertices, b.vertices
    if len(va) != len(vb) or len(a.edges) != len(b.edges):
        return False

    def profile(d: EulerianDigraph):
        prof: Dict[int, List[int]] = {v: [0, 0, 0] for v in d.vertices}
        for t, h in d.edges:
            if t == h:
                prof[t][2] += 1
            else:
                prof[t][0] += 1
                prof[h][1] += 1
        return prof

    pa, pb = profile(a), profile(b)
    if sorted(map(tuple, pa.values())) != sorted(map(tuple, pb.values())):
        return False
    edges_b = sorted(b.edges)
    for perm in permutations(vb):
        mapping = dict(zip(va, perm))
        if any(tuple(pa[v]) != tuple(pb[mapping[v]]) for v in va):
            continue
        mapped = sorted((mapping[t], mapping[h]) for t, h in a.edges)
        if mapped == edges_b:
            return True
    return False
