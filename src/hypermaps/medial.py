"""Medial maps, coherent matchings and circuit partitions.

The medial map of a collection (sigma, alpha) on 1..n lives on 2n signed
points: point i gets a negative copy i- and a positive copy i+.  The fixed
encoding is

    i-  ->  2*i - 1        i+  ->  2*i

so base(p) = (p + 1) // 2 and the sign is the parity.  Vertices of the
medial map come from hyperedge cycles: the alpha-cycle (i1, ..., ik) becomes
the sigma'-cycle (i1-, i1+, i2-, i2+, ..., ik-, ik+).  Edges are the 2-cycles
(i+, sigma(i)-).  This preserves genus, and z(sigma') = z(alpha),
z(alpha') = n.

A state (coherent matching) pairs, inside every vertex independently,
positive with negative points so that matched chords do not cross in the
vertex's cyclic order.  Reading beta(i) = j off the matched pairs (i+, j-)
gives a bijection with refinements beta <= alpha.  The circuits of a state
traverse i+ to sigma(i)- (an edge) and j- to its matched partner; their
number is z(beta^-1 sigma).

This module lists no states.  The circuit partition polynomial
j(x) = sum of x^(circuits) is a sum over refinements: one frontier DP pass
at genus zero, a count over the listed refinements otherwise.  At genus
zero the Eulerian edge-coloring sum is j(colors).  The listed state sum
``oracles.circuit_state_sum``, the definitional coloring sum and the
digraph isomorphism check are references in ``oracles``, which the
selftest and the tests compare against.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

from .hypermap import Hypermap, cycle_count
from .nclattice import refinement_count, refinement_profile, refinements, require_total
from .perm import Permutation, cycle_text
from .poly import UniPoly


def minus(i: int) -> int:
    return 2 * i - 1


def plus(i: int) -> int:
    return 2 * i


def base(p: int) -> int:
    return (p + 1) // 2


def is_plus(p: int) -> bool:
    return p % 2 == 0


def signed_name(p: int) -> str:
    return f"{base(p)}{'+' if is_plus(p) else '-'}"


class EulerianMap:
    """A hypermap on signed points whose vertices alternate -, + pairs.

    Validates that sigma' maps each i- to the same base's i+ (so every
    vertex cycle reads (i1-, i1+, i2-, i2+, ...)) and that alpha' is a
    fixed-point-free involution pairing positive with negative points.
    """

    __slots__ = ("pair", "n_base")

    def __init__(self, pair: Hypermap):
        if pair.n % 2 != 0:
            raise ValueError("signed point set must have even size")
        self.pair = pair
        self.n_base = pair.n // 2
        sig, alf = pair.sigma, pair.alpha
        for i in range(1, self.n_base + 1):
            if sig(minus(i)) != plus(i):
                raise ValueError(f"vertex cycle broken at {signed_name(minus(i))}")
        for p in range(1, pair.n + 1):
            q = alf(p)
            if q == p or alf(q) != p or is_plus(q) == is_plus(p):
                raise ValueError("edges must pair opposite signs as 2-cycles")

    @property
    def sigma_prime(self) -> Permutation:
        return self.pair.sigma

    @property
    def alpha_prime(self) -> Permutation:
        return self.pair.alpha

    @property
    def genus(self) -> int:
        return self.pair.genus

    def vertices(self) -> Tuple[Tuple[int, ...], ...]:
        return self.pair.sigma.cycles()

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Edge 2-cycles as (plus point, minus point), sorted by plus base."""
        out = []
        for p in range(2, self.pair.n + 1, 2):
            out.append((p, self.pair.alpha(p)))
        return tuple(out)

    def __repr__(self) -> str:
        sig = cycle_text(self.pair.sigma.cycles(), signed_name)
        alf = cycle_text(self.pair.alpha.cycles(), signed_name)
        return f"EulerianMap(sigma'={sig}, alpha'={alf})"


def medial_map(h: Hypermap) -> EulerianMap:
    n = h.n
    sig_cycles: List[Tuple[int, ...]] = []
    for c in h.alpha.cycles():
        doubled: List[int] = []
        for i in c:
            doubled.extend((minus(i), plus(i)))
        sig_cycles.append(tuple(doubled))
    alf_cycles = [(plus(i), minus(h.sigma(i))) for i in range(1, n + 1)]
    pair = Hypermap(
        Permutation.from_cycles(2 * n, sig_cycles),
        Permutation.from_cycles(2 * n, alf_cycles),
    )
    return EulerianMap(pair)


def source_hypermap(m: EulerianMap) -> Hypermap:
    """Invert medial_map: any valid EulerianMap arises from exactly one pair."""
    n = m.n_base
    alpha_cycles = []
    for vc in m.vertices():
        alpha_cycles.append(tuple(base(p) for p in vc if not is_plus(p)))
    sigma_img = [0] * (n + 1)
    for p_plus, p_minus in m.edges():
        sigma_img[base(p_plus)] = base(p_minus)
    return Hypermap(
        Permutation(sigma_img[1:]), Permutation.from_cycles(n, alpha_cycles)
    )


def circuit_partition_polynomial(h: Hypermap) -> UniPoly:
    """Sum of x^(number of circuits) over the states of medial_map(h).

    States and refinements beta <= alpha correspond one to one, and the
    state of beta has z(beta^-1 sigma) circuits, the cycle count of its
    inverse sigma^-1 beta.  At genus zero that is
    n + 2 kappa(sigma, beta) - z(sigma) - z(beta), so j is read off one
    ``refinement_profile`` pass, whose total j(1) must be the refinement
    count; the selftest and the tests check j(x) = x^kappa R(x, x).
    Otherwise the circuits of each listed refinement are counted.
    """
    if h.genus == 0:
        counts, _ = refinement_profile(h.alpha, h.sigma.cycle_labels())
        require_total(counts, refinement_count(h.alpha), "j(1)")
        zs = h.sigma.cycle_count
        return UniPoly.collect(counts, lambda kb, zb: h.n + 2 * kb - zs - zb)
    sinv = h.sigma.inverse()._image
    return UniPoly(Counter(
        cycle_count([sinv[b] for b in beta._image]) for beta in refinements(h.alpha)
    ))


def eulerian_coloring_sum(h: Hypermap, colors: int) -> int:
    """Sum over Eulerian edge colorings of the product of vertex valences.

    Genus zero only.  A state with c circuits is compatible with exactly
    colors^c colorings (color each circuit), so the sum is j(colors)
    (Ellis-Monaghan 1998).  The frontier DP evaluated at (colors^2, colors)
    gives colors^(n + 2 kappa(sigma, beta) - z(beta)) per refinement, which
    is j's term times colors^z(sigma).  The selftest and the tests compare
    it and colors^kappa R(colors, colors) with the definitional sum
    ``oracles.eulerian_valence_sum``.
    """
    if h.genus != 0:
        raise ValueError("the coloring sum is only defined at genus zero")
    if not colors:  # every state of n >= 1 points has a circuit
        return int(h.n == 0)
    value, _ = refinement_profile(h.alpha, h.sigma.cycle_labels(),
                                  at=(colors * colors, colors))
    return value // colors ** h.sigma.cycle_count


class EulerianDigraph(NamedTuple):
    """A directed multigraph given by its edge list (loops allowed)."""

    edges: Tuple[Tuple[int, int], ...]

    @property
    def vertices(self) -> Tuple[int, ...]:
        seen = set()
        for t, h in self.edges:
            seen.add(t)
            seen.add(h)
        return tuple(sorted(seen))

    def degree_balance(self) -> Dict[int, int]:
        bal: Dict[int, int] = {}
        for t, h in self.edges:
            bal[t] = bal.get(t, 0) + 1
            bal[h] = bal.get(h, 0) - 1
        return bal

    @property
    def is_eulerian(self) -> bool:
        return all(b == 0 for b in self.degree_balance().values())


def medial_digraph(h: Hypermap) -> EulerianDigraph:
    """The directed medial graph: one edge per point, between hyperedges.

    Vertices are the alpha-cycles, numbered 1.. in canonical cycle order;
    point i contributes the edge from i's hyperedge to sigma(i)'s.
    """
    owner = h.alpha.cycle_labels()
    edges = tuple((owner[i] + 1, owner[h.sigma(i)] + 1) for i in range(1, h.n + 1))
    return EulerianDigraph(edges)


def from_eulerian_digraph(d: EulerianDigraph) -> Hypermap:
    """A collection whose directed medial graph is isomorphic to d.

    Deterministic greedy construction: at each vertex the incoming and
    outgoing edge ends are listed in edge order and interleaved
    in/out/in/out; each consecutive (in, out) pair becomes one base point,
    the in end its minus copy and the out end its plus copy.  Isolated
    vertices carry no edge ends and are dropped.  Any output satisfying the
    round-trip is acceptable.
    """
    if not d.is_eulerian:
        unbalanced = sorted(v for v, b in d.degree_balance().items() if b != 0)
        raise ValueError(f"digraph is not Eulerian at vertices {unbalanced}")
    ins: Dict[int, List[int]] = {}
    outs: Dict[int, List[int]] = {}
    for idx, (t, head) in enumerate(d.edges):
        outs.setdefault(t, []).append(idx)
        ins.setdefault(head, []).append(idx)
    alpha_cycles: List[Tuple[int, ...]] = []
    tail_label: Dict[int, int] = {}
    head_label: Dict[int, int] = {}
    next_base = 1
    for v in d.vertices:
        bases = []
        for e_in, e_out in zip(ins.get(v, ()), outs.get(v, ())):
            head_label[e_in] = next_base
            tail_label[e_out] = next_base
            bases.append(next_base)
            next_base += 1
        if bases:
            alpha_cycles.append(tuple(bases))
    n = next_base - 1
    sigma_img = [0] * (n + 1)
    for idx in range(len(d.edges)):
        sigma_img[tail_label[idx]] = head_label[idx]
    return Hypermap(
        Permutation(sigma_img[1:]), Permutation.from_cycles(n, alpha_cycles)
    )
