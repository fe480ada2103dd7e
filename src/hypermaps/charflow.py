"""Characteristic and flow polynomials, colorings and flows over GF(q).

All sums run over the refinement order through ``nclattice``, and every
Moebius value is read off cycle lengths.  chi(t) weights beta by
mu(id, beta), a product of ``mobius_nc`` over beta's blocks, and C(t) by
mu(beta, alpha), a product over the cycles of the Kreweras complement
beta^-1 alpha.  The stack of open blocks closes the blocks of either side
whole at a height it knows, so each is one ``refinement_profile`` pass,
which never lists the refinements.  X is one more such pass, in the level
form, over the refinements delta of alpha1^-1 alpha2, weighted by
``mobius_nc`` per block of delta.

The characteristic polynomial of (sigma, alpha) is

    chi(t) = sum over beta <= alpha of mu(id, beta)
             * t^(kappa(sigma, beta) - kappa(sigma, alpha)),

and the interval variant is X([a1, a2]; t) = sum over beta in [a1, a2] of
mu(a1, beta) * t^kappa(sigma, beta).  The flow polynomial is

    C(t) = sum over beta <= alpha of mu(beta, alpha)
           * t^(n + kappa(sigma, beta) - z(beta) - z(sigma)).

A flow with values in GF(q) assigns f(i) to every point so that the values
on each sigma-cycle and each alpha-cycle sum to zero; the solution space has
dimension n + kappa - z(sigma) - z(alpha).  A flow is nowhere zero when
f(i) = 0 only happens on alpha fixed points (buds).
"""

from __future__ import annotations

from itertools import filterfalse, product
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from .hypermap import Hypermap
from .nclattice import is_refinement, mobius_nc, refinement_profile
from .perm import Permutation
from .poly import UniPoly
from .whitney import InstanceTooLarge


def characteristic_polynomial(h: Hypermap) -> UniPoly:
    vertex = h.sigma.cycle_labels()
    counts, _ = refinement_profile(h.alpha, vertex, block_weight=mobius_nc)
    terms: Dict[int, int] = {}
    for (kb, _), c in counts.items():
        terms[kb - h.kappa] = terms.get(kb - h.kappa, 0) + c
    return UniPoly(terms)


def x_interval(h: Hypermap, alpha1: Permutation, alpha2: Permutation) -> UniPoly:
    """X([alpha1, alpha2]; t) with exponents kappa(sigma, beta).

    beta = alpha1 delta maps the refinements delta of alpha1^-1 alpha2 onto
    [alpha1, alpha2], and mu(alpha1, beta) = mu(id, delta) (Biane 1997).
    As alpha1 <= beta, the orbits of <sigma, beta> are those of <sigma,
    alpha1, delta>, so one ``refinement_profile`` pass over delta, with the
    orbits of <sigma, alpha1> as the classes and ``mobius_nc`` as the block
    weight, gives every term.
    """
    if not is_refinement(alpha2, h.alpha):
        raise ValueError("alpha2 must refine the collection's alpha")
    if not is_refinement(alpha1, alpha2):
        raise ValueError("alpha1 must refine alpha2")
    orbit = [0] * (h.n + 1)
    for i, comp in enumerate(Hypermap(h.sigma, alpha1).components()):
        for p in comp:
            orbit[p] = i
    delta = alpha1.inverse() * alpha2
    counts, _ = refinement_profile(delta, orbit, block_weight=mobius_nc)
    terms: Dict[int, int] = {}
    for (kb, _), c in counts.items():
        terms[kb] = terms.get(kb, 0) + c
    return UniPoly(terms)


def flow_polynomial(h: Hypermap) -> UniPoly:
    vertex = h.sigma.cycle_labels()
    counts, _ = refinement_profile(h.alpha, vertex, complement_weight=mobius_nc)
    base = h.n - h.sigma.cycle_count
    terms: Dict[int, int] = {}
    for (kb, zb), c in counts.items():
        terms[base + kb - zb] = terms.get(base + kb - zb, 0) + c
    return UniPoly(terms)


def proper_coloring_count(h: Hypermap, colors: int) -> int:
    """Count proper vertex colorings, one hyperedge component at a time.

    Vertices are sigma-cycles.  A coloring is proper when, on every
    alpha-cycle, the vertices met at its points are pairwise differently
    colored; in particular a hyperedge visiting some vertex twice, or more
    vertices than there are colors, admits no proper coloring at all.
    Vertices sharing no hyperedge are colored independently, so the count
    is the product over the connected components of the "shares a
    hyperedge" graph, which are the orbits of <sigma, alpha>; a vertex with
    no neighbour contributes ``colors``.  Within a component, vertices are
    colored by backtracking in label order, each only with colors its
    already colored neighbours do not use, so no improper partial coloring
    is extended, and the last vertex counts its free colors.  The stack of
    color choices is explicit, so the depth is not bounded by the recursion
    limit, and memory stays linear in n.  The steps within a component still
    grow with its count of colorings, 3 * 2^(V-1) on a path of V vertices
    with 3 colors; ``oracles.proper_coloring_enumeration`` is the
    definitional count over all colors^V colorings.
    """
    vertex_of = h.sigma.cycle_labels()
    nv = h.sigma.cycle_count
    # earlier[v]: v's hyperedge neighbours with smaller labels
    earlier: List[Set[int]] = [set() for _ in range(nv)]
    for c in h.alpha.cycles():
        vl = sorted(vertex_of[p] for p in c)
        if len(set(vl)) != len(vl) or len(vl) > colors:
            return 0
        for i in range(1, len(vl)):
            earlier[vl[i]].update(vl[:i])
    coloring = [0] * nv
    total = 1
    for comp in h.components():
        order = sorted({vertex_of[p] for p in comp})
        total *= _component_colorings(order, earlier, coloring, colors)
        if not total:
            return 0
    return total


def _component_colorings(
    order: List[int], earlier: List[Set[int]], coloring: List[int], colors: int
) -> int:
    """Proper colorings of one component, its vertices colored in ``order``."""
    choices: List[Iterator[int]] = []  # choices[i]: colors left at order[i]
    count = 0
    i = 0
    while True:
        used = {coloring[u] for u in earlier[order[i]]}
        if i == len(order) - 1:
            count += colors - len(used)
        else:
            choices.append(filterfalse(used.__contains__, range(colors)))
        while choices:
            c = next(choices[-1], None)
            if c is not None:
                i = len(choices)
                coloring[order[i - 1]] = c
                break
            choices.pop()
        else:
            return count


def compatible_coloring_count(
    h: Hypermap, alpha1: Permutation, colors: int
) -> int:
    """Colorings constant on alpha1-hyperedges and proper across the rest.

    Counts vertex colorings such that vertices meeting a common alpha1-cycle
    share a color, while vertices meeting a common alpha-cycle without
    sharing an alpha1-cycle differ.  Pairs of points are compared, so a
    vertex met twice by an alpha-cycle outside alpha1 kills the count.
    """
    if not is_refinement(alpha1, h.alpha):
        raise ValueError("alpha1 must refine alpha")
    vertex_of = h.sigma.cycle_labels()
    cycle1_of = alpha1.cycle_labels()
    same: List[Tuple[int, int]] = []
    differ: List[Tuple[int, int]] = []
    for c in alpha1.cycles():
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                same.append((vertex_of[c[i]], vertex_of[c[j]]))
    for c in h.alpha.cycles():
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                if cycle1_of[c[i]] != cycle1_of[c[j]]:
                    differ.append((vertex_of[c[i]], vertex_of[c[j]]))
    count = 0
    nv = h.sigma.cycle_count
    for coloring in product(range(colors), repeat=nv):
        if all(coloring[a] == coloring[b] for a, b in same) and all(
            coloring[a] != coloring[b] for a, b in differ
        ):
            count += 1
    return count


class FlowSpace(NamedTuple):
    """Nullspace of the cycle-sum equations over a prime field."""

    q: int
    n: int
    dimension: int
    basis: Tuple[Tuple[int, ...], ...]  # vectors indexed by point - 1

    def count(self) -> int:
        return self.q ** self.dimension

    def nowhere_zero_count(self, alpha: Permutation, max_vectors: Optional[int]) -> int:
        """Count vectors whose zeros all sit on alpha fixed points (buds)."""
        if max_vectors is not None and self.count() > max_vectors:
            raise InstanceTooLarge(
                f"{self.count()} flow vectors exceed the cap of {max_vectors}"
            )
        buds = {c[0] for c in alpha.cycles() if len(c) == 1}
        required = [i for i in range(1, self.n + 1) if i not in buds]
        count = 0
        for vec in self.vectors():
            if all(vec[i - 1] != 0 for i in required):
                count += 1
        return count

    def vectors(self) -> Iterator[Tuple[int, ...]]:
        q, n = self.q, self.n
        for coeffs in product(range(q), repeat=self.dimension):
            vec = [0] * n
            for c, b in zip(coeffs, self.basis):
                if c:
                    for i in range(n):
                        vec[i] = (vec[i] + c * b[i]) % q
            yield tuple(vec)


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


def _check_prime(q: int) -> None:
    if q >= 1 << 64:
        raise ValueError(f"q must be below 2^64, got a {q.bit_length()}-bit q")
    if q < 2 or not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")


def flow_space(h: Hypermap, q: int) -> FlowSpace:
    """Gaussian elimination over GF(q) on one equation per cycle.

    The resulting dimension always equals n + kappa - z(sigma) - z(alpha),
    which the selftest and the tests check.
    """
    _check_prime(q)
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


def is_flow(h: Hypermap, f: Tuple[int, ...], q: int) -> bool:
    if len(f) != h.n:
        raise ValueError("flow vector length mismatch")
    for perm in (h.sigma, h.alpha):
        for c in perm.cycles():
            if sum(f[p - 1] for p in c) % q != 0:
                return False
    return True


def nowhere_zero_flow_count(
    h: Hypermap, q: int, max_vectors: Optional[int] = 10 ** 6
) -> int:
    """Count flows whose zeros all sit on alpha fixed points (buds)."""
    return flow_space(h, q).nowhere_zero_count(h.alpha, max_vectors)


def unique_nz_refinement(h: Hypermap, f: Tuple[int, ...], q: int) -> Permutation:
    """Shrink alpha so a given flow becomes nowhere zero on the result.

    Only defined when every alpha-cycle has length at most 3.  Each zero
    point i that is not already a bud is split out of its hyperedge by
    multiplying alpha on the right with the transposition (alpha^-1(i), i);
    the result does not depend on the order the zeros are processed, and f
    stays a flow on (sigma, beta), which the tests check.
    """
    _check_prime(q)
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
