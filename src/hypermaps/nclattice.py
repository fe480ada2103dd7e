"""The refinement order on hyperedge permutations.

beta refines alpha when every alpha-cycle, viewed together with the
restriction of beta to its points, forms a genus zero pair.  Concretely the
beta-cycles inside an alpha-cycle of length m are the blocks of a noncrossing
partition of the cyclic order, each block traversed in the order its points
first appear along the parent cycle.  Refinements of a single m-cycle are
therefore in bijection with noncrossing partitions of an m-element cycle and
are counted by the Catalan number Cat(m) = binom(2m, m) / (m + 1).

Genus zero of the restricted pair is checked without relabeling: for a parent
cycle C of length m with restriction b, it is equivalent to

    (#cycles of b on C) + (#cycles of b^-1 * C on C) == m + 1.

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
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, Hashable, Iterator, List, Tuple

from .perm import Permutation, cycle_count_on

Partition = Tuple[Tuple[int, ...], ...]


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def noncrossing_partitions(m: int) -> Tuple[Partition, ...]:
    """All noncrossing partitions of positions 0..m-1, sorted.

    Noncrossing on the circle equals noncrossing in the linear order obtained
    by cutting the circle at position 0.  Read left to right, the blocks
    still open form a stack (Kreweras 1972): each position either opens a
    new block on top, or joins an open block, which closes every block above
    it, since a later point of those would cross the joined block.
    """
    result: List[Partition] = []

    def extend(pos: int, closed: Partition, stack: Partition) -> None:
        if pos == m:
            result.append(tuple(sorted(closed + stack)))
            return
        extend(pos + 1, closed, stack + ((pos,),))
        for depth, block in enumerate(stack):
            joined = stack[:depth] + (block + (pos,),)
            extend(pos + 1, closed + stack[depth + 1 :], joined)

    extend(0, (), ())
    result.sort()
    return tuple(result)


def cycle_refinements(cycle: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Refinements of one cycle, each given as a tuple of cycles.

    A block {p1 < p2 < ...} of positions becomes the cycle visiting the
    corresponding points in the order they appear along the parent cycle,
    starting from the block's point that shows up first after the parent
    cycle's starting point.  That orientation is the unique genus zero one.
    """
    out = []
    for part in noncrossing_partitions(len(cycle)):
        out.append(tuple(tuple(cycle[p] for p in block) for block in part))
    return tuple(out)


def refinement_count(alpha: Permutation) -> int:
    total = 1
    for c in alpha.cycles():
        total *= catalan(len(c))
    return total


def refinements(alpha: Permutation) -> Iterator[Permutation]:
    """All beta with beta <= alpha, deterministically ordered."""
    n = alpha.n
    per_cycle = [cycle_refinements(c) for c in alpha.cycles()]
    for choice in product(*per_cycle):
        cycles: List[Tuple[int, ...]] = []
        for group in choice:
            cycles.extend(group)
        yield Permutation.from_cycles(n, cycles)


def refinement_sum(
    alpha: Permutation, term: Callable[[Permutation], Tuple[Hashable, int]]
) -> Dict[Hashable, int]:
    """Sum term(beta) = (exponent key, coefficient) over beta <= alpha, by key."""
    totals: Dict[Hashable, int] = {}
    for beta in refinements(alpha):
        key, coeff = term(beta)
        totals[key] = totals.get(key, 0) + coeff
    return totals


def is_refinement(beta: Permutation, alpha: Permutation) -> bool:
    if beta.n != alpha.n:
        raise ValueError("size mismatch")
    owner = alpha.cycle_labels()
    for c in beta.cycles():
        if any(owner[p] != owner[c[0]] for p in c):
            return False
    binv = beta.inverse()
    for c in alpha.cycles():
        m = len(c)
        zb = cycle_count_on(c, beta)
        zc = cycle_count_on(c, lambda x: binv(alpha(x)))
        if zb + zc != m + 1:
            return False
    return True


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
        k = len(c) - 1
        value *= -catalan(k) if k % 2 else catalan(k)
    return value


def mobius(beta: Permutation, alpha: Permutation) -> int:
    """Moebius function of the interval [beta, alpha] in refinement order."""
    if not is_refinement(beta, alpha):
        raise ValueError("beta does not refine alpha")
    return mobius_of_cycles(beta.inverse() * alpha)
