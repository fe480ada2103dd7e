"""The refinement order on hyperedge permutations.

beta refines alpha when every alpha-cycle, viewed together with the
restriction of beta to its points, forms a genus zero pair.  Concretely the
beta-cycles inside an alpha-cycle of length m are the blocks of a noncrossing
partition of the cyclic order, each block traversed in the order its points
first appear along the parent cycle.  Refinements of a single m-cycle are
therefore in bijection with noncrossing partitions of an m-element cycle and
are counted by the Catalan number Cat(m) = binom(2m, m) / (m + 1).
``refinement_sum`` visits them one by one; ``refinement_profile`` sums
over them without listing them, by a frontier dynamic program over the
stack of open blocks, when a term needs only kappa(sigma, beta), z(beta)
and a weight per block.

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
from itertools import accumulate, product
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from .hypermap import Hypermap
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


def cycle_refinement_images(cycle: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Refinements of one cycle, each given as the images of its points.

    The i-th entry of a refinement's tuple is the image of ``cycle[i]``.  A
    block {p1 < p2 < ...} of positions becomes the cycle visiting the
    corresponding points in the order they appear along the parent cycle.
    That orientation is the unique genus zero one.
    """
    out = []
    for part in noncrossing_partitions(len(cycle)):
        img = [0] * len(cycle)
        for block in part:
            for p, q in zip(block, block[1:] + block[:1]):
                img[p] = cycle[q]
        out.append(tuple(img))
    return out


def refinement_count(alpha: Permutation) -> int:
    total = 1
    for c in alpha.cycles():
        total *= catalan(len(c))
    return total


def refinements(alpha: Permutation) -> Iterator[Permutation]:
    """All beta with beta <= alpha, deterministically ordered."""
    cycles = alpha.cycles()
    per_cycle = [cycle_refinement_images(c) for c in cycles]
    size = alpha.n + 1
    for choice in product(*per_cycle):
        # the cycles cover every point once, fixed points included
        img = [0] * size
        for c, images in zip(cycles, choice):
            for p, q in zip(c, images):
                img[p] = q
        yield Permutation._unchecked(tuple(img))


def refinement_sum(
    alpha: Permutation, term: Callable[[Permutation], Tuple[Hashable, int]]
) -> Dict[Hashable, int]:
    """Sum term(beta) = (exponent key, coefficient) over beta <= alpha, by key.

    This visits every refinement, Catalan-many per cycle.  Use it when the
    term needs more of beta than ``refinement_profile`` keeps, for example
    mu(beta, alpha), which is read off the cycles of the Kreweras
    complement beta^-1 alpha rather than off beta's blocks one at a time.
    """
    totals: Dict[Hashable, int] = {}
    for beta in refinements(alpha):
        key, coeff = term(beta)
        totals[key] = totals.get(key, 0) + coeff
    return totals


def refinement_profile(
    h: Hypermap, block_weight: Optional[Callable[[int], int]] = None
) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Weighted refinement counts by (kappa(sigma, beta), z(beta)), and states.

    The count of a pair (k, z) is the sum, over the refinements beta <= alpha
    with kappa(sigma, beta) = k and z(beta) = z, of the product of
    block_weight(|b|) over the cycles b of beta (1 without a weight).  The
    second value is the number of DP states visited.

    A frontier dynamic program (the frontier method of Sekine, Imai and
    Tani 1995 for Tutte polynomials) over the stack of open blocks of a
    noncrossing partition (Kreweras 1972; see ``noncrossing_partitions``).
    alpha's cycles are read point by point.  A class is a set of
    sigma-cycles already joined by blocks, so kappa(sigma, beta) counts the
    classes at the end.  The state holds one class label per active
    sigma-cycle (touched, with points still to come), in order of entry,
    then the class label of each open block, bottom of the stack first,
    relabeled by first occurrence; with a weight it also holds the open
    blocks' sizes.  Each point opens a block, which adds 1 to z, or joins
    the open block at some depth, which merges the two classes and closes
    every block above it.  The end of an alpha-cycle closes every open
    block.  A closed block of size k multiplies by block_weight(k), and a
    class that no label refers to any more is finished: it adds 1 to kappa.
    Values are polynomials in kappa and z, kept as {kappa * (n + 1) + z:
    coefficient}.
    """
    radix = h.n + 1
    vertex = h.sigma.cycle_labels()
    points = [p for c in h.alpha.cycles() for p in c]
    cycle_ends = set(accumulate(len(c) for c in h.alpha.cycles()))
    last = {vertex[p]: t for t, p in enumerate(points)}
    weighted = block_weight is not None
    # weights[k] for a closed block of k points; no block is empty, and
    # without a weight no sizes are kept, so nothing is looked up.
    weights = [0] + [block_weight(k) for k in range(1, radix)] if weighted else []
    active: List[int] = []  # sigma-cycles with a label in the state, by entry
    states = {((), ()): {0: 1}}
    visited = 1
    for t, p in enumerate(points):
        v = vertex[p]
        prev = active.index(v) if v in active else -1
        keep = last[v] > t
        ends = t + 1 in cycle_ends
        nact = len(active)
        new_states: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict[int, int]] = {}
        for (labels, sizes), value in states.items():
            act, stack = labels[:nact], labels[nact:]
            fresh = max(labels, default=-1) + 1
            lv = act[prev] if prev >= 0 else fresh
            # Classes before merging: those in use, and v's own when v is new.
            classes = fresh + (prev < 0)
            for depth in range(-1, len(stack)):
                # depth -1 opens a block; otherwise join the block there.
                b = lv if depth < 0 else stack[depth]
                # Merge b's class into lv's, then update v's slot.
                a = [lv if x == b else x for x in act]
                if prev < 0:
                    if keep:
                        a.append(lv)
                elif keep:
                    a[prev] = lv
                else:
                    del a[prev]
                new_sizes: Tuple[int, ...] = ()
                closed: Tuple[int, ...] = ()
                if depth < 0:
                    st = list(stack)
                    if weighted:
                        new_sizes = sizes + (1,)
                else:
                    st = [lv if x == b else x for x in stack[:depth]]
                    if weighted:
                        new_sizes = sizes[:depth] + (sizes[depth] + 1,)
                        closed = sizes[depth + 1 :]
                st.append(lv)
                if ends:
                    st = []
                    closed += new_sizes
                    new_sizes = ()
                relabel: Dict[int, int] = {}
                key = tuple([relabel.setdefault(x, len(relabel)) for x in a + st])
                # A class that no label refers to any more is finished.
                finished = classes - (b != lv) - len(relabel)
                shift = finished * radix + (depth < 0)
                factor = 1
                for k in closed:
                    factor *= weights[k]
                target = new_states.setdefault((key, new_sizes), {})
                for e, c in value.items():
                    target[e + shift] = target.get(e + shift, 0) + c * factor
        states = new_states
        visited += len(states)
        if prev >= 0 and not keep:
            del active[prev]
        elif prev < 0 and keep:
            active.append(v)
    counts = {}
    for e, c in states[((), ())].items():
        if c:
            counts[divmod(e, radix)] = c
    return counts, visited


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


def mobius_nc(m: int) -> int:
    """mu of the full lattice NC(m), m >= 1: (-1)^(m-1) Cat(m-1)."""
    return -catalan(m - 1) if m % 2 == 0 else catalan(m - 1)


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
