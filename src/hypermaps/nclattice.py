"""The refinement order on hyperedge permutations.

beta refines alpha when every alpha-cycle, viewed together with the
restriction of beta to its points, forms a genus zero pair.  Concretely the
beta-cycles inside an alpha-cycle of length m are the blocks of a noncrossing
partition of the cyclic order, each block traversed in the order its points
first appear along the parent cycle.  Refinements of a single m-cycle are
therefore in bijection with noncrossing partitions of an m-element cycle and
are counted by the Catalan number Cat(m) = binom(2m, m) / (m + 1).
When a term needs only kappa(sigma, beta), z(beta) and a weight per block
of beta or of its Kreweras complement beta^-1 alpha, two routes read
alpha's cycles as a stack of open blocks, each joining the classes of the
points in a block of beta (sigma's cycles for kappa(sigma, beta)).
``refinement_profile`` sums over the refinements without listing them, by
a frontier dynamic program that merges equal states and carries every
weight; ``refinement_walk`` counts them one by one, by a depth-first walk
of the same moves that merges nothing and weighs nothing, and checks it.
``refinements`` streams each beta as a ``Permutation``, caching nothing, for
terms that need more of it, such as z(beta^-1 sigma) at positive genus.
Most refinements are leaves of that walk (Cat(m) of about 1.4 Cat(m) nodes
for one m-cycle), so neither walk pushes a frame for the last point:
``refinements`` yields its moves at their parent, and ``refinement_walk``
counts the moves of the last two points at the frame before them.
Reading a cycle point by point, one complement block lies open between two
stack levels and one above the top, so with H blocks open, joining the
block at depth d closes a complement block of H - d points, and the end of
the cycle closes one of H points (Kreweras 1972).  The Moebius weights
below are read off these heights.

Genus zero of the restricted pairs is checked without relabeling.  Once
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
from itertools import accumulate
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .perm import Permutation

Partition = Tuple[Tuple[int, ...], ...]


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


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


def refinement_count(alpha: Permutation) -> int:
    total = 1
    for c in alpha.cycles():
        total *= catalan(len(c))
    return total


def refinements(alpha: Permutation) -> Iterator[Permutation]:
    """All beta with beta <= alpha, deterministically ordered, one at a time.

    Cut at a cycle's first point, the open blocks of a noncrossing partition
    form a stack (Kreweras 1972).  A depth-first walk of alpha's points, from
    an explicit list of pending moves as in ``refinement_walk``: a point
    opens a block or joins the open block at some depth, which closes every
    block above it, and the end of a cycle closes them all.  A join maps the
    block's latest point to the new point and a close maps it back to the
    block's first, so each block is the cycle through its points in alpha's
    order, the genus zero orientation.  Each path from the root writes every
    image once, so one image table serves every leaf and nothing is kept.
    The last point ends the last cycle, so its parent closes the stack and
    yields each of its moves in turn, open first, then joins from the
    bottom up, the order in which their frames would pop.
    """
    cycles = sorted(alpha.cycles(), key=len)
    points = [p for c in cycles for p in c]
    img = list(range(alpha.n + 1))
    if not points:
        yield Permutation._unchecked(tuple(img))
        return
    last = len(points) - 1
    ends = {t - 1 for t in accumulate(len(c) for c in cycles)}
    # The open blocks after point t; a pending move is (t, depth, stack).
    t, stack, todo = -1, (), []
    while True:
        if t + 1 < last:
            todo += [(t + 1, d, stack) for d in range(len(stack) - 1, -2, -1)]
        else:
            # Each move of the last point writes two images, then restores one.
            x = points[last]
            for first, latest in stack:
                img[latest] = first
            img[x] = x
            yield Permutation._unchecked(tuple(img))
            for first, latest in stack:
                img[latest], img[x] = x, first
                yield Permutation._unchecked(tuple(img))
                img[latest] = first
        if not todo:
            return
        t, d, stack = todo.pop()
        x = points[t]
        if d < 0:
            stack += ((x, x),)
        else:
            first, latest = stack[d]
            img[latest] = x
            for first_above, latest_above in stack[d + 1 :]:
                img[latest_above] = first_above
            stack = stack[:d] + ((first, x),)
        if t in ends:
            for first, latest in stack:
                img[latest] = first
            stack = ()


def refinement_sum(
    alpha: Permutation, term: Callable[[Permutation], Tuple[Hashable, int]]
) -> Dict[Hashable, int]:
    """Sum term(beta) = (exponent key, coefficient) over beta <= alpha, by key.

    This builds every refinement, Catalan-many per cycle.  Use it when the
    term needs more of beta than ``refinement_profile`` keeps: more than
    kappa(sigma, beta), z(beta) and a weight per block, for example the
    whole permutation beta^-1 sigma, as the circuit partition polynomial
    does at positive genus.
    """
    totals: Dict[Hashable, int] = {}
    for beta in refinements(alpha):
        key, coeff = term(beta)
        totals[key] = totals.get(key, 0) + coeff
    return totals


def refinement_walk(
    alpha: Permutation, classes: Sequence[int]
) -> Dict[Tuple[int, int], int]:
    """Refinement counts by (kappa, z(beta)), one refinement at a time.

    classes[p] in 0..K-1 is the class of point p.  For a refinement beta <=
    alpha, kappa is the number of classes left once the classes of every
    beta-block are joined.  Nothing is weighed: each refinement adds 1.

    A depth-first walk of the moves of ``refinements``, from an explicit
    list of pending moves, so its depth is not bounded by the recursion
    limit.  A join unions the point's class with the block's in a
    union-find with an undo log, which a move cuts back to its parent's
    length, so each refinement costs O(1) amortized steps and no state is
    merged.  Unless alpha fixes every point (then beta = alpha is the only
    refinement), the last two points lie on one cycle, and they push no
    frame and apply no union.  The frame before them reads the roots of
    its stack once; for each move of the second-to-last point it counts
    the last point's moves on a copy of those roots: an open adds 1 at
    (kappa, z + 1), and a join adds 1 at (kappa, z), or at (kappa - 1, z)
    when the two roots differ.  A join of the second-to-last point that
    merges two roots renames one in the copy.  Counts go to a flat list
    over the pairs a refinement can reach: with N points on c cycles, z
    lies in c..N and kappa in top - (N - c)..top, top the number of
    classes, so the list has (N - c + 1)^2 slots, and N - c is at most
    log2 of the number of refinements.  It is read into a dict once at
    the end.  Shorter cycles are read first,
    so the walk branches as late as it can and fixed points are not walked
    again for every refinement.  It shares nothing with
    ``refinement_profile``, which it checks.
    """
    cycles = sorted(alpha.cycles(), key=len)
    points = [p for c in cycles for p in c]
    if not points:
        return {(0, 0): 1}
    cls = [classes[p] for p in points]
    top = len(set(cls))  # kappa is top less the unions in the log
    if len(cycles[-1]) == 1:  # alpha fixes every point, so beta = alpha
        return {(top, len(points)): 1}
    last = len(points) - 1
    ends = {t - 1 for t in accumulate(len(c) for c in cycles)}
    parent = list(range(max(cls) + 1))
    size = [1] * len(parent)
    log: List[int] = []
    base = len(cycles)  # the least z; kappa is at least top - (radix - 1)
    radix = len(points) - base + 1
    tally = [0] * (radix * radix)  # (kappa, z) at (top - kappa) * radix + z - base
    # The state after point t: the stack's class labels and z; a pending move
    # of t + 1 adds its depth (-1 opens) and the log length it starts from.
    t, stack, z, todo = -1, (), 0, []
    while True:
        if t + 2 < last:
            mark = len(log)
            todo += [(t + 1, d, stack, z, mark) for d in range(len(stack) - 1, -2, -1)]
        else:
            # The last two points, u then x, read off the roots of the stack.
            ru, rx = cls[last - 1], cls[last]
            while parent[ru] != ru:
                ru = parent[ru]
            while parent[rx] != rx:
                rx = parent[rx]
            roots = []
            for b in stack:
                while parent[b] != b:
                    b = parent[b]
                roots.append(b)
            at = len(log) * radix + z - base
            # u opens; x then opens, or joins a block, one class fewer if
            # the block's root differs from x's.  u and x share a cycle.
            tally[at + 2] += 1
            for r in roots + [ru]:
                tally[at + 1 + radix * (r != rx)] += 1
            # u joins the block at depth d; a merge renames b to ru.
            for d, b in enumerate(roots):
                below, rxd, k = roots[:d], rx, at
                if b != ru:
                    below = [ru if r == b else r for r in below]
                    rxd = ru if rx == b else rx
                    k += radix
                tally[k + 1] += 1
                for r in below:
                    tally[k + radix * (r != rxd)] += 1
                tally[k + radix * (ru != rxd)] += 1
        if not todo:
            return {
                (top - i // radix, base + i % radix): c
                for i, c in enumerate(tally) if c
            }
        t, d, stack, z, mark = todo.pop()
        while len(log) > mark:
            r = log.pop()
            size[parent[r]] -= size[r]
            parent[r] = r
        if d < 0:
            stack, z = stack + (cls[t],), z + 1
        else:
            a, b = cls[t], stack[d]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                a, b = (a, b) if size[a] <= size[b] else (b, a)
                parent[a] = b
                size[b] += size[a]
                log.append(a)
            stack = stack[: d + 1]
        if t in ends:
            stack = ()


def refinement_profile(
    alpha: Permutation,
    classes: Sequence[Hashable],
    block_weight: Optional[Callable[[int], int]] = None,
    complement_weight: Optional[Callable[[int], int]] = None,
) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Weighted refinement counts by (kappa, z(beta)), and states.

    classes[p] is the class of point p, and kappa counts the classes left
    once the classes of every beta-block are joined, as in
    ``refinement_walk``; with sigma's cycle labels it is kappa(sigma, beta).
    The count of a pair (k, z) is the sum, over the refinements beta <= alpha
    with kappa = k and z(beta) = z, of the product of block_weight(|b|) over
    the cycles b of beta, or of complement_weight(|c|) over the cycles c of
    beta^-1 alpha (1 without a weight; give at most one).  The second value
    is the number of DP states visited.

    A frontier dynamic program (Sekine, Imai and Tani 1995, for Tutte
    polynomials) over the stack of open blocks (``refinements``).
    alpha's cycles are read point by point: a point opens a block or joins
    the open block at some depth, closing every block above it, and the end
    of a cycle closes them all.  A label stands for the classes joined so
    far; one that no label refers to any more is finished and adds 1 to
    kappa.  The state is one tuple of labels, relabeled by first
    occurrence: one per active class (touched, with points to come),
    then one per stack level, bottom first.  Weights follow the height rule
    of the module docstring, so no block sizes are kept.  Values are
    polynomials in kappa and z, kept as {kappa * (n + 1) + z: coefficient}.

    Block form (no weight, or complement_weight): the stack lists beta, a
    level carries its block's class, a join merges the point's class into
    it and an open adds 1 to z.  Level form (block_weight): the stack lists
    gamma, and beta = gamma^-1 alpha runs over the refinements too (Nica and
    Speicher, Lecture 9), its blocks being the complement blocks the stack
    closes whole.  A level carries the class of the point that set it; a
    join at depth d merges levels d..top into one block and sets level d,
    the end of a cycle merges all levels, and each close adds 1 to z.  It
    merges several labels per step and visits more states than the block
    form, so only block_weight runs it.
    """
    if block_weight is not None and complement_weight is not None:
        raise ValueError("give block_weight or complement_weight, not both")
    levels = block_weight is not None
    weight = block_weight or complement_weight
    radix = alpha.n + 1
    cycles = alpha.cycles()
    # w[k] for a closed block of k points; a block or a stack lies in one cycle.
    top = max(map(len, cycles), default=0) + 1
    w = [0] + [weight(k) for k in range(1, top)] if weight else [1] * top
    points = [p for c in cycles for p in c]
    cycle_ends = set(accumulate(len(c) for c in cycles))
    last = {classes[p]: t for t, p in enumerate(points)}
    active: List[Hashable] = []  # classes with a label in the state, by entry
    states: Dict[Tuple[int, ...], Dict[int, int]] = {(): {0: 1}}
    visited = 1
    for t, p in enumerate(points):
        v = classes[p]
        prev = active.index(v) if v in active else -1
        keep = last[v] > t
        ends = t + 1 in cycle_ends
        nact = len(active)
        pos = prev if prev >= 0 else nact  # v's slot; its label stays while keep
        new_states: Dict[Tuple[int, ...], Dict[int, int]] = {}
        for labels, value in states.items():
            act, stack = labels[:nact], labels[nact:]
            fresh = max(labels, default=-1) + 1
            lv = act[prev] if prev >= 0 else fresh
            base = act[:pos] + (lv,) * keep + act[pos + 1 :]
            # Classes before merging: those in use, and v's own when v is new.
            in_use = fresh + (prev < 0)
            for depth in range(-1, len(stack)):
                # depth -1 opens; a join maps the labels in group to r: the
                # joined block's in the block form, levels depth..top else.
                if depth < 0:
                    group, r, st, factor = (), lv, stack + (lv,), 1
                else:
                    group = set(stack[depth:]) if levels else (stack[depth],)
                    r = stack[depth] if levels else lv
                    st, factor = stack[:depth] + (lv,), w[len(stack) - depth]
                new = [r if x in group else x for x in base + st]
                merged = len(group) - (r in group)
                z = depth >= 0 if levels else depth < 0
                if ends:
                    factor *= w[len(st)]
                    top, new = new[len(base) :], new[: len(base)]
                    if levels:
                        group, r = set(top), top[-1]
                        new = [r if x in group else x for x in new]
                        merged += len(group) - 1
                        z += 1
                relabel: Dict[int, int] = {}
                key = tuple([relabel.setdefault(x, len(relabel)) for x in new])
                # A class that no label refers to any more is finished.
                finished = in_use - merged - len(relabel)
                shift = finished * radix + z
                target = new_states.setdefault(key, {})
                for e, c in value.items():
                    target[e + shift] = target.get(e + shift, 0) + c * factor
        states = new_states
        visited += len(states)
        active[pos : pos + 1] = [v] * keep
    counts = {divmod(e, radix): c for e, c in states[()].items() if c}
    return counts, visited


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
