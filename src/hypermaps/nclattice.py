"""The refinement order on hyperedge permutations.

beta refines alpha when every alpha-cycle, viewed together with the
restriction of beta to its points, forms a genus zero pair.  Concretely the
beta-cycles inside an alpha-cycle of length m are the blocks of a noncrossing
partition of the cyclic order, each block traversed in the order its points
first appear along the parent cycle.  Refinements of a single m-cycle are
therefore in bijection with noncrossing partitions of an m-element cycle and
are counted by the Catalan number Cat(m) = binom(2m, m) / (m + 1).
When a term needs only kappa(sigma, beta), z(beta) and a weight per block
of beta or of its Kreweras complement beta^-1 alpha,
``refinement_profile`` reads alpha's cycles as a stack of open blocks,
each joining the classes of the points in a block of beta (sigma's cycles
for kappa(sigma, beta)), and sums over the refinements without listing
them, by a frontier dynamic program that merges equal states and carries
every weight.  ``routes.refinement_walk``, a check route, counts them one
by one along the same moves.  ``refinements`` streams each beta as a
``Permutation``, caching nothing, for terms that need more of it, such as
z(beta^-1 sigma) at positive genus.
Reading a cycle point by point, one complement block lies open between two
stack levels and one above the top, so with H blocks open, joining the
block at depth d closes a complement block of H - d points, and the end of
the cycle closes one of H points (Kreweras 1972).  The Moebius weights
below are read off these heights.

The order's check primitives, ``is_refinement``, ``interval``, ``mobius``,
``mobius_of_cycles`` and ``noncrossing_partitions``, live in ``oracles``
with the closed form of the Moebius function, since no command runs them.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .perm import Permutation

KEY_MEMO_SIZE = 1 << 14  # raw tuples one refinement_profile call keeps


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def refinement_count(alpha: Permutation) -> int:
    total = 1
    for c in alpha.cycles():
        total *= catalan(len(c))
    return total


def refinements(alpha: Permutation) -> Iterator[Permutation]:
    """All beta with beta <= alpha, deterministically ordered, one at a time.

    Cut at a cycle's first point, the open blocks of a noncrossing partition
    form a stack (Kreweras 1972).  A depth-first walk of alpha's points, from
    an explicit list of pending moves: a point opens a block or joins the
    open block at some depth, which closes every block above it, and the
    end of a cycle closes them all.  A join maps the
    block's latest point to the new point and a close maps it back to the
    block's first, so each block is the cycle through its points in alpha's
    order, the genus zero orientation.  Each path from the root writes every
    image once, so one image table serves every leaf and nothing is kept.
    Most refinements are leaves (Cat(m) of about 1.4 Cat(m) nodes for one
    m-cycle), so the last point, which ends the last cycle, pushes no frame:
    its parent closes the stack and yields each of its moves in turn, open
    first, then joins from the bottom up, the order their frames would pop.
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


def refinement_profile(
    alpha: Permutation,
    classes: Sequence[Hashable],
    block_weight: Optional[Callable[[int], int]] = None,
    complement_weight: Optional[Callable[[int], int]] = None,
    at: Optional[Tuple[int, int]] = None,
) -> Tuple[Any, int]:
    """Weighted refinement counts by (kappa, z(beta)), or their value at (x, y).

    classes[p] is the class of point p, and kappa counts the classes left
    once the classes of every beta-block are joined; with sigma's cycle
    labels it is kappa(sigma, beta).
    The count of a pair (k, z) is the sum, over the refinements beta <= alpha
    with kappa = k and z(beta) = z, of the product of block_weight(|b|) over
    the cycles b of beta, or of complement_weight(|c|) over the cycles c of
    beta^-1 alpha (1 without a weight; give at most one).  With at = (x, y)
    the first value is instead the int sum of count * x^k * y^(n - z), for
    n = alpha.n.  The second value is the number of DP states visited.

    A frontier dynamic program (Sekine, Imai and Tani 1995, for Tutte
    polynomials) over the stack of open blocks (``refinements``).
    alpha's cycles are read point by point: a point opens a block or joins
    the open block at some depth, closing every block above it, and the end
    of a cycle closes them all.  A label stands for the classes joined so
    far; one that no label refers to any more is finished and adds 1 to
    kappa.  The state is one tuple of labels, relabeled by first
    occurrence: one per active class (touched, with points to come), then
    one per stack level, bottom first.  Many moves build the same raw tuple
    (so states merge), and a memo maps a raw tuple to its key and label
    count, so a repeat skips the relabel.  It lives in this call and starts
    over once it holds KEY_MEMO_SIZE tuples; ``whitney``'s ``memo_hits``
    counts only phi and psi.  Weights follow the height rule of the module
    docstring, so no block sizes are kept.  One loop carries either value
    kind: a polynomial {kappa * (n + 1) + z: coefficient}, which a move
    shifts (a state's first move of weight 1 copies it), or, given at, one
    int, which a move multiplies by x per finished class and by y per unit
    of n - z.

    Block form (no weight, or complement_weight): the stack lists beta, a
    level carries its block's class, a join renames one label to merge the
    point's class into it, and an open adds 1 to z, so n - z counts the
    joins.  Level form (block_weight): the stack lists gamma, and beta =
    gamma^-1 alpha runs over the refinements too (Nica and Speicher,
    Lecture 9), its blocks being the complement blocks the stack closes
    whole.  A level carries the class of the point that set it; a join at
    depth d merges levels d..top into one block and sets level d, the end
    of a cycle merges all levels, and each close adds 1 to z, so n - z
    counts the opens onto a nonempty stack, each cycle's first open being
    onto an empty one.  It merges several labels per step and visits more
    states than the block form, so only block_weight runs it.
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
    x, y = at or (1, 1)
    xs, ys = [1], (1, y)  # xs[f] = x^f for f finished classes
    active: List[Hashable] = []  # classes with a label in the state, by entry
    states: Dict[Tuple[int, ...], Any] = {(): {0: 1} if at is None else 1}
    canon: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}
    visited = 1
    for t, p in enumerate(points):
        v = classes[p]
        prev = active.index(v) if v in active else -1
        keep = last[v] > t
        ends = t + 1 in cycle_ends
        nact = len(active)
        pos = prev if prev >= 0 else nact  # v's slot; its label stays while keep
        while len(xs) <= nact + top:  # finished <= nact + top
            xs.append(xs[-1] * x)
        new_states: Dict[Tuple[int, ...], Any] = {}
        for labels, value in states.items():
            stack = labels[nact:]
            height = len(stack)
            fresh = max(labels, default=-1) + 1
            lv = labels[prev] if prev >= 0 else fresh
            base = labels[:pos] + (lv,) * keep + labels[pos + 1 : nact]
            # Classes before merging: those in use, and v's own when v is new.
            in_use = fresh + (prev < 0)
            for depth in range(-1, height):
                # raw is the state before relabeling, merged the labels mapped
                # onto others, z the step of z(beta) and r that of n - z.
                if levels:
                    # Levels depth..top, and at the end all levels, join the
                    # class of one of them, j: the other labels, group, map to
                    # j wherever raw holds one.  r sums to n - z per cycle, not
                    # per move: L points, J joins, so L - J opens, J + 1 closes.
                    if depth < 0:
                        raw, factor, merged, z = base + stack + (lv,), 1, 0, 0
                        r = height > 0
                    else:
                        raw, factor = base + stack[:depth] + (lv,), w[height - depth]
                        j, z, r = stack[depth], 1, 0
                        group = set(stack[depth + 1 :])
                        group.discard(j)
                        merged = len(group)
                        if merged and not group.isdisjoint(raw):
                            raw = tuple([j if e in group else e for e in raw])
                    if ends:
                        top_levels, raw = raw[len(base) :], raw[: len(base)]
                        factor *= w[len(top_levels)]
                        j, z = top_levels[-1], z + 1
                        group = set(top_levels)
                        group.discard(j)
                        merged += len(group)
                        if group and not group.isdisjoint(raw):
                            raw = tuple([j if e in group else e for e in raw])
                elif depth < 0:
                    merged, z, r, raw, factor = 0, 1, 0, base, w[height + 1]
                    if not ends:
                        raw, factor = base + stack + (lv,), 1
                else:
                    # v joins the block of class old: a new v takes the label
                    # old, else every old becomes v's label lv.
                    old, factor = stack[depth], w[height - depth]
                    merged, z, r, j = old != lv, 0, 1, old if prev < 0 else lv
                    raw = labels[:nact] + (old,) * keep if prev < 0 else base
                    if ends:
                        factor *= w[depth + 1]
                    else:
                        raw += stack[:depth] + (j,)
                    if j != old and old in raw:
                        raw = tuple([j if e == old else e for e in raw])
                hit = canon.get(raw)
                if hit is None:
                    if len(canon) >= KEY_MEMO_SIZE:  # a full memo starts over
                        canon.clear()
                    relabel: Dict[int, int] = {}
                    key = tuple([relabel.setdefault(e, len(relabel)) for e in raw])
                    hit = canon[raw] = key, len(relabel)
                key, count = hit
                # A class that no label refers to any more is finished.
                finished = in_use - merged - count
                target = new_states.get(key)
                if at is not None:
                    gain = value * factor * xs[finished] * ys[r]
                    new_states[key] = gain if target is None else target + gain
                    continue
                shift = finished * radix + z
                if target is None and factor == 1:
                    new_states[key] = {e + shift: c for e, c in value.items()}
                elif target is None:
                    new_states[key] = {e + shift: c * factor for e, c in value.items()}
                else:
                    for e, c in value.items():
                        target[e + shift] = target.get(e + shift, 0) + c * factor
        states = new_states
        visited += len(states)
        active[pos : pos + 1] = [v] * keep
    if at is not None:
        return states[()], visited
    counts = {divmod(e, radix): c for e, c in states[()].items() if c}
    return counts, visited


def require_total(counts: Dict[Tuple[int, int], int], expected: int, name: str) -> None:
    """Check the total of a polynomial run, its value at 1, without ``assert``.

    A wrong total raises ``ValueError``, so the command line exits 2 with
    one ``error:`` line, also under ``python -O``.
    """
    total = sum(counts.values())
    if total != expected:
        raise ValueError(f"{name} = {total}, but it must be {int(expected)}")


def mobius_nc(m: int) -> int:
    """mu of the full lattice NC(m), m >= 1: (-1)^(m-1) Cat(m-1)."""
    return -catalan(m - 1) if m % 2 == 0 else catalan(m - 1)
