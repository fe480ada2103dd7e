"""The check routes of the Whitney polynomial: brute force, phi and psi.

Their entry points in ``whitney`` import this module on first call, so
only ``--method`` (a check route or ``all``), the selftest and the tests
load it.

* brute force counts the refinements one by one with ``refinement_walk``,
  which merges no states and so checks the DP's merging; the definitional
  sum, one ``Permutation`` per refinement, is in ``oracles``;
* phi, a deletion/contraction style recursion, picks a hyperedge cycle
  (c1, ..., cm), m >= 2, and expands into m branch collections phi_k, one
  per point of the cycle, each weighted by 1, u, v or u*v;
* psi's branches also glue any component split off back on (by a
  transposition joining c1's and c2's components), so connected input
  stays connected all the way down.

Branches are image tables; ``phi_k`` and ``branch`` wrap the same step in a
``Hypermap``.  Any cycle of alpha of length m >= 2 may be expanded, and each
gives the same R, so a component is expanded on its shortest one: it has the
fewest branches, and the choice shapes the whole tree, as the choice of edge
does in deletion-contraction.  Ties go to the cycle that holds the least
point, and the pivot (c1, ..., cm) runs from that cycle's least point.
``pivot_cycle`` keeps the paper's convention, the cycle through alpha's
least non-fixed point, for its worked example.

Branch k, 1 <= k <= m, swaps the values c1 and ck of sigma when they lie in
different sigma-cycles (never for k = 1), and replaces the cycle in alpha
by (c1)(c2 ... cm) when k <= 2 and otherwise by
(c1)(c2 ... c(k-1))(ck ... cm); its weight is u^(kappa(phi_k) - kappa) *
v^[k != 1 and c1, ck share a sigma-cycle].  One orbit walk gives kappa and
the components.  Checks that raise ``ValueError``: u-exponent 0 or 1, psi's
gluing restores kappa, and n + 2 kappa - z(sigma) - z(alpha) - z(sigma^-1
alpha) even and nonnegative on each branch and on each piece of a branch
that splits.  A branch's value is R of its tables, also where psi glues
(gluing two components keeps R, ``merge_components``), so a branch memo
keyed by the tables alone runs the checks once per key in a call.

R is multiplicative over disjoint unions, so phi and psi work one component
at a time, and each is normalised before it is looked up: every fixed point
p of alpha (a bud) is spliced out of sigma, sigma(sigma^-1(p)) = sigma(p),
and the points left are relabeled 1..m in increasing order.  R does not
change.  Every beta <= alpha fixes p, so removing p lowers n and z(beta) by
one each; z(sigma) and kappa(sigma, beta) stay, because p's sigma-cycle
keeps another point.  (A sigma-cycle of buds only is a component of its
own; it is left empty and dropped, as a factor 1.)  Branches that differ
only in their buds thus share one entry of a component memo keyed by these
tables, kept for one call.  Both memos go by labels: an isomorphic copy
under other labels is expanded again.  ``WhitneyStats`` nodes are branches
met again and components of the input or of new branches; memo hits are
the nodes a memo answers.

Inside the recursion every polynomial is one Python int (Kronecker
substitution): with r = n - z(alpha) the rank of alpha, the coefficient of
u^a v^b sits in slot a*(r+1) + b, and each slot is bits =
refinement_count(alpha).bit_length() wide.  A branch weight u^eu v^ev is a
left shift, the sum over branches is ``+`` and the product over components
is ``*``; one decode at the end builds the ``BiPoly``.  Fixed points of
alpha add nothing to r, so they do not widen the ints.  No slot overflows.
Every value is R of a collection met on the way down, whose coefficients
are nonnegative and sum to its refinement count, which is below 2^bits
because it is at most the input's (Cat(k-2) Cat(m-k+1) <= Cat(m)).  No exponent passes r: all
coefficients are nonnegative, so each monomial met on the way down divides
a monomial of the input's R, and there every beta <= alpha has
u-exponent <= z(beta) - z(alpha) <= r (splitting a block raises kappa by
at most 1) and v-exponent <= n - z(beta) <= r (kappa(sigma, beta) <=
z(sigma)).  The decoded R(1,1) must equal the refinement count, else
``ValueError``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .hypermap import Hypermap, euler_number, orbits
from .nclattice import refinement_count
from .perm import Permutation, swap_values
from .poly import BiPoly
from .whitney import WhitneyResult, WhitneyStats


def refinement_walk(
    alpha: Permutation, classes: Sequence[int]
) -> Dict[Tuple[int, int], int]:
    """Refinement counts by (kappa, z(beta)), one refinement at a time.

    classes[p] in 0..K-1 is the class of point p.  For a refinement beta <=
    alpha, kappa is the number of classes left once the classes of every
    beta-block are joined.  Nothing is weighed: each refinement adds 1.

    A depth-first walk of the moves of ``nclattice.refinements``, from an
    explicit list of pending moves, so its depth is not bounded by the
    recursion limit.  A join unions the point's class with the block's in a
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
    ``nclattice.refinement_profile``, which it checks.
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


def _pivot(alf: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """The shortest alpha-cycle of length >= 2, starting from its least
    point, ties going to the cycle that holds the least point; None when
    alpha fixes every point."""
    best: Optional[List[int]] = None
    seen = [False] * len(alf)
    for p in range(1, len(alf)):
        if seen[p] or alf[p] == p:
            continue
        # p is the least point of its cycle: points below it are seen or fixed
        cycle = [p]
        q = alf[p]
        while q != p:
            seen[q] = True
            cycle.append(q)
            q = alf[q]
        if len(cycle) == 2:
            return tuple(cycle)
        if best is None or len(cycle) < len(best):
            best = cycle
    return None if best is None else tuple(best)


def pivot_cycle(alpha: Permutation) -> Optional[Tuple[int, ...]]:
    """The cycle from alpha's least non-fixed point; None for the identity."""
    alf = alpha._image
    p = next((p for p in range(1, len(alf)) if alf[p] != p), None)
    if p is None:
        return None
    cycle = [p]
    while alf[cycle[-1]] != p:
        cycle.append(alf[cycle[-1]])
    return tuple(cycle)


def _phi_k_tables(sig, alf, cycle: Tuple[int, ...], k: int):
    """Image tables of the k-th branch collection, and its v-exponent."""
    m = len(cycle)
    if m < 2 or not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for cycle of length {m}")
    c1, ck = cycle[0], cycle[k - 1]
    q = sig[c1]
    while q != c1 and q != ck:
        q = sig[q]
    if q != ck:
        sig = swap_values(sig, c1, ck)
    img = list(alf)
    img[cycle[k - 2]] = cycle[1]  # c(k-1) -> c2; for k <= 2 rewritten below
    img[cycle[-1]] = cycle[max(k, 2) - 1]  # cm -> ck, or -> c2 for k <= 2
    img[c1] = c1
    return sig, tuple(img), int(k != 1 and q == ck)


def _check_branch(sig, alf, kappa: int, cycle: Tuple[int, ...], keep_connected: bool):
    """A branch's sigma (glued by psi), orbits and u-exponent, checked."""
    comps = orbits(sig, alf)
    eu = len(comps) - kappa
    if eu not in (0, 1):
        raise ValueError(f"branch weight out of range: u^{eu}")
    if keep_connected and eu == 1:
        sig = swap_values(sig, cycle[0], cycle[1])
        comps = orbits(sig, alf)
        if len(comps) != kappa:
            raise ValueError("gluing failed to restore the orbit count")
    euler_number(sig, alf, len(comps))
    return sig, comps, eu


def phi_k(h: Hypermap, cycle: Tuple[int, ...], k: int) -> Hypermap:
    """The k-th branch collection for the given pivot cycle."""
    sig, alf, _ = _phi_k_tables(h.sigma._image, h.alpha._image, cycle, k)
    return Hypermap(Permutation._unchecked(sig), Permutation._unchecked(alf))


def branch(
    h: Hypermap, cycle: Tuple[int, ...], k: int, keep_connected: bool
) -> Tuple[Hypermap, int, int]:
    """One recursion branch: (child, u-exponent, v-exponent) of its weight.

    With keep_connected the child has any split component glued back, so its
    orbit count always matches the parent's.  The weight is unchanged by the
    gluing and always lands in {1, u, v, u*v}.
    """
    sig, alf, ev = _phi_k_tables(h.sigma._image, h.alpha._image, cycle, k)
    sig, _, eu = _check_branch(sig, alf, h.kappa, cycle, keep_connected)
    return Hypermap(Permutation._unchecked(sig), Permutation._unchecked(alf)), eu, ev


def _relabel(sig, alf, points) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Both tables on some points of a union of orbits, the i-th smallest
    point relabeled i; sigma skips the points left out, which must be fixed
    by alpha."""
    points = sorted(points)
    label = [0] * len(sig)
    for i, p in enumerate(points, 1):
        label[p] = i
    s = [0]
    for p in points:
        q = sig[p]
        while not label[q]:
            q = sig[q]
        s.append(label[q])
    return tuple(s), tuple([0] + [label[alf[p]] for p in points])


def _reduce(sig, alf, comps):
    """The tables of each orbit with alpha's fixed points spliced out of
    sigma, relabeled onto 1..m; orbits left empty are dropped."""
    moved = ([p for p in comp if alf[p] != p] for comp in comps)
    return [_relabel(sig, alf, points) for points in moved if points]


def _unpack(packed: int, bits: int, width: int) -> BiPoly:
    """The BiPoly whose u^a v^b coefficient sits in slot a*width + b."""
    mask = (1 << bits) - 1
    terms = {}
    slot = 0
    while packed:
        c = packed & mask
        if c:
            terms[divmod(slot, width)] = c
        packed >>= bits
        slot += 1
    return BiPoly(terms)


def _whitney_recursive(h: Hypermap, keep_connected: bool) -> WhitneyResult:
    # Polynomials are packed ints, slot a*(r+1) + b holding u^a v^b with r
    # the rank of alpha; the module docstring says why no slot overflows.
    count = refinement_count(h.alpha)
    bits = count.bit_length()
    width = h.n - h.alpha.cycle_count + 1
    u_shift = bits * width
    exact: dict = {}
    branches: dict = {}
    stats = WhitneyStats()

    def product(sig, alf, comps) -> int:
        # R is multiplicative over components and unchanged by splicing buds
        packed = 1
        for key in _reduce(sig, alf, comps):
            stats.nodes += 1
            factor = exact.get(key)
            if factor is None:
                if len(comps) > 1:
                    euler_number(*key, 1)
                exact[key] = factor = component(*key)
            else:
                stats.memo_hits += 1
            packed *= factor
        return packed

    def component(sig, alf) -> int:
        pivot = _pivot(alf)
        packed = 0
        for k in range(1, len(pivot) + 1):
            csig, calf, ev = _phi_k_tables(sig, alf, pivot, k)
            value = branches.get((csig, calf))
            if value is None:
                gsig, comps, eu = _check_branch(csig, calf, 1, pivot, keep_connected)
                value = product(gsig, calf, comps) << eu * u_shift
                branches[csig, calf] = value
            else:
                stats.nodes += 1
                stats.memo_hits += 1
            packed += value << ev * bits
        return packed

    sig, alf = h.sigma._image, h.alpha._image
    packed = product(sig, alf, orbits(sig, alf))
    # product and component refer to each other, a reference cycle that
    # only the cyclic collector would free, so release both memos now
    exact.clear()
    branches.clear()
    poly = _unpack(packed, bits, width)
    total = sum(poly.terms.values())
    if total != count:
        raise ValueError(f"R(1,1) = {total}, but alpha has {count} refinements")
    stats.terms = len(poly.terms)
    return WhitneyResult(poly, "psi" if keep_connected else "phi", stats)
