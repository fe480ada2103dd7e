"""Check-only invariants that run the frontier DP: X over an interval and
compatible coloring counts.

Only the selftest and the tests call them, so no command compiles this
module.  Each is one ``refinement_profile`` pass (``x_interval``) or one
``counting.distinct_colorings`` count (``compatible_coloring_count``); the
definitional sums they are checked against are in ``oracles``.
"""

from __future__ import annotations

from typing import List, Tuple

from .counting import distinct_colorings
from .hypermap import Hypermap, orbits
from .nclattice import mobius_nc, refinement_profile
from .oracles import is_refinement
from .perm import Permutation
from .poly import UniPoly


def _orbit_table(h: Hypermap, alpha1: Permutation) -> Tuple[int, List[int]]:
    """The orbit count of <sigma, alpha1> and each point's orbit (0 unused)."""
    comps = orbits(h.sigma._image, alpha1._image)
    orbit = [0] * (h.n + 1)
    for i, comp in enumerate(comps):
        for p in comp:
            orbit[p] = i
    return len(comps), orbit


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
    _, orbit = _orbit_table(h, alpha1)
    delta = alpha1.inverse() * alpha2
    counts, _ = refinement_profile(delta, orbit, block_weight=mobius_nc)
    return UniPoly.collect(counts, lambda kb, zb: kb)


def compatible_coloring_count(h: Hypermap, alpha1: Permutation, colors: int) -> int:
    """Colorings constant on alpha1-hyperedges and proper across the rest.

    Vertices meeting a common alpha1-cycle share a color, so they merge into
    the orbits of <sigma, alpha1>.  Each alpha-cycle then asks distinct
    colors of the orbits of its alpha1-cycles; an orbit met by two of them
    kills the count.  ``compatible_coloring_enumeration`` lists all
    colors^V colorings.
    """
    if not is_refinement(alpha1, h.alpha):
        raise ValueError("alpha1 must refine alpha")
    kappa1, orbit = _orbit_table(h, alpha1)
    cycle1 = alpha1.cycle_labels()
    groups = (list({cycle1[p]: orbit[p] for p in c}.values())
              for c in h.alpha.cycles())
    return distinct_colorings(kappa1, groups, colors)
