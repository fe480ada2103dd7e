"""Characteristic and flow polynomials chi(t) and C(t).

All sums run over the refinement order through ``nclattice``, and every
Moebius value is read off cycle lengths.  chi(t) weights beta by
mu(id, beta), a product of ``mobius_nc`` over beta's blocks, and C(t) by
mu(beta, alpha), a product over the cycles of the Kreweras complement
beta^-1 alpha.  The stack of open blocks closes the blocks of either side
whole at a height it knows, so each is one ``refinement_profile`` pass,
which never lists the refinements.  Such a pass checks its total at t = 1:
chi(1) = C(1) = 1 if alpha is the identity and 0 otherwise, since Moebius
values sum to zero over a nontrivial interval.

The characteristic polynomial of (sigma, alpha) is

    chi(t) = sum over beta <= alpha of mu(id, beta)
             * t^(kappa(sigma, beta) - kappa(sigma, alpha)),

and the flow polynomial is

    C(t) = sum over beta <= alpha of mu(beta, alpha)
           * t^(n + kappa(sigma, beta) - z(beta) - z(sigma)).

Proper colorings and nowhere-zero flows, counted as values of chi and C on
graph maps, live in ``counting``, which only the ``colorings`` and ``flows``
subcommands and the checks load.
"""

from __future__ import annotations

from .hypermap import Hypermap
from .nclattice import mobius_nc, refinement_profile, require_total
from .poly import UniPoly


def characteristic_polynomial(h: Hypermap) -> UniPoly:
    vertex = h.sigma.cycle_labels()
    counts, _ = refinement_profile(h.alpha, vertex, block_weight=mobius_nc)
    require_total(counts, h.alpha.cycle_count == h.n, "chi(1)")
    return UniPoly.collect(counts, lambda kb, zb: kb - h.kappa)


def flow_polynomial(h: Hypermap) -> UniPoly:
    vertex = h.sigma.cycle_labels()
    counts, _ = refinement_profile(h.alpha, vertex, complement_weight=mobius_nc)
    require_total(counts, h.alpha.cycle_count == h.n, "C(1)")
    base = h.n - h.sigma.cycle_count
    return UniPoly.collect(counts, lambda kb, zb: base + kb - zb)
