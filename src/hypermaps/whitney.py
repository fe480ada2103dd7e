"""Whitney polynomials of hypermap collections.

For a pair (sigma, alpha) on n points the Whitney polynomial is the sum over
all refinements beta <= alpha of

    u^(kappa(sigma, beta) - kappa(sigma, alpha))
    * v^(kappa(sigma, beta) + n - z(beta) - z(sigma)),

an exact bivariate polynomial with nonnegative integer coefficients.  Four
evaluation routes are provided and must agree.  ``whitney_dp`` is the
production route, the default of ``whitney`` and of the CLI; the other
three are independent checks, run by ``--method``, ``--check``, the
selftest and the tests:

* ``whitney_dp`` reads the sum off ``nclattice.refinement_profile``, a
  frontier dynamic program over the stack of open blocks that needs only
  kappa(sigma, beta) and z(beta) of each refinement and never lists them;
* ``whitney_bruteforce`` takes one term per refinement from
  ``nclattice.refinement_walk``, a depth-first walk of the same stack of
  open blocks that joins the sigma-cycles met by each block in a
  union-find and merges no states, so it checks the DP's bookkeeping;
  ``oracles.whitney_refinement_sum`` is the definitional sum, one
  ``Permutation`` per refinement;
* ``whitney_phi`` applies the deletion/contraction style recursion that picks
  a hyperedge cycle (c1, ..., cm) of length m >= 2 and expands into m branch
  collections phi_k, one per point of the cycle, each weighted by 1, u, v or
  u*v;
* ``whitney_psi`` uses the variant recursion whose branches additionally
  glue any component split off by the expansion back on (via a transposition
  joining c1's and c2's components), so connected input stays connected all
  the way down.

Branch construction for the cycle (c1, ..., cm), rotated so c1 is the
smallest point, and 1 <= k <= m:

* the sigma part is (c1, ck) * sigma when c1 and ck lie in different
  sigma-cycles (always the case for k = 1, reading (c1, c1) as identity),
  and sigma unchanged when they share a cycle;
* the alpha part replaces the cycle by (c1)(c2 ... cm) when k is 1 or 2 and
  by (c1)(c2 ... c(k-1))(ck ... cm) otherwise.

The branch weight is u^(kappa(phi_k) - kappa) * v^[k != 1 and c1, ck share a
sigma-cycle]; every weight is one of 1, u, v, u*v, which is checked.

The polynomial is multiplicative over disjoint unions, so phi and psi work
one connected component at a time.  The input and every branch collection
are split into components; a component whose hyperedges are all fixed
points contributes 1, and every other one is relabeled onto 1..m in
increasing point order, expanded, and multiplied in.  One lookup, living
for one call, spares the expansion: the component's image tables on 1..m
(``Hypermap.component_images``) are looked up in an exact index of the
components already solved, so a hit builds no ``Hypermap``.  The index is
keyed by labels, so an isomorphic copy under other labels is expanded
again.  ``WhitneyStats`` counts component visits as nodes, and visits
answered by the index as memo hits.  A branch's weight u^eu v^ev is added
in as a shift of its terms' exponents.
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import NamedTuple, Optional, Tuple

from .hypermap import Hypermap
from .nclattice import refinement_count, refinement_profile, refinement_walk
from .perm import Permutation
from .poly import BiPoly, UniPoly

METHODS = ("brute", "phi", "psi", "dp")


class WhitneyStats:
    __slots__ = ("nodes", "memo_hits", "terms")

    def __init__(self, nodes: int = 0, memo_hits: int = 0, terms: int = 0):
        self.nodes, self.memo_hits, self.terms = nodes, memo_hits, terms


class WhitneyResult:
    __slots__ = ("polynomial", "method", "stats")

    def __init__(self, polynomial: BiPoly, method: str, stats: WhitneyStats):
        self.polynomial, self.method, self.stats = polynomial, method, stats


class InstanceTooLarge(ValueError):
    """Raised when a size guard would be exceeded."""


def pivot_cycle(alpha: Permutation) -> Optional[Tuple[int, ...]]:
    """The alpha-cycle of length >= 2 containing the smallest such point.

    Cycles from ``Permutation.cycles`` start at their minimum and are sorted
    by it, so the first long cycle is the right one.  None when alpha only
    has fixed points (the recursion base case).
    """
    for c in alpha.cycles():
        if len(c) >= 2:
            return c
    return None


def _replace_cycle(alpha: Permutation, cycle: Tuple[int, ...], k: int) -> Permutation:
    img = list(alpha._image)
    c1 = cycle[0]
    img[c1] = c1
    if k <= 2:
        pieces = [cycle[1:]]
    else:
        pieces = [cycle[1 : k - 1], cycle[k - 1 :]]
    for piece in pieces:
        for a, b in zip(piece, piece[1:] + piece[:1]):
            img[a] = b
    return Permutation._unchecked(tuple(img))


def phi_k(h: Hypermap, cycle: Tuple[int, ...], k: int) -> Hypermap:
    """The k-th branch collection for the given pivot cycle."""
    m = len(cycle)
    if m < 2 or not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for cycle of length {m}")
    c1, ck = cycle[0], cycle[k - 1]
    if h.sigma.same_cycle(c1, ck):
        sig = h.sigma
    else:
        sig = h.sigma.swap_values(c1, ck)
    return Hypermap(sig, _replace_cycle(h.alpha, cycle, k))


def branch(
    h: Hypermap, cycle: Tuple[int, ...], k: int, keep_connected: bool
) -> Tuple[Hypermap, int, int]:
    """One recursion branch: (child, u-exponent, v-exponent) of its weight.

    With keep_connected the child has any split component glued back, so its
    orbit count always matches the parent's.  The weight is unchanged by the
    gluing and always lands in {1, u, v, u*v}.
    """
    child = phi_k(h, cycle, k)
    eu = child.kappa - h.kappa
    if eu not in (0, 1):
        raise ValueError(f"branch weight out of range: u^{eu}")
    ev = 1 if k != 1 and h.sigma.same_cycle(cycle[0], cycle[k - 1]) else 0
    if keep_connected and eu == 1:
        glued = Hypermap(child.sigma.swap_values(cycle[0], cycle[1]), child.alpha)
        if glued.kappa != h.kappa:
            raise ValueError("gluing failed to restore the orbit count")
        child = glued
    return child, eu, ev


def _whitney_recursive(h: Hypermap, keep_connected: bool) -> WhitneyResult:
    exact: dict = {}
    stats = WhitneyStats()

    def product(g: Hypermap) -> BiPoly:
        # R is multiplicative over components, and a component whose
        # hyperedges are all fixed points contributes 1.
        alf = g.alpha._image
        factors = []
        for comp in g.components():
            if any(alf[p] != p for p in comp):
                stats.nodes += 1
                images = g.component_images(comp)
                poly = exact.get(images)
                if poly is None:
                    if g.kappa == 1:
                        piece = g
                    else:
                        piece = Hypermap(*map(Permutation._unchecked, images))
                    exact[images] = poly = component(piece)
                else:
                    stats.memo_hits += 1
                factors.append(poly)
        return reduce(mul, factors) if factors else BiPoly.const(1)

    def component(g: Hypermap) -> BiPoly:
        pivot = pivot_cycle(g.alpha)
        terms: dict = {}
        for k in range(1, len(pivot) + 1):
            child, eu, ev = branch(g, pivot, k, keep_connected)
            for (a, b), c in product(child).terms.items():
                t = (a + eu, b + ev)
                terms[t] = terms.get(t, 0) + c
        return BiPoly(terms)

    poly = product(h)
    # product and component refer to each other, a reference cycle that
    # only the cyclic collector would free, so release the index now
    exact.clear()
    stats.terms = len(poly.terms)
    return WhitneyResult(poly, "psi" if keep_connected else "phi", stats)


def whitney_phi(h: Hypermap) -> WhitneyResult:
    return _whitney_recursive(h, keep_connected=False)


def whitney_psi(h: Hypermap) -> WhitneyResult:
    """Same polynomial as whitney_phi, via the connectivity-preserving rule.

    Every branch keeps its parent's orbit count, which is checked, so a
    component never splits on the way down.
    """
    return _whitney_recursive(h, keep_connected=True)


def _poly_of_counts(h: Hypermap, counts) -> BiPoly:
    """R from refinement counts by (kappa(sigma, beta), z(beta))."""
    zs = h.sigma.cycle_count
    return BiPoly(
        {(kb - h.kappa, kb + h.n - zb - zs): c for (kb, zb), c in counts.items()}
    )


def whitney_bruteforce(h: Hypermap) -> WhitneyResult:
    """One term per refinement, from ``nclattice.refinement_walk``.

    The walk visits every beta <= alpha, joining the sigma-cycles met by each
    beta-block to get kappa(sigma, beta), so it checks the DP's relabelling
    and its detection of finished classes.  It has no size guard of its own:
    the ``whitney`` subcommand checks ``refinement_count`` against its cap
    before it calls any route.
    """
    stats = WhitneyStats(nodes=refinement_count(h.alpha))
    poly = _poly_of_counts(h, refinement_walk(h.alpha, h.sigma.cycle_labels()))
    stats.terms = len(poly.terms)
    return WhitneyResult(poly, "brute", stats)


def whitney_dp(h: Hypermap) -> WhitneyResult:
    """The refinement sum from (kappa(sigma, beta), z(beta)) counts alone.

    ``stats.nodes`` counts the DP states visited; there is no memo.
    """
    counts, states = refinement_profile(h)
    poly = _poly_of_counts(h, counts)
    return WhitneyResult(poly, "dp", WhitneyStats(states, 0, len(poly.terms)))


def whitney(h: Hypermap, method: str = "dp") -> WhitneyResult:
    if method == "brute":
        return whitney_bruteforce(h)
    if method == "phi":
        return whitney_phi(h)
    if method == "psi":
        return whitney_psi(h)
    if method == "dp":
        return whitney_dp(h)
    raise ValueError(f"unknown method {method!r}")


class Specializations(NamedTuple):
    spanning_hyperforests: int
    spanning_collections: int
    hyperbola: UniPoly


def specializations(h: Hypermap, poly: Optional[BiPoly] = None) -> Specializations:
    """R(0,0), R(0,1) and the Laurent section R(v^-1, v).

    R(0,0) counts spanning hyperforests (refinements with the same orbit
    count as alpha and one face per component) and R(0,1) counts spanning
    connected-preserving collections.
    """
    if poly is None:
        poly = whitney_dp(h).polynomial
    return Specializations(
        spanning_hyperforests=int(poly.evaluate(0, 0)),
        spanning_collections=int(poly.evaluate(0, 1)),
        hyperbola=poly.hyperbola_section(),
    )


def wet_dry_polynomial(h: Hypermap) -> BiPoly:
    """Genus zero only: the sum over refinements of u^wet(beta) v^dry(beta).

    At genus zero the v-exponent of a refinement's Whitney term splits as
    kappa(sigma, beta) + n - z(beta) - z(sigma)
        = 2 g(sigma, beta) + z(beta^-1 sigma) - kappa(sigma, beta)
    with g(sigma, beta) = 0, so taking wet(beta) = kappa(sigma, beta) parts
    of the surface and dry(beta) = z(beta^-1 sigma) - kappa(sigma, beta)
    gives sum u^wet v^dry = u^kappa(sigma, alpha) * R(u, v), which is how it
    is computed.  The selftest and the tests compare it with the
    definitional sum.
    """
    if h.genus != 0:
        raise ValueError("wet/dry weights are only defined at genus zero")
    return BiPoly.monomial(1, h.kappa, 0) * whitney_dp(h).polynomial
