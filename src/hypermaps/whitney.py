"""Whitney polynomials of hypermap collections.

For a pair (sigma, alpha) on n points the Whitney polynomial is the sum over
all refinements beta <= alpha of

    u^(kappa(sigma, beta) - kappa(sigma, alpha))
    * v^(kappa(sigma, beta) + n - z(beta) - z(sigma)),

an exact bivariate polynomial with nonnegative integer coefficients.  Four
routes compute it and must agree.  ``whitney_dp``, the production route and
the default, reads it off ``nclattice.refinement_profile``, a frontier
dynamic program that needs only kappa(sigma, beta) and z(beta) of each
refinement and never lists them.  The check routes ``whitney_bruteforce``,
``whitney_phi`` and ``whitney_psi``, run by ``--method``, ``--check``, the
selftest and the tests, import their code from ``routes`` on first call.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .hypermap import Hypermap
from .nclattice import refinement_count, refinement_profile, require_total
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


def whitney_phi(h: Hypermap) -> WhitneyResult:
    """R by the phi recursion of ``routes``."""
    from .routes import _whitney_recursive
    return _whitney_recursive(h, keep_connected=False)


def whitney_psi(h: Hypermap) -> WhitneyResult:
    """R by the psi recursion of ``routes``, where no component splits."""
    from .routes import _whitney_recursive
    return _whitney_recursive(h, keep_connected=True)


def _poly_of_counts(h: Hypermap, counts) -> BiPoly:
    """R from refinement counts by (kappa(sigma, beta), z(beta))."""
    zs = h.sigma.cycle_count
    return BiPoly.collect(counts, lambda kb, zb: (kb - h.kappa, kb + h.n - zb - zs))


def whitney_bruteforce(h: Hypermap) -> WhitneyResult:
    """One term per refinement, from ``routes.refinement_walk``, with no size
    guard: the ``whitney`` subcommand checks ``refinement_count`` first."""
    from .routes import refinement_walk
    stats = WhitneyStats(nodes=refinement_count(h.alpha))
    poly = _poly_of_counts(h, refinement_walk(h.alpha, h.sigma.cycle_labels()))
    stats.terms = len(poly.terms)
    return WhitneyResult(poly, "brute", stats)


def whitney_dp(h: Hypermap) -> WhitneyResult:
    """The refinement sum from (kappa(sigma, beta), z(beta)) counts alone.

    ``stats.nodes`` counts the DP states visited and ``memo_hits`` stays 0,
    as the DP's key memo holds no results; R(1,1) must be the refinement count.
    """
    counts, states = refinement_profile(h.alpha, h.sigma.cycle_labels())
    require_total(counts, refinement_count(h.alpha), "R(1,1)")
    poly = _poly_of_counts(h, counts)
    return WhitneyResult(poly, "dp", WhitneyStats(states, 0, len(poly.terms)))


def whitney(h: Hypermap, method: str = "dp") -> WhitneyResult:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    routes = (whitney_bruteforce, whitney_phi, whitney_psi, whitney_dp)
    return routes[METHODS.index(method)](h)


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
