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

Branches are image tables; ``phi_k`` and ``branch`` wrap the same step in a
``Hypermap``.  The pivot cycle (c1, ..., cm) of alpha runs from its least
non-fixed point.  Branch k, 1 <= k <= m, swaps the values c1 and ck of sigma
when they lie in different sigma-cycles (never for k = 1), and replaces the
cycle in alpha by (c1)(c2 ... cm) when k <= 2 and otherwise by
(c1)(c2 ... c(k-1))(ck ... cm); its weight is u^(kappa(phi_k) - kappa) *
v^[k != 1 and c1, ck share a sigma-cycle].  One orbit walk gives kappa and
the components.  Checks that raise ``ValueError``: u-exponent 0 or 1, psi's
gluing restores kappa, and n + 2 kappa - z(sigma) - z(alpha) - z(sigma^-1
alpha) even and nonnegative on each branch and on each piece of a branch
that splits.  Each depends only on the branch's tables (and psi's c1, c2),
as does its value, so a branch memo runs them once per key in a call.

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
is ``*``; one decode at the end builds the ``BiPoly``.  Fixed points of alpha add nothing
to r, so they do not widen the ints.  No slot overflows.  Every value is R
of a collection met on the way down, whose coefficients are nonnegative and
sum to its refinement count, which is below 2^bits because it is at most
the input's (Cat(k-2) Cat(m-k+1) <= Cat(m)).  No exponent passes r: all
coefficients are nonnegative, so each monomial met on the way down divides
a monomial of the input's R, and there every beta <= alpha has
u-exponent <= z(beta) - z(alpha) <= r (splitting a block raises kappa by
at most 1) and v-exponent <= n - z(beta) <= r (kappa(sigma, beta) <=
z(sigma)).  The decoded R(1,1) must equal the refinement count, else
``ValueError``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .hypermap import Hypermap, euler_number, orbits
from .nclattice import refinement_count, refinement_profile, refinement_walk
from .perm import Permutation, swap_values
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


def _pivot(alf: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """The alpha-cycle through the smallest non-fixed point, starting there."""
    p = next((p for p in range(1, len(alf)) if alf[p] != p), None)
    if p is None:
        return None
    cycle = [p]
    while alf[cycle[-1]] != p:
        cycle.append(alf[cycle[-1]])
    return tuple(cycle)


def pivot_cycle(alpha: Permutation) -> Optional[Tuple[int, ...]]:
    """The cycle from alpha's least non-fixed point; None for the identity."""
    return _pivot(alpha._image)


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
        glue = pivot[:2] if keep_connected else None
        packed = 0
        for k in range(1, len(pivot) + 1):
            csig, calf, ev = _phi_k_tables(sig, alf, pivot, k)
            value = branches.get((csig, calf, glue))
            if value is None:
                gsig, comps, eu = _check_branch(csig, calf, 1, pivot, keep_connected)
                value = product(gsig, calf, comps) << eu * u_shift
                branches[csig, calf, glue] = value
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
    counts, states = refinement_profile(h.alpha, h.sigma.cycle_labels())
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
