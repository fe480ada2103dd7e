"""Seeded self-checks behind the ``hypermap selftest`` subcommand.

Every identity promised by the library is exercised here on a reproducible
random corpus: genus arithmetic, refinement/Moebius structure, polynomial
round-trips, the four Whitney routes, duality and specializations, medial
state sums, coloring and flow identities.  All randomness flows through one
``random.Random(seed)`` instance, so output is byte for byte reproducible.

Each identity that the tests also check is one ``require_*`` function
here, which the selftest's check and the test both call.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import charflow, checks, counting, medial, oracles
from .hypermap import Hypermap, dual, merge_components, orbit_count
from .nclattice import catalan, refinement_count, refinements
from .oracles import is_refinement, mobius, noncrossing_partitions, refinement_sum
from .perm import Permutation
from .poly import BiPoly, UniPoly
from .whitney import (
    specializations,
    wet_dry_polynomial,
    whitney_bruteforce,
    whitney_dp,
    whitney_phi,
    whitney_psi,
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _require(condition: bool, message: str = "", *subjects: object) -> None:
    """Fail the running check; unlike ``assert``, this also runs under -O.

    The failure names the broken identity and the inputs it failed on.
    """
    if not condition:
        if subjects:
            message += " fails on " + ", ".join(map(repr, subjects))
        raise AssertionError(message)


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_bounded_cycles(rng: random.Random, n: int, max_len: int) -> Permutation:
    """A permutation whose cycle lengths never exceed max_len."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    cycles = []
    while points:
        take = rng.randint(1, min(max_len, len(points)))
        cycles.append(tuple(points[:take]))
        points = points[take:]
    return Permutation.from_cycles(n, cycles)


def random_collection(
    rng: random.Random, n_max: int = 8, max_cycle: int = 5
) -> Hypermap:
    n = rng.randint(1, n_max)
    return Hypermap(
        random_permutation(rng, n), random_bounded_cycles(rng, n, max_cycle)
    )


def random_map(rng: random.Random, n_max: int = 8) -> Hypermap:
    n = rng.randint(1, n_max)
    return Hypermap(random_permutation(rng, n), random_bounded_cycles(rng, n, 2))


def noncrossing_partition(n: int, i: int, first: int = 0) -> List[Tuple[int, ...]]:
    """``noncrossing_partitions(n)[i]`` on first..first+n-1, listing no other.

    In that order the first block is most significant, then the gaps it
    leaves.  The block grows point by point; ending it (c = end) comes first.
    """
    end, block, gaps, weight = first + n, [first], [], 1
    while block[-1] != end:
        b = block[-1]
        for c in (end, *range(b + 1, end)):
            count = weight * catalan(c - b - 1) * catalan(end - c)
            if i < count:
                break
            i -= count
        gaps.append((b + 1, c - b - 1))
        weight *= catalan(c - b - 1)
        block.append(c)
    rest: List[Tuple[int, ...]] = []
    for start, g in reversed(gaps):
        i, r = divmod(i, catalan(g))
        rest = (noncrossing_partition(g, r, start) if g else []) + rest
    return [tuple(block[:-1])] + rest


def random_planar_connected(rng: random.Random, n_max: int = 8) -> Hypermap:
    """Connected genus zero pair: a full cycle and one of its refinements.

    sigma is a random refinement of the random n-cycle alpha, which forces
    genus zero, and alpha alone is already transitive.
    """
    n = rng.randint(1, n_max)
    points = list(range(1, n + 1))
    rng.shuffle(points)
    alpha = Permutation.from_cycles(n, [tuple(points)])
    parent = alpha.cycles()[0]
    pattern = noncrossing_partition(n, rng.randrange(catalan(n)))
    sigma = Permutation.from_cycles(
        n, [tuple(parent[p] for p in block) for block in pattern]
    )
    h = Hypermap(sigma, alpha)
    _require(h.genus == 0 and h.is_connected)
    return h


def random_eulerian_digraph(
    rng: random.Random, max_vertices: int = 6, max_edges: int = 12
) -> medial.EulerianDigraph:
    """Superposition of random closed walks; isolated vertices never occur."""
    nv = rng.randint(1, max_vertices)
    target = rng.randint(1, max_edges)
    edges: List[Tuple[int, int]] = []
    while len(edges) < target:
        length = rng.randint(1, min(4, target - len(edges)))
        walk = [rng.randint(1, nv) for _ in range(length)]
        for a, b in zip(walk, walk[1:] + walk[:1]):
            edges.append((a, b))
    return medial.EulerianDigraph(tuple(edges))


# The identities.  Each is written once, as a function of one input (a
# collection, a permutation, polynomials or a digraph) plus the sizes it
# needs; the checks below run it on seeded random corpora and the tests on
# their own corpora.  Each fails through ``_require`` and draws no randomness.


def require_catalan_counts(m: int) -> None:
    """NC(m) and the refinements of an m-cycle number Cat(m)."""
    alpha = Permutation.from_cycles(m, [tuple(range(1, m + 1))])
    _require(len(noncrossing_partitions(m)) == catalan(m)
             == sum(1 for _ in refinements(alpha)), f"Cat({m}) counts NC({m})")


def require_refinement_membership(alpha: Permutation) -> int:
    """refinements(alpha) lists, once each, exactly the beta in S_n with
    beta <= alpha, refinement_count(alpha) of them; returns n!."""
    listed = [beta.image for beta in refinements(alpha)]
    members = set(listed)
    _require(len(members) == len(listed) == refinement_count(alpha),
             "refinements are distinct and counted", alpha)
    checked = 0
    for images in permutations(range(1, alpha.n + 1)):
        _require((images in members) == is_refinement(Permutation(images), alpha),
                 f"{images} is listed iff it refines alpha", alpha)
        checked += 1
    return checked


def require_mobius_recursion(alpha: Permutation) -> int:
    """The sum of mu(beta, gamma) over gamma in [beta, delta] is 1 when
    beta = delta and 0 otherwise, on every interval below alpha.

    mu(beta, beta) = 1 and these zero sums pin mu, so the closed form meets
    the definition.  Returns the number of intervals checked.
    """
    elems = list(refinements(alpha))
    leq = [[is_refinement(b, d) for d in elems] for b in elems]
    intervals = 0
    for i, beta in enumerate(elems):
        mu = [mobius(beta, g) if leq[i][k] else 0 for k, g in enumerate(elems)]
        for j in range(len(elems)):
            if leq[i][j]:
                total = sum(mu[k] for k in range(len(elems)) if leq[k][j])
                _require(total == (1 if i == j else 0),
                         "mu meets its defining recursion", alpha)
                intervals += 1
    return intervals


def require_ring_axioms(a: BiPoly, b: BiPoly, c: BiPoly) -> None:
    """BiPoly is a commutative ring and evaluation a ring homomorphism."""
    zero, one = BiPoly.zero(), BiPoly.const(1)
    _require(a + b == b + a and (a + b) + c == a + (b + c)
             and a + zero == a and a - a == zero, "addition axioms", a, b, c)
    _require(a * b == b * a and (a * b) * c == a * (b * c) and a * one == a,
             "multiplication axioms", a, b, c)
    _require(a * (b + c) == a * b + a * c, "distributivity", a, b, c)
    _require((a * b).evaluate(2, -3) == a.evaluate(2, -3) * b.evaluate(2, -3),
             "evaluation is multiplicative", a, b)


def require_print_parse(p: Union[BiPoly, UniPoly], var: str = "x") -> None:
    """A polynomial reads back from the text it prints (a UniPoly in var)."""
    if isinstance(p, BiPoly):
        back = BiPoly.parse(str(p))
    else:
        back = UniPoly.parse(p.to_string(var), var)
    _require(back == p, "parse(print(p)) == p", p)


def require_routes_agree(h: Hypermap, routes: Sequence[Callable]) -> None:
    """Each Whitney route gives brute force's R."""
    brute = whitney_bruteforce(h).polynomial
    for route in routes:
        _require(route(h).polynomial == brute, f"{route.__name__} == brute", h)


def require_product(a: Hypermap, b: Hypermap, route: Callable) -> None:
    """R(a + b) = R(a) R(b), and merging two components of a + b keeps it."""
    union = a.disjoint_union(b)
    product = whitney_phi(a).polynomial * whitney_phi(b).polynomial
    _require(route(union).polynomial == product, "R(a + b) == R(a) R(b)", a, b)
    for comp in union.components()[1:]:
        merged = merge_components(union, 1, comp[0])
        _require(route(merged).polynomial == product,
                 f"merging points 1 and {comp[0]} keeps R", a, b)


def require_planar_duality(h: Hypermap) -> None:
    """At genus zero the dual is planar and swaps u and v in R."""
    d = dual(h)
    swapped = whitney_phi(h).polynomial.swap_variables()
    _require(d.genus == 0 and whitney_phi(d).polynomial == swapped,
             "R(dual) == R(v, u) at genus zero", h)


def require_narayana(n: int) -> None:
    """The identity over an n-cycle has the Narayana numbers as R's u-terms."""
    h = Hypermap(
        Permutation.identity(n), Permutation.from_cycles(n, [tuple(range(1, n + 1))])
    )
    r = whitney_phi(h).polynomial
    _require(all(ev == 0 for (_, ev) in r.terms)
             and all(r.coefficient(k - 1, 0) == oracles.narayana(n, k)
                     for k in range(1, n + 1)), "R == the Narayana polynomial", h)
    rd = whitney_phi(dual(h)).polynomial
    _require(rd == r.swap_variables() and all(eu == 0 for (eu, _) in rd.terms),
             "R(dual) == R(v, u) on the Narayana family", h)


def require_specializations(h: Hypermap) -> None:
    """R(0,0), R(0,1) and R(v^-1, v) count what their definitions list."""
    r = whitney_bruteforce(h).polynomial
    s = specializations(h, r)
    forests = spanning = 0
    hyper: dict = {}
    for beta in refinements(h.alpha):
        sub = Hypermap(h.sigma, beta)
        if sub.kappa == h.kappa:
            spanning += 1
            if sub.genus == 0 and sub.faces().cycle_count == sub.kappa:
                forests += 1
        e = h.n + h.kappa - beta.cycle_count - h.sigma.cycle_count
        hyper[e] = hyper.get(e, 0) + 1
    _require(s.spanning_hyperforests == forests == r.evaluate(0, 0),
             "R(0, 0) counts spanning hyperforests", h)
    _require(s.spanning_collections == spanning == r.evaluate(0, 1),
             "R(0, 1) counts spanning collections", h)
    _require(s.hyperbola == UniPoly(hyper) == r.hyperbola_section(),
             "R(v^-1, v) counts refinements by v-exponent", h)


def require_wet_dry(h: Hypermap) -> None:
    """At genus zero, wet/dry is u^kappa R and equals its definition, the
    sum over beta <= alpha of

        u^kappa(sigma, beta) v^(z(beta^-1 sigma) - kappa(sigma, beta)).
    """
    wet_dry = wet_dry_polynomial(h)
    expected = BiPoly.monomial(1, h.kappa, 0) * whitney_phi(h).polynomial
    _require(wet_dry == expected, "wet/dry == u^kappa R", h)

    def term(beta: Permutation):
        kb = orbit_count(h.sigma, beta)
        return (kb, (beta.inverse() * h.sigma).cycle_count - kb), 1

    _require(wet_dry == BiPoly(refinement_sum(h.alpha, term)),
             "wet/dry == its definition", h)


def require_medial_shape(h: Hypermap) -> None:
    """The medial map keeps the genus, has a vertex per hyperedge and an
    edge per point, and gives back its source."""
    m = medial.medial_map(h)
    _require(m.genus == h.genus and m.sigma_prime.cycle_count == h.alpha.cycle_count
             and len(m.edges()) == m.alpha_prime.cycle_count == h.n
             and medial.source_hypermap(m) == h, "medial shape", h)


def require_matching_bijection(h: Hypermap) -> None:
    """Coherent medial states are the refinements beta <= alpha, each with
    z(beta^-1 sigma) circuits; a map has 2^edges of them."""
    m = medial.medial_map(h)
    matched = []
    for mu in oracles.coherent_matchings(m):
        beta = oracles.matching_refinement(m, mu)
        _require(len(oracles.circuits_of_state(m, mu))
                 == (beta.inverse() * h.sigma).cycle_count,
                 "a medial state has z(beta^-1 sigma) circuits", h)
        matched.append(beta.image)
    betas = sorted(b.image for b in refinements(h.alpha))
    _require(sorted(matched) == betas and len(betas) == refinement_count(h.alpha),
             "medial states <-> refinements", h)
    if h.is_map:
        edges = sum(1 for c in h.alpha.cycles() if len(c) == 2)
        _require(len(betas) == 2 ** edges, "a map has 2^edges medial states", h)


def require_circuit_polynomial(h: Hypermap) -> None:
    """j(x) is the medial state sum, and x^kappa R(x, x) at genus zero."""
    j = medial.circuit_partition_polynomial(h)
    _require(j == oracles.circuit_state_sum(medial.medial_map(h)),
             "j(x) == the medial state sum", h)
    if h.genus == 0:
        r = whitney_bruteforce(h).polynomial
        _require(j == UniPoly.collect(r.terms, lambda eu, ev: h.kappa + eu + ev),
                 "j(x) == x^kappa R(x, x)", h)


def require_coloring_sum(h: Hypermap) -> None:
    """At genus zero, Eulerian m-colorings weighted by valence sum to
    m^kappa R(m, m), for m = 1, 2, 3."""
    r = whitney_phi(h).polynomial
    for colors in (1, 2, 3):
        total = oracles.eulerian_valence_sum(h, colors)
        _require(total == colors ** h.kappa * r.evaluate(colors, colors)
                 == medial.eulerian_coloring_sum(h, colors),
                 f"Eulerian {colors}-coloring sum == m^kappa R(m, m)", h)


def require_interval_sums(h: Hypermap) -> None:
    """X([beta, alpha]) sums to t^z(sigma) over beta <= alpha, and
    X([id, alpha]) is t^kappa chi."""
    total = UniPoly.zero()
    for beta in refinements(h.alpha):
        total = total + checks.x_interval(h, beta, h.alpha)
    _require(total == UniPoly.monomial(1, h.sigma.cycle_count),
             "sum of X([beta, alpha]) == t^z(sigma)", h)
    chi = charflow.characteristic_polynomial(h)
    shifted = UniPoly({e + h.kappa: c for e, c in chi.terms.items()})
    ident = Permutation.identity(h.n)
    _require(shifted == checks.x_interval(h, ident, h.alpha),
             "X([id, alpha]) == t^kappa chi", h)


def require_flow_sum(h: Hypermap) -> None:
    """C(sigma, beta) sums to t^(n + kappa - z(sigma) - z(alpha)) over
    beta <= alpha; at genus zero that is t^(faces - kappa)."""
    total = UniPoly.zero()
    for beta in refinements(h.alpha):
        total = total + charflow.flow_polynomial(Hypermap(h.sigma, beta))
    e = h.n + h.kappa - h.alpha.cycle_count - h.sigma.cycle_count
    _require(total == UniPoly.monomial(1, e), "sum of C(sigma, beta) == t^dim", h)
    if h.genus == 0:
        _require(UniPoly.monomial(1, h.kappa) * total
                 == UniPoly.monomial(1, h.faces().cycle_count),
                 "sum of C(sigma, beta) == t^(faces - kappa)", h)


def require_flow_chi_duality(h: Hypermap) -> None:
    """At genus zero C(h) = chi(dual h): the block and the level form of the
    frontier DP, against each other."""
    _require(charflow.flow_polynomial(h) == charflow.characteristic_polynomial(dual(h)),
             "C(h) == chi(dual h) at genus zero", h)


def require_map_oracles(h: Hypermap) -> None:
    """On a map, chi and C are the underlying graph's, and chi = +-R(-t, -1)."""
    nv, edges = oracles.underlying_graph(h)
    chi = charflow.characteristic_polynomial(h)
    _require(chi == oracles.graph_characteristic(nv, edges), "chi == the graph's", h)
    _require(charflow.flow_polynomial(h) == oracles.graph_flow_polynomial(nv, edges),
             "C == the graph's flow polynomial", h)
    sign = -1 if (h.sigma.cycle_count - h.kappa) % 2 else 1
    r = whitney_bruteforce(h).polynomial
    _require(r.substitute_v(-1).flip_variable().scalar_multiply(sign) == chi,
             "chi == +-R(-t, -1)", h)


def require_small_edge_counts(h: Hypermap, sizes: Sequence[int]) -> None:
    """With hyperedges of length <= 3, m^kappa chi(m) counts proper
    m-colorings and C(q) nowhere-zero flows over GF(q), for each size;
    the enumerations keep one side independent."""
    chi = charflow.characteristic_polynomial(h)
    flow = charflow.flow_polynomial(h)
    for q in sizes:
        colorings = counting.proper_coloring_count(h, q)
        _require(q ** h.kappa * chi.evaluate(q) == colorings
                 == oracles.proper_coloring_enumeration(h, q),
                 f"m^kappa chi(m) counts proper colorings, m = {q}", h)
        nowhere_zero = counting.nowhere_zero_flow_count(h, q)
        _require(flow.evaluate(q) == nowhere_zero
                 == oracles.nowhere_zero_flow_enumeration(h, q),
                 f"C(q) counts nowhere-zero flows, q = {q}", h)


def require_flow_space(
    h: Hypermap, sizes: Sequence[int], max_listed: Optional[int] = None
) -> None:
    """Flows over GF(q) form a space of dimension n + kappa - z(sigma) -
    z(alpha); up to max_listed vectors (None: all) are listed and checked."""
    expected = h.n + h.kappa - h.sigma.cycle_count - h.alpha.cycle_count
    for q in sizes:
        space = oracles.flow_space(h, q)
        _require(space.dimension == expected and space.count() == q ** expected,
                 f"flow space dimension over GF({q})", h)
        if max_listed is None or space.count() <= max_listed:
            vecs = list(space.vectors())
            _require(len(set(vecs)) == space.count()
                     and all(oracles.is_flow(h, vec, q) for vec in vecs),
                     f"flow space lists distinct flows over GF({q})", h)


def require_digraph_roundtrip(d: medial.EulerianDigraph) -> None:
    """An Eulerian digraph's hypermap has its medial digraph back."""
    h = medial.from_eulerian_digraph(d)
    _require(h.n == len(d.edges)
             and oracles.digraph_isomorphic(d, medial.medial_digraph(h)),
             "digraph -> hypermap -> medial digraph", d)


Check = Tuple[str, Callable[[random.Random, int], str]]


def _each(
    trials: int, draw: Callable, identity: Callable, detail: str
) -> Callable[[random.Random, int], str]:
    """A check that runs identity on trials draws, each draw(rng, n_max)."""

    def check(rng: random.Random, n_max: int) -> str:
        for _ in range(trials):
            identity(draw(rng, n_max))
        return f"{trials} {detail}"

    return check


def _check_genus_arithmetic(rng: random.Random, n_max: int) -> str:
    trials = 80
    for _ in range(trials):
        h = random_collection(rng, n_max)
        # construction already asserts parity and nonnegativity
        _require(h.genus >= 0)
        ident = Permutation.identity(h.n)
        _require(orbit_count(h.sigma, ident) == h.sigma.cycle_count)
        _require(orbit_count(ident, h.alpha) == h.alpha.cycle_count)
    return f"{trials} random collections"


def _check_map_euler_genus(rng: random.Random, n_max: int) -> str:
    trials = 60
    for _ in range(trials):
        h = random_map(rng, n_max)
        _require(h.genus == oracles.map_euler_genus(h))
    return f"{trials} random maps"


def _check_relabel_invariance(rng: random.Random, n_max: int) -> str:
    """phi's memo is keyed by labels, so its answer must not depend on them."""
    trials = 40
    for _ in range(trials):
        h = random_collection(rng, n_max)
        g = h.relabel(random_permutation(rng, h.n))
        R = whitney_dp(h).polynomial
        _require(whitney_dp(g).polynomial == R)
        _require(whitney_phi(h).polynomial == R)
        _require(whitney_phi(g).polynomial == R)
    return f"{trials} relabelings, dp and phi"


def _check_refinement_counts(rng: random.Random, n_max: int) -> str:
    for m in range(1, 9):
        require_catalan_counts(m)
    return "cycle lengths 1..8 against Catalan numbers"


def _check_refinement_membership(rng: random.Random, n_max: int) -> str:
    checked = sum(map(require_refinement_membership, (
        Permutation.from_cycles(4, [(1, 2, 3, 4)]),
        Permutation.from_cycles(5, [(1, 2, 3, 4, 5)]),
        Permutation.from_cycles(5, [(1, 2, 3), (4, 5)]),
    )))
    return f"{checked} candidate permutations, exhaustive"


def _check_mobius(rng: random.Random, n_max: int) -> str:
    for m in range(1, 8):
        alpha = Permutation.from_cycles(m, [tuple(range(1, m + 1))])
        ident = Permutation.identity(m)
        value = mobius(ident, alpha)
        sign = 1 if (m - 1) % 2 == 0 else -1
        _require(value == sign * catalan(m - 1))
    intervals = 0
    for _ in range(20):
        intervals += require_mobius_recursion(
            random_collection(rng, min(n_max, 6), max_cycle=5).alpha)
    trials = 20
    for _ in range(trials):
        h = random_collection(rng, min(n_max, 7), max_cycle=4)
        betas = list(refinements(h.alpha))
        beta = betas[rng.randrange(len(betas))]
        prod = 1
        for c in h.alpha.cycles():
            sub_alpha = Permutation.from_cycles(h.n, [c])
            sub_beta_cycles = [bc for bc in beta.cycles() if bc[0] in set(c)]
            sub_beta = Permutation.from_cycles(h.n, sub_beta_cycles)
            prod *= mobius(sub_beta, sub_alpha)
        _require(prod == mobius(beta, h.alpha))
    return f"Catalans m<=7, recursion on {intervals} intervals, products x{trials}"


def _check_poly_roundtrip(rng: random.Random, n_max: int) -> str:
    trials = 40
    for _ in range(trials):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            terms[(rng.randint(0, 4), rng.randint(-2, 4))] = rng.randint(-9, 9)
        require_print_parse(BiPoly(terms))
        require_print_parse(
            UniPoly({rng.randint(-3, 5): rng.randint(-9, 9) for _ in range(4)}), "t")
    return f"{trials} random polynomials, print/parse/print"


def _check_poly_ring(rng: random.Random, n_max: int) -> str:
    trials = 30

    def rand_poly() -> BiPoly:
        return BiPoly(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5)
                for _ in range(rng.randint(0, 5))
            }
        )

    for _ in range(trials):
        require_ring_axioms(rand_poly(), rand_poly(), rand_poly())
    return f"{trials} random triples"


def _check_whitney_dp(rng: random.Random, n_max: int) -> str:
    trials = 60
    for _ in range(trials):
        h = random_collection(rng, n_max, max_cycle=min(n_max, 7))
        if rng.random() < 0.3:
            h = h.disjoint_union(random_collection(rng, max(1, n_max // 2)))
        require_routes_agree(h, (whitney_dp,))
    return f"{trials} collections and unions, dp == brute"


def _check_whitney_product(rng: random.Random, n_max: int) -> str:
    trials = 25
    for _ in range(trials):
        a = random_collection(rng, max(2, n_max // 2))
        b = random_collection(rng, max(2, n_max // 2))
        require_product(a, b, whitney_phi)
    return f"{trials} disjoint unions and merges"


def _check_map_subset_expansion(rng: random.Random, n_max: int) -> str:
    trials = 40
    for _ in range(trials):
        h = random_map(rng, n_max)
        nv, edges = oracles.underlying_graph(h)
        expected = oracles.graph_whitney_rank(nv, edges)
        _require(whitney_bruteforce(h).polynomial == expected)
    return f"{trials} maps against graph subset expansion"


def _check_narayana(rng: random.Random, n_max: int) -> str:
    for n in range(2, 8):
        require_narayana(n)
    return "identity sigma with full cycle, n = 2..7"


def _check_flow_chi_duality(rng: random.Random, n_max: int) -> str:
    trials = 25
    for _ in range(trials):
        h = random_planar_connected(rng, n_max)
        if rng.random() < 0.5:
            h = h.disjoint_union(random_planar_connected(rng, min(n_max, 4)))
        require_flow_chi_duality(h)
    return f"{trials} genus zero collections, C(h) == chi(dual h)"


def _check_valence_legality(rng: random.Random, n_max: int) -> str:
    trials = 10
    done = 0
    while done < trials:
        h = random_planar_connected(rng, 5)
        m = medial.medial_map(h)
        for coloring in oracles.eulerian_edge_colorings(m, 2):
            per_vertex = all(
                oracles.valence(vc, coloring) > 0 for vc in m.vertices()
            )
            exists = any(
                all(coloring[p] == coloring[mu[p]] for p in mu)
                for mu in oracles.coherent_matchings(m)
            )
            _require(per_vertex == exists)
        done += 1
    return f"{trials} instances, per-vertex valence vs global state"


CHECKS: List[Check] = [
    ("genus-arithmetic", _check_genus_arithmetic),
    ("map-euler-genus", _check_map_euler_genus),
    ("relabel-invariance", _check_relabel_invariance),
    ("refinement-catalan-counts", _check_refinement_counts),
    ("refinement-membership", _check_refinement_membership),
    ("mobius-recursion", _check_mobius),
    ("poly-print-parse", _check_poly_roundtrip),
    ("poly-ring-axioms", _check_poly_ring),
    ("whitney-three-routes", _each(
        60, random_collection,
        lambda h: require_routes_agree(h, (whitney_phi, whitney_psi)),
        "collections, brute == phi == psi")),
    ("whitney-frontier-dp", _check_whitney_dp),
    ("whitney-multiplicative", _check_whitney_product),
    ("planar-duality", _each(
        40, random_planar_connected, require_planar_duality, "genus zero duals")),
    ("map-subset-expansion", _check_map_subset_expansion),
    ("narayana-coefficients", _check_narayana),
    ("specializations", _each(
        40, random_collection, require_specializations,
        "collections: R(0,0), R(0,1), R(v^-1, v)")),
    ("wet-dry", _each(
        30, random_planar_connected, require_wet_dry,
        "genus zero instances, wet/dry == u^kappa R(u, v)")),
    ("medial-shape", _each(
        40, random_collection, require_medial_shape,
        "collections, shape and genus preserved")),
    ("matching-bijection", _each(
        25, lambda rng, n: random_collection(rng, min(n, 7), max_cycle=4),
        require_matching_bijection,
        "collections, matchings == refinements, circuit counts")),
    ("circuit-partition-polynomial", _each(
        25, lambda rng, n: random_planar_connected(rng, min(n, 7)),
        require_circuit_polynomial,
        "genus zero instances, j(x) == x^kappa R(x, x)")),
    ("map-state-count", _each(
        25, random_map, require_matching_bijection, "maps, 2^edges coherent states")),
    ("eulerian-coloring-sum", _each(
        10, lambda rng, n: random_planar_connected(rng, min(n, 6)),
        require_coloring_sum,
        "genus zero instances, m = 1, 2, 3 against m^kappa R(m, m)")),
    ("chromatic-identities", _each(
        25, lambda rng, n: random_collection(rng, min(n, 7), max_cycle=4),
        require_interval_sums, "collections, interval sums collapse")),
    ("flow-identity", _each(
        25, lambda rng, n: random_collection(rng, min(n, 7), max_cycle=4),
        require_flow_sum, "collections, flow sum collapses")),
    ("flow-planar-identity", _each(
        20, lambda rng, n: random_planar_connected(rng, min(n, 7)),
        require_flow_sum, "genus zero instances")),
    ("flow-chi-duality", _check_flow_chi_duality),
    ("map-charflow-oracles", _each(
        30, random_map, require_map_oracles,
        "maps against graph oracles and the R(-t, -1) route")),
    ("small-edge-theorems", _each(
        20, lambda rng, n: random_collection(rng, min(n, 6), max_cycle=3),
        lambda h: require_small_edge_counts(h, (2, 3)),
        "collections with hyperedges <= 3, m = q = 2, 3")),
    ("flow-space-dimension", _each(
        30, random_collection, lambda h: require_flow_space(h, (2, 3, 5)),
        "collections, q = 2, 3, 5")),
    ("digraph-roundtrip", _each(
        50, lambda rng, n: random_eulerian_digraph(rng), require_digraph_roundtrip,
        "Eulerian digraphs, medial round-trip")),
    ("valence-legality", _check_valence_legality),
]


def run_selftest(n_max: int = 7, seed: int = 0) -> List[CheckResult]:
    results = []
    for name, fn in CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            detail = fn(rng, n_max)
            results.append(CheckResult(name, True, detail))
        except (AssertionError, ValueError) as exc:
            # a failed identity, or a route's own check such as require_total
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
    return results
