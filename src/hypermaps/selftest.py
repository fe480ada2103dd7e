"""Seeded self-checks behind the ``hypermap selftest`` subcommand.

Every identity promised by the library is exercised here on a reproducible
random corpus: genus arithmetic, refinement/Moebius structure, polynomial
round-trips, the four Whitney routes, duality and specializations, medial
state sums, coloring and flow identities.  All randomness flows through one
``random.Random(seed)`` instance, so output is byte for byte reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, List, NamedTuple, Tuple

from . import charflow, medial, oracles
from .hypermap import Hypermap, dual, merge_components, orbit_count
from .nclattice import (
    catalan,
    is_refinement,
    mobius,
    noncrossing_partitions,
    refinement_count,
    refinements,
)
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


def _require(condition: bool, message: str = "") -> None:
    """Fail the running check; unlike ``assert``, this also runs under -O."""
    if not condition:
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


Check = Tuple[str, Callable[[random.Random, int], str]]


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
        _require(len(noncrossing_partitions(m)) == catalan(m))
        alpha = Permutation.from_cycles(m, [tuple(range(1, m + 1))])
        _require(sum(1 for _ in refinements(alpha)) == catalan(m))
    return "cycle lengths 1..8 against Catalan numbers"


def _check_refinement_membership(rng: random.Random, n_max: int) -> str:
    from itertools import permutations as all_perms

    checked = 0
    for alpha in (
        Permutation.from_cycles(4, [(1, 2, 3, 4)]),
        Permutation.from_cycles(5, [(1, 2, 3, 4, 5)]),
        Permutation.from_cycles(5, [(1, 2, 3), (4, 5)]),
    ):
        listed = {p.image for p in refinements(alpha)}
        for images in all_perms(range(1, alpha.n + 1)):
            beta = Permutation(images)
            _require((beta.image in listed) == is_refinement(beta, alpha))
            checked += 1
    return f"{checked} candidate permutations, exhaustive"


def _check_mobius(rng: random.Random, n_max: int) -> str:
    for m in range(1, 8):
        alpha = Permutation.from_cycles(m, [tuple(range(1, m + 1))])
        ident = Permutation.identity(m)
        value = mobius(ident, alpha)
        sign = 1 if (m - 1) % 2 == 0 else -1
        _require(value == sign * catalan(m - 1))
    # The defining recursion, which pins mu: sum of mu(beta, gamma) over
    # gamma in [beta, delta] is 1 when beta = delta and 0 otherwise.
    intervals = 0
    for _ in range(20):
        h = random_collection(rng, min(n_max, 6), max_cycle=5)
        elems = list(refinements(h.alpha))
        leq = [[is_refinement(b, d) for d in elems] for b in elems]
        for i, beta in enumerate(elems):
            mu = [mobius(beta, g) if leq[i][k] else 0 for k, g in enumerate(elems)]
            for j in range(len(elems)):
                if leq[i][j]:
                    total = sum(mu[k] for k in range(len(elems)) if leq[k][j])
                    _require(total == (1 if i == j else 0), "mu breaks its recursion")
                    intervals += 1
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
        p = BiPoly(terms)
        _require(BiPoly.parse(str(p)) == p)
        q = UniPoly({rng.randint(-3, 5): rng.randint(-9, 9) for _ in range(4)})
        _require(UniPoly.parse(q.to_string("t"), "t") == q)
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
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        _require(a + b == b + a)
        _require(a * b == b * a)
        _require(a * (b + c) == a * b + a * c)
        _require((a * b).evaluate(2, -3) == a.evaluate(2, -3) * b.evaluate(2, -3))
    return f"{trials} random triples"


def _check_whitney_routes(rng: random.Random, n_max: int) -> str:
    trials = 60
    for _ in range(trials):
        h = random_collection(rng, n_max)
        brute = whitney_bruteforce(h).polynomial
        _require(whitney_phi(h).polynomial == brute)
        _require(whitney_psi(h).polynomial == brute)
    return f"{trials} collections, brute == phi == psi"


def _check_whitney_dp(rng: random.Random, n_max: int) -> str:
    trials = 60
    for _ in range(trials):
        h = random_collection(rng, n_max, max_cycle=min(n_max, 7))
        if rng.random() < 0.3:
            h = h.disjoint_union(random_collection(rng, max(1, n_max // 2)))
        _require(whitney_dp(h).polynomial == whitney_bruteforce(h).polynomial)
    return f"{trials} collections and unions, dp == brute"


def _check_whitney_product(rng: random.Random, n_max: int) -> str:
    trials = 25
    for _ in range(trials):
        a = random_collection(rng, max(2, n_max // 2))
        b = random_collection(rng, max(2, n_max // 2))
        un = a.disjoint_union(b)
        lhs = whitney_phi(un).polynomial
        rhs = whitney_phi(a).polynomial * whitney_phi(b).polynomial
        _require(lhs == rhs)
        if un.kappa > 1:
            comps = un.components()
            merged = merge_components(un, comps[0][0], comps[1][0])
            _require(whitney_phi(merged).polynomial == lhs)
    return f"{trials} disjoint unions and merges"


def _check_planar_duality(rng: random.Random, n_max: int) -> str:
    trials = 40
    for _ in range(trials):
        h = random_planar_connected(rng, n_max)
        d = dual(h)
        _require(d.genus == 0)
        swapped = whitney_phi(h).polynomial.swap_variables()
        _require(whitney_phi(d).polynomial == swapped)
    return f"{trials} genus zero duals"


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
        h = Hypermap(
            Permutation.identity(n),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
        )
        poly = whitney_phi(h).polynomial
        _require(all(ev == 0 for (_, ev) in poly.terms))
        for k in range(1, n + 1):
            _require(poly.coefficient(k - 1, 0) == oracles.narayana(n, k))
        d = dual(h)
        dpoly = whitney_phi(d).polynomial
        _require(dpoly == poly.swap_variables())
    return "identity sigma with full cycle, n = 2..7"


def _check_specializations(rng: random.Random, n_max: int) -> str:
    trials = 40
    for _ in range(trials):
        h = random_collection(rng, n_max)
        poly = whitney_bruteforce(h).polynomial
        counts = specializations(h, poly)
        forests = 0
        spanning = 0
        hyper = {}
        for beta in refinements(h.alpha):
            sub = Hypermap(h.sigma, beta)
            if sub.kappa == h.kappa:
                spanning += 1
                if sub.genus == 0 and sub.faces().cycle_count == sub.kappa:
                    forests += 1
            e = h.n + h.kappa - beta.cycle_count - h.sigma.cycle_count
            hyper[e] = hyper.get(e, 0) + 1
        _require(counts.spanning_hyperforests == forests)
        _require(counts.spanning_collections == spanning)
        _require(counts.hyperbola == UniPoly(hyper))
    return f"{trials} collections: R(0,0), R(0,1), R(v^-1, v)"


def _check_wet_dry(rng: random.Random, n_max: int) -> str:
    trials = 30
    for _ in range(trials):
        h = random_planar_connected(rng, n_max)
        wet_dry = wet_dry_polynomial(h)
        expected = BiPoly.monomial(1, h.kappa, 0) * whitney_phi(h).polynomial
        _require(wet_dry == expected, "wet/dry disagrees with u^kappa R")
        # The definition, summed over the refinements:
        # u^kappa(sigma, beta) v^(z(beta^-1 sigma) - kappa(sigma, beta)).
        terms: dict = {}
        for beta in refinements(h.alpha):
            kb = orbit_count(h.sigma, beta)
            e = (kb, (beta.inverse() * h.sigma).cycle_count - kb)
            terms[e] = terms.get(e, 0) + 1
        _require(wet_dry == BiPoly(terms), "wet/dry disagrees with its definition")
    return f"{trials} genus zero instances, wet/dry == u^kappa R(u, v)"


def _check_medial_shape(rng: random.Random, n_max: int) -> str:
    trials = 40
    for _ in range(trials):
        h = random_collection(rng, n_max)
        m = medial.medial_map(h)
        _require(m.genus == h.genus)
        _require(m.sigma_prime.cycle_count == h.alpha.cycle_count)
        _require(m.alpha_prime.cycle_count == h.n)
        _require(medial.source_hypermap(m) == h)
    return f"{trials} collections, shape and genus preserved"


def _check_matching_bijection(rng: random.Random, n_max: int) -> str:
    trials = 25
    for _ in range(trials):
        h = random_collection(rng, min(n_max, 7), max_cycle=4)
        m = medial.medial_map(h)
        betas = sorted(b.image for b in refinements(h.alpha))
        matched = []
        for mu in oracles.coherent_matchings(m):
            beta = oracles.matching_refinement(m, mu)
            circuits = oracles.circuits_of_state(m, mu)
            _require(len(circuits) == (beta.inverse() * h.sigma).cycle_count)
            matched.append(beta.image)
        _require(betas == sorted(matched))
    return f"{trials} collections, matchings == refinements, circuit counts"


def _check_circuit_polynomial(rng: random.Random, n_max: int) -> str:
    trials = 25
    for _ in range(trials):
        h = random_planar_connected(rng, min(n_max, 7))
        j = medial.circuit_partition_polynomial(h)
        r = whitney_bruteforce(h).polynomial
        expected = UniPoly.zero()
        for (eu, ev), c in r.terms.items():
            # x^kappa R(x, x) collects exponents kappa + eu + ev
            e = h.kappa + eu + ev
            expected = expected + UniPoly.monomial(c, e)
        _require(j == expected)
        _require(oracles.circuit_state_sum(medial.medial_map(h)) == expected)
    return f"{trials} genus zero instances, j(x) == x^kappa R(x, x)"


def _check_map_states(rng: random.Random, n_max: int) -> str:
    trials = 25
    for _ in range(trials):
        h = random_map(rng, n_max)
        m = medial.medial_map(h)
        edges = sum(1 for c in h.alpha.cycles() if len(c) == 2)
        states = sum(1 for _ in oracles.coherent_matchings(m))
        _require(refinement_count(h.alpha) == states == 2 ** edges)
    return f"{trials} maps, 2^edges coherent states"


def _check_coloring_sum(rng: random.Random, n_max: int) -> str:
    trials = 10
    for _ in range(trials):
        h = random_planar_connected(rng, min(n_max, 6))
        r = whitney_phi(h).polynomial
        for colors in (1, 2, 3):
            total = oracles.eulerian_valence_sum(h, colors)
            _require(total == colors ** h.kappa * r.evaluate(colors, colors))
            _require(total == medial.eulerian_coloring_sum(h, colors))
    return f"{trials} genus zero instances, m = 1, 2, 3 against m^kappa R(m, m)"


def _check_chromatic_identities(rng: random.Random, n_max: int) -> str:
    trials = 25
    for _ in range(trials):
        h = random_collection(rng, min(n_max, 7), max_cycle=4)
        total = UniPoly.zero()
        for beta in refinements(h.alpha):
            total = total + charflow.x_interval(h, beta, h.alpha)
        _require(total == UniPoly.monomial(1, h.sigma.cycle_count))
        chi = charflow.characteristic_polynomial(h)
        shifted = UniPoly(
            {e + h.kappa: c for e, c in chi.terms.items()}
        )
        ident = Permutation.identity(h.n)
        _require(shifted == charflow.x_interval(h, ident, h.alpha))
    return f"{trials} collections, interval sums collapse"


def _check_flow_identities(rng: random.Random, n_max: int) -> str:
    trials = 25
    for _ in range(trials):
        h = random_collection(rng, min(n_max, 7), max_cycle=4)
        total = UniPoly.zero()
        for beta in refinements(h.alpha):
            total = total + charflow.flow_polynomial(Hypermap(h.sigma, beta))
        e = h.n + h.kappa - h.alpha.cycle_count - h.sigma.cycle_count
        _require(total == UniPoly.monomial(1, e))
    return f"{trials} collections, flow sum collapses"


def _check_flow_planar(rng: random.Random, n_max: int) -> str:
    trials = 20
    for _ in range(trials):
        h = random_planar_connected(rng, min(n_max, 7))
        total = UniPoly.zero()
        x = UniPoly.variable()
        for beta in refinements(h.alpha):
            total = total + x * charflow.flow_polynomial(Hypermap(h.sigma, beta))
        _require(total == UniPoly.monomial(1, h.faces().cycle_count))
    return f"{trials} genus zero instances"


def _check_flow_chi_duality(rng: random.Random, n_max: int) -> str:
    # The block and the level form of the frontier DP, against each other.
    trials = 25
    for _ in range(trials):
        h = random_planar_connected(rng, n_max)
        if rng.random() < 0.5:
            h = h.disjoint_union(random_planar_connected(rng, min(n_max, 4)))
        flow = charflow.flow_polynomial(h)
        chi = charflow.characteristic_polynomial(dual(h))
        _require(flow == chi, "C(h) differs from chi(dual h)")
    return f"{trials} genus zero collections, C(h) == chi(dual h)"


def _check_map_charflow_oracles(rng: random.Random, n_max: int) -> str:
    trials = 30
    for _ in range(trials):
        h = random_map(rng, n_max)
        nv, edges = oracles.underlying_graph(h)
        chi = charflow.characteristic_polynomial(h)
        _require(chi == oracles.graph_characteristic(nv, edges))
        flow = charflow.flow_polynomial(h)
        _require(flow == oracles.graph_flow_polynomial(nv, edges))
        r = whitney_bruteforce(h).polynomial
        sign = -1 if (h.sigma.cycle_count - h.kappa) % 2 else 1
        via_r = r.substitute_v(-1).flip_variable().scalar_multiply(sign)
        _require(via_r == chi)
    return f"{trials} maps against graph oracles and the R(-t, -1) route"


def _check_small_edge_theorems(rng: random.Random, n_max: int) -> str:
    trials = 20
    for _ in range(trials):
        h = random_collection(rng, min(n_max, 6), max_cycle=3)
        chi = charflow.characteristic_polynomial(h)
        flow = charflow.flow_polynomial(h)
        for colors in (2, 3):
            lhs = colors ** h.kappa * chi.evaluate(colors)
            _require(lhs == charflow.proper_coloring_count(h, colors)
                     == oracles.proper_coloring_enumeration(h, colors))
            nz = charflow.nowhere_zero_flow_count(h, colors)
            _require(flow.evaluate(colors) == nz
                     == oracles.nowhere_zero_flow_enumeration(h, colors))
    return f"{trials} collections with hyperedges <= 3, m = q = 2, 3"


def _check_flow_space(rng: random.Random, n_max: int) -> str:
    trials = 30
    for _ in range(trials):
        h = random_collection(rng, n_max)
        for q in (2, 3, 5):
            space = charflow.flow_space(h, q)
            expected = (
                h.n + h.kappa - h.sigma.cycle_count - h.alpha.cycle_count
            )
            _require(space.dimension == expected)
            vecs = list(space.vectors())
            _require(len(set(vecs)) == q ** space.dimension)
            for vec in vecs[:8]:
                _require(charflow.is_flow(h, vec, q))
    return f"{trials} collections, q = 2, 3, 5"


def _check_digraph_roundtrip(rng: random.Random, n_max: int) -> str:
    trials = 50
    for _ in range(trials):
        d = random_eulerian_digraph(rng)
        h = medial.from_eulerian_digraph(d)
        back = medial.medial_digraph(h)
        _require(oracles.digraph_isomorphic(d, back))
        _require(h.n == len(d.edges))
    return f"{trials} Eulerian digraphs, medial round-trip"


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
    ("whitney-three-routes", _check_whitney_routes),
    ("whitney-frontier-dp", _check_whitney_dp),
    ("whitney-multiplicative", _check_whitney_product),
    ("planar-duality", _check_planar_duality),
    ("map-subset-expansion", _check_map_subset_expansion),
    ("narayana-coefficients", _check_narayana),
    ("specializations", _check_specializations),
    ("wet-dry", _check_wet_dry),
    ("medial-shape", _check_medial_shape),
    ("matching-bijection", _check_matching_bijection),
    ("circuit-partition-polynomial", _check_circuit_polynomial),
    ("map-state-count", _check_map_states),
    ("eulerian-coloring-sum", _check_coloring_sum),
    ("chromatic-identities", _check_chromatic_identities),
    ("flow-identity", _check_flow_identities),
    ("flow-planar-identity", _check_flow_planar),
    ("flow-chi-duality", _check_flow_chi_duality),
    ("map-charflow-oracles", _check_map_charflow_oracles),
    ("small-edge-theorems", _check_small_edge_theorems),
    ("flow-space-dimension", _check_flow_space),
    ("digraph-roundtrip", _check_digraph_roundtrip),
    ("valence-legality", _check_valence_legality),
]


def run_selftest(n_max: int = 7, seed: int = 0) -> List[CheckResult]:
    results = []
    for name, fn in CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            detail = fn(rng, n_max)
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
    return results
