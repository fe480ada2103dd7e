import random
import time

import pytest

from builders import make, run_in_process
from hypermaps.charflow import characteristic_polynomial, flow_polynomial
from hypermaps.counting import nowhere_zero_flow_count, proper_coloring_count
from hypermaps.hypermap import Hypermap
from hypermaps.nclattice import refinements
from hypermaps.perm import Permutation
from hypermaps.poly import UniPoly
from hypermaps.checks import compatible_coloring_count, x_interval
from hypermaps.oracles import (
    compatible_coloring_enumeration,
    flow_space,
    is_flow,
    is_refinement,
    nowhere_zero_flow_enumeration,
    proper_coloring_enumeration,
    unique_nz_refinement,
    x_interval_sum,
)
from hypermaps.selftest import (
    random_bounded_cycles,
    random_collection,
    random_map,
    random_permutation,
    require_flow_space,
    require_flow_sum,
    require_interval_sums,
    require_small_edge_counts,
)


def test_characteristic_of_single_edge():
    h = make(2, [], [[1, 2]])
    assert characteristic_polynomial(h) == UniPoly.parse("t - 1", var="t")


def test_characteristic_of_four_cycle_lattice():
    # sigma trivial, alpha a 4-cycle: the NC(4) lattice characteristic
    h = make(4, [], [[1, 2, 3, 4]])
    want = UniPoly.parse("t^3 - 6*t^2 + 10*t - 5", var="t")
    assert characteristic_polynomial(h) == want


def test_four_cycle_coloring_discrepancy():
    """Four distinct vertices on one hyperedge admit no proper 2-coloring,
    while the characteristic polynomial evaluates to something nonzero, so
    the coloring interpretation genuinely needs hyperedges of length <= 3."""
    h = make(4, [], [[1, 2, 3, 4]])
    chi = characteristic_polynomial(h)
    assert proper_coloring_count(h, 2) == 0
    assert 2 ** h.kappa * chi.evaluate(2) == -2


def test_proper_colorings_of_triangle():
    # triangle map: three vertices pairwise joined
    h = make(6, [[1, 6], [2, 3], [4, 5]], [[1, 2], [3, 4], [5, 6]])
    assert h.is_map
    assert proper_coloring_count(h, 3) == 6
    assert proper_coloring_count(h, 2) == 0
    chi = characteristic_polynomial(h)
    for m in (2, 3, 4):
        assert m ** h.kappa * chi.evaluate(m) == proper_coloring_count(h, m)


def test_hyperedge_revisiting_vertex_kills_colorings():
    # both points of the edge sit on the same vertex (a loop)
    h = make(2, [[1, 2]], [[1, 2]])
    assert proper_coloring_count(h, 5) == 0


def test_three_point_hyperedge_coloring_theorem():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    chi = characteristic_polynomial(h)
    for m in (2, 3, 5):
        assert m ** h.kappa * chi.evaluate(m) == proper_coloring_count(h, m)


@pytest.fixture(scope="module")
def coloring_corpus():
    rng = random.Random(1515)
    cases = [make(0, [], []), make(5, [[1, 2], [3, 4, 5]], [])]
    for _ in range(600):
        n = rng.randint(0, 8)
        cases.append(Hypermap(random_permutation(rng, n),
                              random_bounded_cycles(rng, n, 4)))
    for _ in range(150):  # the hyperedge graph falls apart
        cases.append(random_collection(rng, n_max=4).disjoint_union(
            random_collection(rng, n_max=4)))
    for _ in range(150):  # many vertices, alpha mostly buds
        n = rng.randint(1, 8)
        edge = rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))
        cases.append(Hypermap(random_bounded_cycles(rng, n, 2),
                              Permutation.from_cycles(n, [edge])))
    for _ in range(300):  # hyperedges up to length 8, on few or many vertices
        n = rng.randint(1, 8)
        sigma = random_bounded_cycles(rng, n, rng.choice((1, 2, 8)))
        cases.append(Hypermap(sigma, random_bounded_cycles(rng, n, 8)))
    for _ in range(150):  # maps, with loops and parallel edges
        cases.append(random_map(rng, n_max=8))
    return cases


def test_proper_colorings_match_the_listed_definition(coloring_corpus):
    cases = coloring_corpus
    seen = set()
    for h in cases:
        vertex_of = h.sigma.cycle_labels()
        pairs = [tuple(sorted(vertex_of[p] for p in c))
                 for c in h.alpha.cycles() if len(c) == 2]
        if len(set(pairs)) < len(pairs):
            seen.add("parallel")
        for c in h.alpha.cycles():
            met = {vertex_of[p] for p in c}
            seen.add("bud" if len(c) == 1 else "loop" if len(met) < len(c) else "edge")
            if len(c) == 8:
                seen.add("length 8")
            if len(met) == len(c) > 4:  # more vertices than colors
                seen.add("long edge")
        for m in range(5):
            assert proper_coloring_count(h, m) == proper_coloring_enumeration(h, m), (
                h.sigma.cycles(), h.alpha.cycles(), m)
    assert seen == {"bud", "loop", "edge", "parallel", "length 8", "long edge"}
    # the components of the hyperedge graph are the orbits of <sigma, alpha>
    assert sum(h.kappa > 1 for h in cases) > 300
    bud_vertices = [
        sum(all(h.alpha(p) == p for p in c) for c in h.sigma.cycles()) for h in cases
    ]
    assert sum(b >= 3 for b in bud_vertices) > 50
    # many vertices, one color: the only coloring, or none once an edge joins two
    for alpha, count in (([], 1), ([[2999, 3000]], 0)):
        h = make(3000, [], alpha)
        assert proper_coloring_count(h, 1) == proper_coloring_enumeration(h, 1) == count


def test_compatible_colorings_match_the_listed_definition(coloring_corpus):
    rng = random.Random(1516)
    nonzero = 0
    for h in coloring_corpus:
        alpha1 = rng.choice(list(refinements(h.alpha)))
        for m in range(4):
            count = compatible_coloring_count(h, alpha1, m)
            assert count == compatible_coloring_enumeration(h, alpha1, m), (
                h.sigma.cycles(), h.alpha.cycles(), alpha1.cycles(), m)
            nonzero += count > 0
    assert nonzero > 1000


def test_nowhere_zero_flows_match_the_listed_definition(coloring_corpus):
    nonzero = 0
    for h in coloring_corpus:
        for q in (2, 3, 5):
            count = nowhere_zero_flow_count(h, q)
            assert count == nowhere_zero_flow_enumeration(h, q), (
                h.sigma.cycles(), h.alpha.cycles(), q)
            nonzero += count > 0
    assert nonzero > 1000


def test_isolated_vertices_multiply_the_count():
    # 20 buds, each its own vertex: 3^20 colorings, one factor per component
    h = make(20, [], [])
    start = time.perf_counter()
    assert proper_coloring_count(h, 3) == 3 ** 20 == 3486784401
    assert time.perf_counter() - start < 1.0
    # 30,000 buds and a 64-bit m: one power of 577,978 digits, not 30,000
    # multiplications into a growing product
    n, m = 30000, 18446744073709551557
    h = make(n, [], [])
    want = m ** n
    start = time.perf_counter()
    assert proper_coloring_count(h, m) == want
    assert time.perf_counter() - start < 1.0
    # two disjoint triangles and a bud: 6 * 6 * 3 colorings with 3 colors
    triangles = make(12, [[1, 6], [2, 3], [4, 5], [7, 12], [8, 9], [10, 11]],
                     [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]])
    h = triangles.disjoint_union(make(1, [], []))
    assert proper_coloring_count(h, 3) == 6 * 6 * 3
    assert proper_coloring_count(h, 2) == 0


def test_x_interval_top_equals_shifted_characteristic():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    chi = characteristic_polynomial(h)
    shifted = UniPoly({e + h.kappa: c for e, c in chi.terms.items()})
    assert shifted == x_interval(h, Permutation.identity(5), h.alpha)


def test_x_interval_sum_collapses():
    require_interval_sums(make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]]))


def test_x_interval_argument_validation():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    astray = Permutation.from_cycles(5, [[1, 4]])
    with pytest.raises(ValueError):
        x_interval(h, Permutation.identity(5), astray)
    beta = Permutation.from_cycles(5, [[1, 2]])
    gamma = Permutation.from_cycles(5, [[2, 3]])
    with pytest.raises(ValueError):
        x_interval(h, beta, gamma)


def test_flow_sum_collapses():
    rng = random.Random(6)
    for _ in range(8):
        require_flow_sum(random_collection(rng, 6, max_cycle=4))


def test_flow_polynomial_evaluates_to_nz_count():
    # all hyperedges of length <= 3
    require_small_edge_counts(make(4, [[1, 3], [2, 4]], [[1, 2], [3, 4]]), (2, 3, 5))


def test_nowhere_zero_flows_of_k4_over_gf5(monkeypatch):
    # C(K4; t) = (t - 1)(t - 2)(t - 3), so 4 * 3 * 2 flows at q = 5
    doc = ("sigma: (1 3 5)(2 7 9)(4 8 11)(6 10 12)\n"
           "alpha: (1 2)(3 4)(5 6)(7 8)(9 10)(11 12)\n")
    argv = ["flows", "--q=5", "--nowhere-zero"]
    assert run_in_process(argv, doc, monkeypatch) == (0, "24\n", "")


def test_flow_space_dimension_and_membership():
    h = make(4, [[1, 3], [2, 4]], [[1, 2], [3, 4]])
    assert flow_space(h, 3).dimension == 1
    require_flow_space(h, (3,))


def test_flow_space_rejects_composite_modulus():
    h = make(2, [], [[1, 2]])
    with pytest.raises(ValueError):
        flow_space(h, 4)
    with pytest.raises(ValueError):
        flow_space(h, 1)
    for q in range(-3, 2000):
        prime = q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))
        if prime:
            assert flow_space(h, q).q == q
        else:
            with pytest.raises(ValueError):
                flow_space(h, q)
    # strong pseudoprimes to the first bases, Carmichael numbers, and a
    # product of two primes just below 2^32
    for q in (2047, 1373653, 3215031751, 561, 41041, 4294967291 * 4294967279):
        with pytest.raises(ValueError, match="prime"):
            flow_space(h, q)
    for q in (10 ** 18 + 3, 2 ** 61 - 1, 18446744073709551557):  # primes < 2^64
        assert flow_space(h, q).q == q
    with pytest.raises(ValueError, match="2\\^64"):
        flow_space(h, 2 ** 64 + 13)


def test_buds_exempt_from_nowhere_zero():
    # alpha fixed points carry forced zeros but do not disqualify the flow
    h = make(2, [[1, 2]], [])
    assert nowhere_zero_flow_count(h, 3) == 1
    assert flow_polynomial(h).evaluate(3) == 1


def test_lone_point_at_a_vertex_admits_no_nowhere_zero_flow():
    # sigma fixes 1, and 5 is a bud beside 1: either way one point that is
    # not a bud is the only edge at its vertex, a bridge
    for h in (make(4, [[2, 3, 4]], [[1, 2], [3, 4]]),
              make(5, [[1, 5], [2, 3, 4]], [[1, 2], [3, 4]])):
        for q in (2, 3, 5):
            assert nowhere_zero_flow_count(h, q) == 0
            assert nowhere_zero_flow_enumeration(h, q) == 0
    # 40 points, hyperedges of 2-4 points: the frontier DP takes seconds on
    # this incidence graph, so the bridge must answer first
    rng = random.Random(0)
    points = list(range(1, 41))
    rng.shuffle(points)
    cycles = []
    while points:
        k = rng.randint(2, 4) if len(points) > 5 else len(points)
        cycles.append(points[:k])
        points = points[k:]
    images = list(range(2, 41))
    rng.shuffle(images)
    h = Hypermap(Permutation([1] + images), Permutation.from_cycles(40, cycles))
    started = time.perf_counter()
    assert nowhere_zero_flow_count(h, 3) == 0
    assert time.perf_counter() - started < 0.05


def test_unique_refinement_for_short_hyperedges():
    h = make(4, [[1, 3], [2, 4]], [[1, 2], [3, 4]])
    zero = (0, 0, 0, 0)
    beta = unique_nz_refinement(h, zero, 3)
    assert beta == Permutation.identity(4)
    nz = (1, 2, 2, 1)
    assert is_flow(h, nz, 3)
    assert unique_nz_refinement(h, nz, 3) == h.alpha


def test_unique_refinement_of_every_flow():
    """For hyperedges of length <= 3 and every flow f over GF(2) and GF(3),
    the returned beta refines alpha, keeps f a flow on (sigma, beta) and
    fixes every point where f vanishes."""
    rng = random.Random(41)
    flows = 0
    for _ in range(120):
        h = random_collection(rng, n_max=8, max_cycle=3)
        for q in (2, 3):
            for f in flow_space(h, q).vectors():
                beta = unique_nz_refinement(h, f, q)
                assert is_refinement(beta, h.alpha)
                assert is_flow(Hypermap(h.sigma, beta), f, q)
                assert all(beta(i) == i for i in range(1, h.n + 1) if f[i - 1] == 0)
                flows += 1
    assert flows > 1000


def test_unique_refinement_rejects_long_hyperedges():
    h = make(4, [], [[1, 2, 3, 4]])
    with pytest.raises(ValueError):
        unique_nz_refinement(h, (0, 0, 0, 0), 3)


def test_unique_refinement_rejects_non_flows():
    h = make(4, [[1, 3], [2, 4]], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        unique_nz_refinement(h, (1, 1, 1, 1), 3)


SEVEN = make(8, [[1, 5], [2, 6], [3, 7], [4, 8]], [[1, 2, 3, 4], [5, 6], [7, 8]])


def test_alternating_flow_instance():
    """All-ones over GF(2): a nowhere-zero flow living on three different
    refinements at once, so uniqueness needs the length <= 3 hypothesis."""
    f = (1,) * 8
    assert is_flow(SEVEN, f, 2)
    assert all(x != 0 for x in f)
    beta1 = Permutation.from_cycles(8, [[1, 2], [3, 4], [5, 6], [7, 8]])
    beta2 = Permutation.from_cycles(8, [[1, 4], [2, 3], [5, 6], [7, 8]])
    for beta in (beta1, beta2):
        assert is_refinement(beta, SEVEN.alpha)
        assert is_flow(Hypermap(SEVEN.sigma, beta), f, 2)


def test_alternating_instance_dimension():
    space = flow_space(SEVEN, 3)
    assert space.dimension == 2
    assert space.count() == 9


def test_compatible_colorings():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    # alpha1 = alpha: all vertices on a hyperedge share a color
    assert compatible_coloring_count(h, h.alpha, 3) > 0
    # alpha1 = identity: plain proper colorings
    assert compatible_coloring_count(
        h, Permutation.identity(5), 3
    ) == proper_coloring_count(h, 3)


def test_compatible_colorings_can_vanish():
    h = make(6, [[1, 2], [3, 4], [5, 6]], [[2, 3], [4, 5], [1, 6]])
    alpha1 = Permutation.from_cycles(6, [[2, 3], [4, 5]])
    assert compatible_coloring_count(h, alpha1, 3) == 0


def test_compatible_colorings_validates_refinement():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    bad = Permutation.from_cycles(5, [[1, 4]])
    with pytest.raises(ValueError):
        compatible_coloring_count(h, bad, 3)


def test_x_interval_matches_direct_interval_sum():
    rng = random.Random(808)
    for _ in range(120):
        h = random_collection(rng, n_max=7, max_cycle=5)
        betas = list(refinements(h.alpha))
        alpha2 = rng.choice(betas)
        alpha1 = rng.choice([b for b in betas if is_refinement(b, alpha2)])
        assert x_interval(h, alpha1, alpha2) == x_interval_sum(h, alpha1, alpha2)
