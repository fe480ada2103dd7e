import random

import pytest

from builders import make
from hypermaps.medial import (
    EulerianDigraph,
    base,
    circuit_partition_polynomial,
    eulerian_coloring_sum,
    from_eulerian_digraph,
    medial_digraph,
    medial_map,
    minus,
    plus,
    signed_name,
)
from hypermaps.oracles import (
    circuits_of_state,
    digraph_isomorphic,
    eulerian_edge_colorings,
    eulerian_valence_sum,
    matching_refinement,
    valence,
    vertex_matchings,
)
from hypermaps.perm import Permutation
from hypermaps.poly import UniPoly
from hypermaps.selftest import (
    disjoint_union,
    is_map,
    random_collection,
    random_eulerian_digraph,
    random_map,
    require_circuit_polynomial,
    require_digraph_roundtrip,
    require_matching_bijection,
    require_medial_shape,
)


RUNNING = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
LOOKALIKE = make(6, [[1, 5], [2, 6]], [[1, 2, 3, 4], [5, 6]])


def test_signed_encoding():
    assert minus(3) == 5 and plus(3) == 6
    assert base(5) == 3 and base(6) == 3
    assert signed_name(5) == "3-" and signed_name(6) == "3+"


def test_medial_shape():
    require_medial_shape(RUNNING)


def test_medial_of_running_example():
    m = medial_map(RUNNING)
    assert m.vertices() == (
        (minus(1), plus(1), minus(2), plus(2), minus(3), plus(3)),
        (minus(4), plus(4), minus(5), plus(5)),
    )
    # alpha' pairs i+ with sigma(i)-
    pairs = {tuple(sorted(c)) for c in m.alpha_prime.cycles()}
    expected = {
        tuple(sorted((plus(i), minus(RUNNING.sigma(i))))) for i in range(1, 6)
    }
    assert pairs == expected


def test_source_round_trip():
    rng = random.Random(9)
    for _ in range(25):
        require_medial_shape(random_collection(rng, n_max=7))


def test_vertex_matchings_four_points():
    # a 4-point vertex (i- i+ j- j+) has exactly two matchings
    cycle = (minus(1), plus(1), minus(2), plus(2))
    ms = vertex_matchings(cycle)
    assert len(ms) == 2


def test_matching_count_equals_refinement_count():
    rng = random.Random(21)
    for _ in range(20):
        require_matching_bijection(random_collection(rng, n_max=7))


def test_matching_refinement_bijection():
    require_matching_bijection(LOOKALIKE)


def test_worked_matching_two_circuits():
    m = medial_map(LOOKALIKE)
    matching = {}
    for i, j in [(1, 2), (2, 3), (3, 1), (4, 4), (5, 5), (6, 6)]:
        matching[plus(i)] = minus(j)
        matching[minus(j)] = plus(i)
    beta = matching_refinement(m, matching)
    assert beta == Permutation.from_cycles(6, [[1, 2, 3]])
    circuits = circuits_of_state(m, matching)
    assert len(circuits) == 2
    faces = beta.inverse() * LOOKALIKE.sigma
    assert faces.cycles() == ((1, 5, 3, 2, 6), (4,))


def test_identity_matching_traces_faces():
    m = medial_map(RUNNING)
    matching = {}
    for i in range(1, 6):
        matching[plus(i)] = minus(RUNNING.alpha(i))
        matching[minus(RUNNING.alpha(i))] = plus(i)
    circuits = circuits_of_state(m, matching)
    assert len(circuits) == RUNNING.faces().cycle_count


def test_circuit_count_matches_face_formula():
    rng = random.Random(4)
    for _ in range(15):
        require_matching_bijection(random_collection(rng, n_max=6))


def test_circuit_partition_polynomial_golden():
    poly = circuit_partition_polynomial(RUNNING)
    assert poly == UniPoly.parse("2*x^3 + 5*x^2 + 3*x", var="x")


def test_circuit_partition_theorem_on_genus_zero():
    rng = random.Random(14)
    for _ in range(10):
        h = random_collection(rng, n_max=6)
        if h.genus == 0:
            require_circuit_polynomial(h)


def test_single_fixed_point_polynomial():
    h = make(1, [], [])
    assert circuit_partition_polynomial(h) == UniPoly({1: 1})


def test_map_state_count():
    # a map's medial has 2^edges coherent states
    require_matching_bijection(make(4, [[1, 2], [3, 4]], [[1, 3], [2, 4]]))


def bareiss_determinant(matrix):
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [list(row) for row in matrix]
    size, sign, pivot = len(a), 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // pivot
        pivot = a[k][k]
    return sign * a[-1][-1] if size else 1


def euler_circuit_count(d):
    """BEST theorem: t_w times the product of (outdeg - 1)! over vertices.

    t_w, the number of spanning arborescences oriented towards w, is the
    minor of L = D_out - A without w's row and column (loops cancel out of
    L).  Every medial vertex of a map has out-degree at most 2, so each
    factorial is 1.
    """
    index = {v: k for k, v in enumerate(d.vertices)}
    size = len(index)
    lap = [[0] * size for _ in range(size)]
    for t, head in d.edges:
        lap[index[t]][index[t]] += 1
        lap[index[t]][index[head]] -= 1
    return bareiss_determinant([row[1:] for row in lap[1:]])


def test_single_circuits_of_maps_are_euler_circuits():
    # j's coefficient of x counts the states with one circuit, which are the
    # Euler circuits of the directed medial graph
    disconnected = make(4, [[1, 2], [3, 4]], [[1, 2], [3, 4]])
    assert disconnected.kappa == 2
    assert 1 not in circuit_partition_polynomial(disconnected).terms
    assert euler_circuit_count(medial_digraph(disconnected)) == 0
    rng = random.Random(41)
    positive = 0
    while positive < 60:
        h = random_map(rng, 9)
        assert is_map(h)
        positive += h.genus > 0
        d = medial_digraph(h)
        assert max(sum(t == v for t, _ in d.edges) for v in d.vertices) <= 2
        single = circuit_partition_polynomial(h).terms.get(1, 0)
        assert single == euler_circuit_count(d), h


def test_eulerian_digraph_validation():
    d = EulerianDigraph(((1, 2), (2, 1)))
    assert d.is_eulerian
    bad = EulerianDigraph(((1, 2),))
    assert not bad.is_eulerian
    with pytest.raises(ValueError):
        from_eulerian_digraph(bad)


def test_from_eulerian_digraph_two_cycle():
    require_digraph_roundtrip(EulerianDigraph(((1, 2), (2, 1))))


def test_digraph_round_trip_randomized():
    rng = random.Random(8)
    for _ in range(20):
        require_digraph_roundtrip(random_eulerian_digraph(rng))


def test_digraph_isomorphic_negative():
    a = EulerianDigraph(((1, 2), (2, 1)))
    b = EulerianDigraph(((1, 1), (2, 2)))
    assert not digraph_isomorphic(a, b)


def test_valence_counts_same_color_matchings():
    cycle = (minus(1), plus(1), minus(2), plus(2))
    same = {p: 0 for p in cycle}
    split = {minus(1): 0, plus(1): 0, minus(2): 1, plus(2): 1}
    assert valence(cycle, same) == 2
    assert valence(cycle, split) == 1


def test_eulerian_colorings_filter():
    m = medial_map(RUNNING)
    colorings = list(eulerian_edge_colorings(m, 2))
    for lam in colorings:
        assert all(v > 0 for v in (valence(c, lam) for c in m.vertices()))
    assert len(colorings) > 0


def test_coloring_sum_golden():
    # 2^kappa R(2,2) = 2 * 21 = 42 on the running example
    assert eulerian_coloring_sum(RUNNING, 2) == 42
    # one color: every state survives, so the sum counts refinements
    assert eulerian_coloring_sum(RUNNING, 1) == 10


def monochromatic_vertex_count(m, coloring):
    return sum(1 for vc in m.vertices() if len({coloring[p] for p in vc}) <= 1)


def test_map_collapse_to_monochromatic_count():
    h = make(4, [[1, 2], [3, 4]], [[1, 3], [2, 4]])
    assert is_map(h) and h.genus == 0
    m = medial_map(h)
    total = 0
    for lam in eulerian_edge_colorings(m, 2):
        total += 2 ** monochromatic_vertex_count(m, lam)
    assert total == eulerian_valence_sum(h, 2) == eulerian_coloring_sum(h, 2)


def test_coloring_sum_rejects_positive_genus():
    torus = make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        eulerian_coloring_sum(torus, 2)


def test_coloring_sum_equals_valence_reference():
    # production reads j(m) off the frontier DP; the reference enumerates
    # m^n colorings and the matchings of every vertex for each of them
    rng = random.Random(33)
    cases = [make(0, [], []), make(3, [[1, 2]], []), make(4, [[1, 2]], [[2, 3]])]
    while len(cases) < 160:
        h = random_collection(rng, n_max=5, max_cycle=rng.choice((1, 2, 4)))
        if rng.random() < 0.3:
            h = disjoint_union(
                random_collection(rng, n_max=3), random_collection(rng, n_max=3)
            )
        if h.genus == 0:
            cases.append(h)
    assert sum(1 for h in cases if h.kappa > 1 and h.n > 3) >= 20
    assert sum(1 for h in cases if 1 in map(len, h.alpha.cycles())) >= 50
    for h in cases:
        for colors in (0, 1, 2, 3, 5):
            assert eulerian_coloring_sum(h, colors) == eulerian_valence_sum(h, colors)
