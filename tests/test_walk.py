"""The depth-first refinement walk (``routes.refinement_walk``).

It serves the brute-force Whitney route, and is checked on one seeded
corpus against the definitional sum of ``oracles``, which builds a
``Permutation`` per refinement, and against the frontier DP, whose state
merging it exists to check, also on random class tables.  The walk counts
the moves of the last two points at the frame before them, and most
refinements are such leaves once a cycle is long, so it is also checked
against the DP at n = 9..12 and on inputs whose last point is the first,
whose second-to-last point is the first, whose last point opens only, or
closes a 2-cycle.  The same inputs check the level form of the DP, which
carries chi and X, against the Moebius sums.
"""

import math
import random
import subprocess
import sys

from hypermaps.charflow import characteristic_polynomial, flow_polynomial
from hypermaps.hypermap import Hypermap, dual, orbit_count
from hypermaps.nclattice import (
    catalan,
    refinement_count,
    refinement_profile,
    refinements,
)
from hypermaps.checks import x_interval
from hypermaps.oracles import whitney_refinement_sum, x_interval_sum
from hypermaps.perm import Permutation
from hypermaps.routes import refinement_walk
from hypermaps.selftest import (
    noncrossing_partition,
    random_bounded_cycles,
    random_permutation,
)
from hypermaps.whitney import whitney_bruteforce, whitney_dp
from test_frontier import SPECIAL, chi_definition, seeded_collections

CORPUS = SPECIAL + seeded_collections(1401, 1000)


def sized_instances(seed):
    """Four collections for each n in 9..12.

    gamma is a random n-cycle.  Genus zero by construction: alpha = gamma
    with sigma a random refinement of it, and alpha a random refinement of
    gamma with sigma = alpha gamma^-1.  Then a random sigma, once with
    alpha = gamma and once with alpha of cycles of at most 6 points.
    """
    rng = random.Random(seed)
    out = []
    for n in range(9, 13):
        points = rng.sample(range(1, n + 1), n)
        gamma = Permutation.from_cycles(n, [points])

        def refinement():
            blocks = noncrossing_partition(n, rng.randrange(catalan(n)))
            return Permutation.from_cycles(
                n, [[points[i] for i in b] for b in blocks])

        beta = refinement()
        out += [
            Hypermap(refinement(), gamma),
            Hypermap(beta * gamma.inverse(), beta),
            Hypermap(random_permutation(rng, n), gamma),
            Hypermap(random_permutation(rng, n), random_bounded_cycles(rng, n, 6)),
        ]
    return out


SIZED = sized_instances(1403)

EDGES = [
    Hypermap(Permutation.identity(0), Permutation.identity(0)),
    Hypermap(Permutation.identity(1), Permutation.identity(1)),
    Hypermap(Permutation.identity(2), Permutation.from_cycles(2, [[1, 2]])),
    Hypermap(Permutation.from_cycles(2, [[1, 2]]),
             Permutation.from_cycles(2, [[1, 2]])),
    Hypermap(Permutation.from_cycles(3, [[1, 2, 3]]), Permutation.identity(3)),
    Hypermap(Permutation.from_cycles(10, [[1, 4, 7], [2, 9]]),
             Permutation.identity(10)),
    Hypermap(Permutation.from_cycles(10, [[1, 3, 5, 7, 9]]),
             Permutation.from_cycles(10, [[2 * i - 1, 2 * i] for i in range(1, 6)])),
    Hypermap(Permutation.identity(12),
             Permutation.from_cycles(12, [[i, i + 6] for i in range(1, 7)])),
]


def test_corpus_reaches_every_kind_of_input():
    assert len(CORPUS) >= 1000 and max(h.n for h in CORPUS) <= 8
    assert any(h.n == 0 for h in CORPUS)
    assert sum(h.genus > 0 for h in CORPUS) > 100
    assert sum(h.kappa > 1 for h in CORPUS) > 100
    assert sum(any(len(c) == 1 for c in h.alpha.cycles()) for h in CORPUS) > 100


def test_bruteforce_equals_definition_and_dp():
    for h in CORPUS + EDGES:
        brute = whitney_bruteforce(h)
        assert brute.polynomial == whitney_refinement_sum(h), h
        assert brute.polynomial == whitney_dp(h).polynomial, h
        assert brute.stats.nodes == refinement_count(h.alpha)


def test_dp_level_form_equals_moebius_sum():
    # The genus-zero 12-cycle has 208,012 refinements, so it is checked
    # against the block form instead, as chi(h) == C(dual h).
    genus_zero_twelve = SIZED[12]
    assert (genus_zero_twelve.n, genus_zero_twelve.genus) == (12, 0)
    for h in CORPUS + SIZED + EDGES:
        if h is genus_zero_twelve:
            assert characteristic_polynomial(h) == flow_polynomial(dual(h))
        else:
            assert characteristic_polynomial(h) == chi_definition(h), h


def test_walk_equals_dp_on_any_classes():
    # class tables drawn per point, with fewer or more classes than alpha
    # has cycles and with unused class numbers, on alphas with fixed points
    rng = random.Random(1404)
    fewer = more = fixed = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        alpha = random_bounded_cycles(rng, n, rng.choice((2, 4, n)))
        k = rng.randint(1, n + 2)
        classes = [rng.randrange(k) for _ in range(n + 1)]
        walked = refinement_walk(alpha, classes)
        assert walked == refinement_profile(alpha, classes)[0], (alpha, classes)
        used = len(set(classes[1:]))
        fewer += used < alpha.cycle_count
        more += used > alpha.cycle_count
        fixed += any(len(c) == 1 for c in alpha.cycles())
    assert min(fewer, more, fixed) > 50, (fewer, more, fixed)


def test_sized_instances_reach_the_long_cycles():
    assert sorted({h.n for h in SIZED}) == [9, 10, 11, 12]
    for n in range(9, 13):
        genera = [h.genus for h in SIZED if h.n == n]
        assert genera[:2] == [0, 0] and max(genera) > 0, (n, genera)
    assert max(h.genus for h in SIZED) >= 3


def test_bruteforce_equals_dp_at_n_9_to_12():
    for h in SIZED:
        brute = whitney_bruteforce(h)
        assert brute.polynomial == whitney_dp(h).polynomial, h
        assert brute.polynomial.evaluate(1, 1) == refinement_count(h.alpha)


def test_walk_on_edge_inputs():
    # no point; one point, so the last point is point 0; two points on one
    # alpha-cycle, so the second-to-last point is point 0, under two sigmas;
    # an identity alpha, whose last point can only open; alphas made only of
    # 2-cycles
    assert [h.n for h in EDGES] == [0, 1, 2, 2, 3, 10, 10, 12]
    assert refinement_walk(EDGES[0].alpha, [0]) == {(0, 0): 1}
    assert refinement_walk(EDGES[1].alpha, [0, 0]) == {(1, 1): 1}
    pinned = [{(2, 2): 1, (1, 1): 1}, {(1, 2): 1, (1, 1): 1}]
    for h, walked in zip(EDGES[2:4], pinned):
        assert refinement_walk(h.alpha, h.sigma.cycle_labels()) == walked
    assert refinement_walk(EDGES[4].alpha, EDGES[4].sigma.cycle_labels()) == {(1, 3): 1}
    assert refinement_walk(EDGES[7].alpha, list(range(13))) == {
        (12 - j, 12 - j): math.comb(6, j) for j in range(7)}


def test_walk_on_many_fixed_points():
    # two refinements among 20,000 points: the tally spans only the pairs
    # (kappa, z) a refinement can reach, not every pair up to n
    n = 20_000
    h = Hypermap(Permutation.identity(n), Permutation.from_cycles(n, [[1, 2]]))
    assert refinement_walk(h.alpha, h.sigma.cycle_labels()) == {
        (n, n): 1, (n - 1, n - 1): 1}


def test_x_interval_equals_definition():
    rng = random.Random(1402)
    joined = 0  # draws whose alpha1 joins sigma-cycles into one orbit
    for h in CORPUS:
        alpha2 = rng.choice(list(refinements(h.alpha)))
        alpha1 = rng.choice(list(refinements(alpha2)))
        assert x_interval(h, alpha1, alpha2) == x_interval_sum(h, alpha1, alpha2), (
            h, alpha1, alpha2)
        joined += orbit_count(h.sigma, alpha1) < h.sigma.cycle_count
    assert joined > 100, joined


def test_walk_depth_is_not_bounded_by_recursion_limit():
    # 5,000 points read one by one, under a recursion limit of 100
    script = (
        "import random, sys\n"
        "from hypermaps.hypermap import Hypermap\n"
        "from hypermaps.perm import Permutation\n"
        "from hypermaps.selftest import random_permutation\n"
        "from hypermaps.whitney import whitney_bruteforce, whitney_dp\n"
        "rng = random.Random(5000)\n"
        "cycle = rng.sample(range(1, 5001), 8)\n"
        "h = Hypermap(random_permutation(rng, 5000),\n"
        "             Permutation.from_cycles(5000, [cycle]))\n"
        "sys.setrecursionlimit(100)\n"
        "brute = whitney_bruteforce(h).polynomial\n"
        "print(brute == whitney_dp(h).polynomial, brute.evaluate(1, 1))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, timeout=300)
    assert (r.returncode, r.stdout, r.stderr) == (0, "True 1430\n", "")
