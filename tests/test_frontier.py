"""The frontier DP over the noncrossing stack (``refinement_profile``).

Every invariant it serves is checked against its definition as a sum over
the refinement stream: R against brute force, chi and the flow polynomial
C(t) against their Moebius sums, the circuit partition polynomial against
the listed medial state sum.  At genus zero, C(h) = chi(dual h) checks the
two weighted forms of the DP against each other.
"""

import json
import random
import subprocess
import sys

import pytest

from hypermaps.charflow import characteristic_polynomial, flow_polynomial
from hypermaps.hypermap import Hypermap, dual, orbit_count
from hypermaps.medial import circuit_partition_polynomial, medial_map
from hypermaps.nclattice import (
    catalan,
    mobius_of_cycles,
    refinement_profile,
    refinement_sum,
)
from hypermaps.oracles import circuit_state_sum, narayana
from hypermaps.perm import Permutation
from hypermaps.poly import BiPoly, UniPoly
from hypermaps.selftest import (
    random_collection,
    random_permutation,
    random_planar_connected,
    require_circuit_polynomial,
    require_flow_chi_duality,
    require_routes_agree,
    require_wet_dry,
)
from hypermaps.whitney import (
    InstanceTooLarge,
    wet_dry_polynomial,
    whitney_dp,
)


def make(n, sigma_cycles, alpha_cycles):
    return Hypermap(
        Permutation.from_cycles(n, sigma_cycles),
        Permutation.from_cycles(n, alpha_cycles),
    )


def seeded_collections(seed, count):
    """Random collections with n <= 8, some of them disjoint unions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        h = random_collection(rng, n_max=8, max_cycle=rng.choice((2, 4, 8)))
        if rng.random() < 0.25:
            h = random_collection(rng, n_max=4).disjoint_union(
                random_collection(rng, n_max=4)
            )
        out.append(h)
    return out


def chi_definition(h):
    def term(beta):
        return orbit_count(h.sigma, beta) - h.kappa, mobius_of_cycles(beta)

    return UniPoly(refinement_sum(h.alpha, term))


def flow_definition(h):
    def term(beta):
        e = h.n + orbit_count(h.sigma, beta) - beta.cycle_count - h.sigma.cycle_count
        return e, mobius_of_cycles(beta.inverse() * h.alpha)

    return UniPoly(refinement_sum(h.alpha, term))


SPECIAL = [
    make(0, [], []),
    make(1, [], []),
    make(5, [[1, 2, 3, 4, 5]], []),  # alpha all fixed points
    make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]]),  # genus one
    make(6, [[1, 4], [2, 5], [3, 6]], [[1, 2, 3, 4, 5, 6]]),
    make(8, [], [[1, 2, 3, 4, 5, 6, 7, 8]]),
]


def test_dp_equals_brute_force():
    corpus = SPECIAL + seeded_collections(71, 320)
    assert any(h.genus > 0 for h in corpus)
    assert sum(h.kappa > 1 for h in corpus) > 50
    for h in corpus:
        require_routes_agree(h, (whitney_dp,))


def test_chi_equals_moebius_sum():
    for h in SPECIAL + seeded_collections(73, 150):
        assert characteristic_polynomial(h) == chi_definition(h), h


def test_flow_polynomial_equals_moebius_sum():
    for h in SPECIAL + seeded_collections(80, 150):
        assert flow_polynomial(h) == flow_definition(h), h


# A distinct prime per block size tells the sizes apart.
PRIMES = [0, 2, 3, 5, 7, 11, 13, 17, 19]


def prime_weighted_sum(h, blocks_of):
    def term(beta):
        value = 1
        for c in blocks_of(beta).cycles():
            value *= PRIMES[len(c)]
        return (orbit_count(h.sigma, beta), beta.cycle_count), value

    return refinement_sum(h.alpha, term)


def test_block_weight_reaches_every_block():
    for h in seeded_collections(74, 60):
        counts, _ = refinement_profile(
            h.alpha, h.sigma.cycle_labels(), block_weight=PRIMES.__getitem__)
        assert counts == prime_weighted_sum(h, lambda beta: beta), h


def test_complement_weight_reaches_every_block():
    # and it visits the states of R: the weight needs no state of its own
    for h in SPECIAL + seeded_collections(81, 60):
        vertex = h.sigma.cycle_labels()
        counts, states = refinement_profile(
            h.alpha, vertex, complement_weight=PRIMES.__getitem__)
        expected = prime_weighted_sum(h, lambda beta: beta.inverse() * h.alpha)
        assert counts == expected, h
        assert states == refinement_profile(h.alpha, vertex)[1], h


def test_weights_go_no_further_than_the_longest_cycle():
    # a block or a stack of levels lies in one cycle of alpha, so no weight
    # past its length is asked for, and the sums still reach every block
    for h in SPECIAL + seeded_collections(84, 60):
        longest = max(map(len, h.alpha.cycles()), default=0)
        asked = set()

        def weight(k):
            asked.add(k)
            return PRIMES[k]

        for form, blocks_of in (("block_weight", lambda beta: beta),
                                ("complement_weight",
                                 lambda beta: beta.inverse() * h.alpha)):
            counts, _ = refinement_profile(
                h.alpha, h.sigma.cycle_labels(), **{form: weight})
            assert counts == prime_weighted_sum(h, blocks_of), h
        assert asked == set(range(1, longest + 1)), h


def test_weights_on_one_point():
    # the last point is the first, so the root adds its moves
    alpha = Permutation.identity(1)
    for form in ("block_weight", "complement_weight"):
        five = refinement_profile(alpha, [0, 0], **{form: lambda k: 5 * k})
        assert five[0] == {(1, 1): 5}
        assert refinement_profile(alpha, [0, 0], **{form: lambda k: 0})[0] == {}


def test_one_weight_at_a_time():
    h = SPECIAL[4]
    with pytest.raises(ValueError):
        refinement_profile(h.alpha, h.sigma.cycle_labels(),
                           block_weight=PRIMES.__getitem__,
                           complement_weight=PRIMES.__getitem__)


def test_flow_polynomial_is_dual_characteristic_polynomial_at_genus_zero():
    rng = random.Random(83)
    checked = 0
    while checked < 150:
        h = random_collection(rng, n_max=8, max_cycle=rng.choice((2, 4, 8)))
        if h.genus > 0:
            continue
        require_flow_chi_duality(h)
        checked += 1


def test_duality_fails_on_the_torus():
    torus = make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]])
    assert torus.genus == 1
    assert flow_polynomial(torus) == UniPoly({2: 1, 1: -2, 0: 1})
    assert characteristic_polynomial(dual(torus)) == UniPoly()


def run_hypermap(args, doc):
    r = subprocess.run(
        [sys.executable, "-m", "hypermaps", *args],
        input=doc, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_cli_flowpoly_is_dual_charpoly_on_nested_fourteen_cycle():
    # 2,674,440 refinements; the DP visits the states of R instead
    doc = "sigma: " + "".join(f"({i} {15 - i})" for i in range(1, 8)) + "\n"
    doc += "alpha: (" + " ".join(map(str, range(1, 15))) + ")\n"
    flow = run_hypermap(["flowpoly"], doc)
    assert flow == run_hypermap(["charpoly"], run_hypermap(["dual"], doc))


def test_wet_dry_equals_definition():
    rng = random.Random(75)
    for _ in range(60):
        h = random_planar_connected(rng, n_max=8)
        require_wet_dry(h)


def circuit_partitions_against_state_sum(seed, genus_zero):
    rng = random.Random(seed)
    checked = 0
    while checked < 60:
        h = random_collection(rng, n_max=7, max_cycle=rng.choice((2, 4, 7)))
        if (h.genus == 0) != genus_zero:
            continue
        require_circuit_polynomial(h)
        checked += 1


def test_genus_zero_circuit_partition_equals_state_sum():
    circuit_partitions_against_state_sum(76, genus_zero=True)


def test_positive_genus_circuit_partition_equals_state_sum():
    circuit_partitions_against_state_sum(79, genus_zero=False)
    require_circuit_polynomial(make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]]))


def test_genus_zero_circuit_partition_keeps_the_state_cap():
    # the refinements are counted from Catalan numbers at every genus
    running = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    torus = make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]])
    assert (running.genus, torus.genus) == (0, 1)
    for h, states in ((running, 10), (torus, 4)):
        message = f"^{states} matchings exceed the cap of {states - 1}$"
        with pytest.raises(InstanceTooLarge, match=message):
            circuit_partition_polynomial(h, max_states=states - 1)
        expected = circuit_state_sum(medial_map(h))
        assert circuit_partition_polynomial(h, max_states=states) == expected
        assert circuit_partition_polynomial(h, max_states=None) == expected


def test_answers_do_not_depend_on_labels():
    rng = random.Random(77)
    for _ in range(12):
        h = random_planar_connected(rng, n_max=8)
        h = h.disjoint_union(random_collection(rng, n_max=4))
        answers = None
        for _ in range(11):
            g = h.relabel(random_permutation(rng, h.n))
            got = (
                whitney_dp(g).polynomial,
                characteristic_polynomial(g),
                flow_polynomial(g),
                wet_dry_polynomial(g) if g.genus == 0 else None,
                circuit_partition_polynomial(g),
            )
            answers = answers or got
            assert got == answers, g


def test_dp_states_on_identity_cycle():
    """alpha = (1 2 ... 12) with sigma the identity has 208,012 refinements.

    Every open block is its own class, so a state is just a stack depth and
    the DP visits 68 states; a frontier that kept partial partitions apart
    would grow with the Catalan numbers instead.
    """
    h = make(12, [], [list(range(1, 13))])
    result = whitney_dp(h)
    for k in range(1, 13):
        assert result.polynomial.coefficient(k - 1, 0) == narayana(12, k)
    assert result.stats.memo_hits == 0
    assert result.stats.terms == 12
    assert result.stats.nodes <= 80


def test_cli_answers_twenty_point_cycle():
    rng = random.Random(78)
    n = 20
    points = list(range(1, n + 1))
    rng.shuffle(points)
    sigma = random_permutation(rng, n)
    doc = (
        "sigma: " + sigma.cycle_string() + "\n"
        "alpha: (" + " ".join(map(str, points)) + ")\n"
    )
    r = subprocess.run(
        [sys.executable, "-m", "hypermaps", "whitney", "--method=dp",
         "--no-size-guard", "--json"],
        input=doc, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["method"] == "dp"
    assert BiPoly.parse(payload["result"]).evaluate(1, 1) == catalan(n)
