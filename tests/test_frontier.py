"""The frontier DP over the noncrossing stack (``refinement_profile``).

Every invariant it serves is checked against its definition as a sum over
the refinement stream: R against brute force, chi and the flow polynomial
C(t) against their Moebius sums, the circuit partition polynomial against
the listed medial state sum.  R, chi, C and the weighted counts are
projections of one definitional sum, ``oracles.refinement_profile_sum``.
At genus zero, C(h) = chi(dual h) checks the two weighted forms of the DP
against each other.  Each form runs in both value kinds, and the evaluated
kind must equal the polynomial kind evaluated at the same point.
"""

import inspect
import json
import random
import subprocess
import sys
import time

import pytest

from builders import make, run_cli, run_in_process
from hypermaps import cli, nclattice
from hypermaps.charflow import characteristic_polynomial, flow_polynomial
from hypermaps.counting import nowhere_zero_flow_count, proper_coloring_count
from hypermaps.hypermap import dual
from hypermaps.medial import (
    circuit_partition_polynomial,
    eulerian_coloring_sum,
    medial_map,
)
from hypermaps.nclattice import catalan, mobius_nc, refinement_profile
from hypermaps.oracles import (
    circuit_state_sum,
    narayana,
    nowhere_zero_flow_enumeration,
    proper_coloring_enumeration,
    refinement_profile_sum,
    whitney_refinement_sum,
)
from hypermaps.routes import refinement_walk
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
from hypermaps.whitney import wet_dry_polynomial, whitney_dp


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
    return UniPoly.collect(refinement_profile_sum(h, block_weight=mobius_nc),
                           lambda kb, zb: kb - h.kappa)


def flow_definition(h):
    return UniPoly.collect(refinement_profile_sum(h, complement_weight=mobius_nc),
                           lambda kb, zb: h.n + kb - zb - h.sigma.cycle_count)


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


def test_block_weight_reaches_every_block():
    for h in seeded_collections(74, 60):
        counts, _ = refinement_profile(
            h.alpha, h.sigma.cycle_labels(), block_weight=PRIMES.__getitem__)
        assert counts == refinement_profile_sum(h, block_weight=PRIMES.__getitem__), h


def test_complement_weight_reaches_every_block():
    # and it visits the states of R: the weight needs no state of its own
    for h in SPECIAL + seeded_collections(81, 60):
        vertex = h.sigma.cycle_labels()
        kw = {"complement_weight": PRIMES.__getitem__}
        counts, states = refinement_profile(h.alpha, vertex, **kw)
        assert counts == refinement_profile_sum(h, **kw), h
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

        for form in ("block_weight", "complement_weight"):
            counts, _ = refinement_profile(
                h.alpha, h.sigma.cycle_labels(), **{form: weight})
            assert counts == refinement_profile_sum(h, **{form: PRIMES.__getitem__}), h
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


def test_cli_flowpoly_is_dual_charpoly_on_nested_fourteen_cycle():
    # 2,674,440 refinements; the DP visits the states of R instead
    doc = "sigma: " + "".join(f"({i} {15 - i})" for i in range(1, 8)) + "\n"
    doc += "alpha: (" + " ".join(map(str, range(1, 15))) + ")\n"
    flow = run_cli(["flowpoly"], doc, timeout=60)
    chi = run_cli(["charpoly"], run_cli(["dual"], doc, timeout=60).stdout,
                  timeout=60)
    assert (flow.returncode, chi.returncode) == (0, 0), flow.stderr + chi.stderr
    assert flow.stdout == chi.stdout


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


def test_genus_zero_circuit_partition_keeps_the_state_cap(monkeypatch):
    # the command line counts the refinements from Catalan numbers at every
    # genus, against cli.MAX_REFINEMENTS; the library call has no cap
    running = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    torus = make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]])
    assert (running.genus, torus.genus) == (0, 1)
    for h, states in ((running, 10), (torus, 4)):
        doc = f"sigma: {h.sigma.cycle_string()}\nalpha: {h.alpha.cycle_string()}\n"
        expected = circuit_state_sum(medial_map(h))
        assert circuit_partition_polynomial(h) == expected
        monkeypatch.setattr(cli, "MAX_REFINEMENTS", states - 1)
        err = (f"error: {states} matchings exceed the cap of {states - 1}"
               " (override with --no-size-guard)\n")
        assert run_in_process(["circuit-partition"], doc, monkeypatch) == (2, "", err)
        monkeypatch.setattr(cli, "MAX_REFINEMENTS", states)
        answer = expected.to_string("x") + "\n"
        assert run_in_process(["circuit-partition"], doc, monkeypatch) == (0, answer, "")
    # nested pairs on a 14-cycle: 2,674,440 refinements, past the command
    # line's cap, and j = x^kappa R(x, x) off the DP's 6,919 states
    nested = make(14, [[i, 15 - i] for i in range(1, 8)], [list(range(1, 15))])
    j = circuit_partition_polynomial(nested)
    r = whitney_dp(nested).polynomial
    for x in range(1, 40):
        assert j.evaluate(x) == x ** nested.kappa * r.evaluate(x, x), x


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
    r = run_cli(["whitney", "--method=dp", "--no-size-guard", "--json"], doc,
                timeout=60)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["method"] == "dp"
    assert BiPoly.parse(payload["result"]).evaluate(1, 1) == catalan(n)


def kernel_collections(seed, count):
    """Collections with n <= 9 under shuffled labels: alphas of one cycle or
    of many short ones, most of them with fixed points."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        h = random_collection(rng, n_max=9, max_cycle=rng.choice((2, 3, 4, 9)))
        out.append(h.relabel(random_permutation(rng, h.n)))
    return out


KERNEL = SPECIAL + kernel_collections(85, 160)

# The three forms, each with the weight production gives it and with the
# primes, which tell block sizes apart.
FORMS = [
    ("block form", {}),
    ("complement weight", {"complement_weight": mobius_nc}),
    ("complement weight", {"complement_weight": PRIMES.__getitem__}),
    ("level form", {"block_weight": mobius_nc}),
    ("level form", {"block_weight": PRIMES.__getitem__}),
]


def evaluated(counts, n, x, y):
    """sum count * x^kappa * y^(n - z), the evaluated kind's definition."""
    return sum(c * x ** k * y ** (n - z) for (k, z), c in counts.items())


def test_kernel_forms_equal_the_walk_and_the_definitions():
    assert sum(h.alpha.cycle_count > 2 for h in KERNEL) > 60
    assert sum(any(h.alpha(p) == p for p in range(1, h.n + 1)) for h in KERNEL) > 100
    for h in KERNEL:
        vertex = h.sigma.cycle_labels()
        block, states = refinement_profile(h.alpha, vertex)
        assert block == refinement_walk(h.alpha, vertex), h
        assert whitney_dp(h).polynomial == whitney_refinement_sum(h), h
        for name, kw in FORMS[1:]:
            counts, visited = refinement_profile(h.alpha, vertex, **kw)
            assert counts == refinement_profile_sum(h, **kw), (name, h)
            if name == "complement weight":
                assert visited == states, h


# m and q of the counts, and the points the count subcommands evaluate at.
VALUES = (0, 1, 2, 3, 5)
POINTS = sorted({(m, 1) for m in VALUES} | {(q, q) for q in VALUES}
                | {(m * m, m) for m in VALUES} | {(2, 3), (5, 0)})


def test_evaluated_kind_equals_the_polynomial_kind_evaluated():
    for h in KERNEL[::2]:
        vertex = h.sigma.cycle_labels()
        for name, kw in FORMS:
            counts, states = refinement_profile(h.alpha, vertex, **kw)
            for x, y in POINTS:
                value, visited = refinement_profile(h.alpha, vertex, at=(x, y), **kw)
                assert value == evaluated(counts, h.n, x, y), (name, x, y, h)
                assert visited == states, (name, h)


def test_counts_on_the_evaluated_kind_equal_the_oracles():
    rng = random.Random(86)
    for _ in range(30):
        h = random_collection(rng, n_max=6, max_cycle=rng.choice((2, 3, 6)))
        h = h.relabel(random_permutation(rng, h.n))
        for m in VALUES:
            assert proper_coloring_count(h, m) == proper_coloring_enumeration(h, m), (m, h)
        for q in (2, 3, 5):
            assert nowhere_zero_flow_count(h, q) == nowhere_zero_flow_enumeration(h, q), (q, h)
        g = random_planar_connected(rng, n_max=8)
        j = circuit_partition_polynomial(g)
        for m in VALUES:
            assert eulerian_coloring_sum(g, m) == j.evaluate(m), (m, g)
    assert eulerian_coloring_sum(make(0, [], []), 0) == 1


def nested(n):
    """sigma = (1 n)(2 n-1)..., alpha = (1 ... n): the DP's hard family."""
    return make(n, [(i, n + 1 - i) for i in range(1, n // 2 + 1)], [range(1, n + 1)])


def test_nested_pair_visits_the_same_states():
    # pinned: the memo of relabeled tuples leaves the state machine alone
    h = nested(12)
    vertex = h.sigma.cycle_labels()
    for kw, states in (({}, 1745), ({"complement_weight": mobius_nc}, 1745),
                       ({"block_weight": mobius_nc}, 2831)):
        assert refinement_profile(h.alpha, vertex, **kw)[1] == states, kw
        assert refinement_profile(h.alpha, vertex, at=(3, 3), **kw)[1] == states, kw
    result = whitney_dp(h)
    assert (result.stats.nodes, result.stats.memo_hits) == (1745, 0)


def test_a_full_key_memo_starts_over(monkeypatch):
    # nested n=12 builds about 1,750 distinct raw tuples in the block forms
    # and 2,800 in the level form, so a memo of 64 fills and clears often
    h = nested(12)
    vertex = h.sigma.cycle_labels()
    runs = [(kw, at) for kw in ({}, {"complement_weight": mobius_nc},
                                {"block_weight": mobius_nc})
            for at in (None, (3, 3))]
    whole = [refinement_profile(h.alpha, vertex, at=at, **kw) for kw, at in runs]
    monkeypatch.setattr(nclattice, "KEY_MEMO_SIZE", 64)
    small = [refinement_profile(h.alpha, vertex, at=at, **kw) for kw, at in runs]
    assert small == whole
    assert [visited for _, visited in small] == [1745, 1745] * 2 + [2831, 2831]


def test_counts_on_a_thousand_vertex_cycle(monkeypatch):
    # sigma (1 2)(3 4)..., alpha (2 3)(4 5)...(2000 1): a cycle of 1,000
    # vertices, with 2^1000 + 2 proper 3-colorings and 2 nowhere-zero flows
    doc = "sigma: " + "".join(f"({2 * i - 1} {2 * i})" for i in range(1, 1001))
    doc += "\nalpha: " + "".join(f"({2 * i} {2 * i + 1})" for i in range(1, 1000))
    doc += "(2000 1)\n"
    for argv, expected in ((["colorings", "--m=3"], 2 ** 1000 + 2),
                           (["flows", "--q=3", "--nowhere-zero"], 2)):
        started = time.perf_counter()
        assert run_in_process(argv, doc, monkeypatch) == (0, f"{expected}\n", ""), argv
        assert time.perf_counter() - started < 1.0, argv


def off_by_one(profile):
    def wrong(*args, **kwargs):
        counts, states = profile(*args, **kwargs)
        key = next(iter(counts))
        return {**counts, key: counts[key] + 1}, states

    return wrong


@pytest.mark.parametrize("module, command, total", [
    ("whitney", "whitney", "R(1,1)"),
    ("whitney", "wet-dry", "R(1,1)"),
    ("medial", "circuit-partition", "j(1)"),
    ("charflow", "charpoly", "chi(1)"),
    ("charflow", "flowpoly", "C(1)"),
])
def test_polynomial_runs_check_their_totals(module, command, total, monkeypatch):
    # the running example: 10 refinements, and alpha is not the identity
    doc = "sigma: (1 4)(2 5)\nalpha: (1 2 3)(4 5)\n"
    expected = {"R(1,1)": 10, "j(1)": 10}.get(total, 0)
    message = f"error: {total} = {expected + 1}, but it must be {expected}\n"
    mod = sys.modules[f"hypermaps.{module}"]
    monkeypatch.setattr(mod, "refinement_profile", off_by_one(mod.refinement_profile))
    assert run_in_process([command], doc, monkeypatch) == (2, "", message)
    # and under -O, where an assert would not run
    script = inspect.getsource(off_by_one) + (
        f"import importlib, sys\nfrom hypermaps import cli\n"
        f"mod = importlib.import_module('hypermaps.{module}')\n"
        f"mod.refinement_profile = off_by_one(mod.refinement_profile)\n"
        f"sys.exit(cli.main([{command!r}]))\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", script], input=doc,
                       capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", message)
