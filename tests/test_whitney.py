import gc
import importlib
import itertools
import random
import subprocess
import sys
import time

import pytest

from builders import make, phi_expansion, run_in_process
from hypermaps import cli
from hypermaps.hypermap import Hypermap, dual, orbits
from hypermaps.perm import Permutation
from hypermaps.poly import BiPoly
from hypermaps.routes import _pivot, branch, phi_k, pivot_cycle
from hypermaps.selftest import (
    random_collection,
    random_permutation,
    require_product,
    require_routes_agree,
    require_wet_dry,
)
from hypermaps.whitney import (
    specializations,
    wet_dry_polynomial,
    whitney,
    whitney_bruteforce,
    whitney_dp,
    whitney_phi,
    whitney_psi,
)


RUNNING = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
GOLDEN = BiPoly.parse("u^2 + u*v + 4*u + v + 3")


def test_golden_value_three_routes():
    for method in ("brute", "phi", "psi"):
        assert whitney(RUNNING, method).polynomial == GOLDEN


def test_golden_value_frontier_dp():
    assert whitney(RUNNING, "dp").polynomial == GOLDEN


def test_golden_branches():
    branches = phi_expansion(RUNNING)
    assert [(eu, ev) for _, eu, ev, _ in branches] == [(0, 0)] * 3
    assert [str(p) for _, _, _, p in branches] == [
        "u^2 + 2*u + 1",
        "u*v + u + v + 1",
        "u + 1",
    ]


def test_base_case_all_fixed_points():
    h = make(3, [[1, 2, 3]], [])
    assert pivot_cycle(h.alpha) is None
    assert whitney_phi(h).polynomial == BiPoly.const(1)
    assert phi_expansion(h) == []


def test_empty_hypermap():
    h = make(0, [], [])
    assert whitney(h, "phi").polynomial == BiPoly.const(1)
    assert whitney(h, "brute").polynomial == BiPoly.const(1)


def test_pivot_cycle_picks_first_long_cycle():
    alpha = Permutation.from_cycles(6, [[2, 5], [3, 4]])
    assert pivot_cycle(alpha) == (2, 5)
    assert pivot_cycle(Permutation.identity(4)) is None


def test_recursion_pivots_on_shortest_cycle():
    """phi and psi expand a component on its shortest alpha-cycle of length
    >= 2, from its least point, ties going to the cycle holding the least
    point; ``pivot_cycle`` keeps the least-point rule of the paper's
    worked example."""
    def pivot(n, cycles):
        return _pivot(Permutation.from_cycles(n, cycles)._image)

    assert pivot(7, [[1, 2, 3, 4], [7, 5, 6]]) == (5, 6, 7)
    alpha = Permutation.from_cycles(7, [[1, 2, 3, 4], [7, 5, 6]])
    assert pivot_cycle(alpha) == (1, 2, 3, 4)
    assert pivot(6, [[5, 3, 2], [6, 4, 1]]) == (1, 6, 4)
    assert pivot(7, [[1, 2, 3], [6, 7], [5, 4]]) == (4, 5)
    assert pivot(9, [[3, 5, 4, 6], [9, 8, 7]]) == (7, 9, 8)
    assert pivot(4, []) is None


def test_recursion_matches_dp_on_relabelled_many_hyperedge_collections():
    """Where the shortest-cycle pivot departs most from the least point:
    alpha of 3 to 5 cycles of length >= 2 on at most 10 points, under
    random labels, with a random sigma."""
    rng = random.Random("pivot:many-hyperedges")
    for _ in range(150):
        lengths = [2] * rng.randint(3, 5)
        for _ in range(rng.randint(0, 10 - len(lengths) * 2)):
            lengths[rng.randrange(len(lengths))] += 1
        n = sum(lengths)
        ends = list(itertools.accumulate(lengths))
        cycles = [list(range(e - k + 1, e + 1)) for e, k in zip(ends, lengths)]
        h = Hypermap(random_permutation(rng, n), Permutation.from_cycles(n, cycles))
        h = h.relabel(random_permutation(rng, n))
        expected = whitney_dp(h).polynomial
        for route in (whitney_phi, whitney_psi):
            assert route(h).polynomial == expected, (route.__name__, h)


def phi_k_composed(h, cycle, k):
    """phi_k written purely with transposition products.

    The sigma part is (c1, ck) sigma when that does not raise the cycle
    count, and sigma otherwise; the alpha part is (c1, ck) alpha (c1, c(k-1))
    with index k - 1 read mod m (k = 1 uses cm) and (c1, c1) read as the
    identity.  An independently coded route for phi_k.
    """
    m = len(cycle)
    c1, ck = cycle[0], cycle[k - 1]
    ckm1 = cycle[(k - 2) % m]
    t_front = Permutation.transposition(h.n, c1, ck)
    t_back = Permutation.transposition(h.n, c1, ckm1)
    sig_candidate = t_front * h.sigma
    sig = sig_candidate if sig_candidate.cycle_count <= h.sigma.cycle_count else h.sigma
    return Hypermap(sig, t_front * h.alpha * t_back)


def test_phi_k_matches_transposition_route():
    rng = random.Random(77)
    for _ in range(40):
        h = random_collection(rng, n_max=7)
        cycle = pivot_cycle(h.alpha)
        if cycle is None:
            continue
        for k in range(1, len(cycle) + 1):
            assert phi_k(h, cycle, k) == phi_k_composed(h, cycle, k)


def test_phi_k_rejects_bad_k():
    cycle = pivot_cycle(RUNNING.alpha)
    with pytest.raises(ValueError):
        phi_k(RUNNING, cycle, 0)
    with pytest.raises(ValueError):
        phi_k(RUNNING, cycle, len(cycle) + 1)


def test_branch_weights_land_in_the_four_monomials():
    rng = random.Random(11)
    for _ in range(30):
        h = random_collection(rng, n_max=7)
        cycle = pivot_cycle(h.alpha)
        if cycle is None:
            continue
        for k in range(1, len(cycle) + 1):
            _, eu, ev = branch(h, cycle, k, keep_connected=False)
            assert (eu, ev) in {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_uv_weight_example():
    h = make(3, [[1, 3]], [[1, 2, 3]])
    branches = phi_expansion(h)
    assert [(eu, ev) for _, eu, ev, _ in branches] == [(0, 0), (0, 0), (1, 1)]
    assert whitney_phi(h).polynomial == BiPoly.parse("u*v + u + v + 2")


def test_psi_preserves_connectivity():
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        h = random_collection(rng, n_max=7)
        if not h.is_connected:
            continue
        cycle = pivot_cycle(h.alpha)
        if cycle is None:
            continue
        for k in range(1, len(cycle) + 1):
            assert branch(h, cycle, k, keep_connected=True)[0].is_connected
            checked += 1
    assert checked > 20


def test_three_routes_agree_randomized():
    rng = random.Random(3)
    for _ in range(25):
        require_routes_agree(random_collection(rng, n_max=7), (whitney_phi, whitney_psi))


def test_multiplicative_over_disjoint_union():
    a = make(5, [[1, 3], [2, 5]], [[1, 2, 3, 4, 5]])
    b = make(4, [[1, 3]], [[1, 2], [3, 4]])
    u = a.disjoint_union(b)
    # Interleave the pieces' labels, keeping each piece's internal order:
    # a's points go to 2, 3, 5, 7, 9 and b's to 1, 4, 6, 8.
    interleaved = u.relabel(Permutation([2, 3, 5, 7, 9, 1, 4, 6, 8]))
    assert interleaved.components() == ((1, 4, 6, 8), (2, 3, 5, 7, 9))
    for route in (whitney_phi, whitney_psi):
        product = route(a).polynomial * route(b).polynomial
        consecutive = route(u)
        relabelled = route(interleaved)
        assert consecutive.polynomial == product
        assert relabelled.polynomial == product
        assert relabelled.stats.nodes == consecutive.stats.nodes


def test_phi_factors_by_component():
    """phi on alpha = (1 2 ... 12) with sigma the identity visits 3,381
    nodes when whole collections are memoized and 441 when each component
    is; splicing alpha's fixed points out of sigma before the lookup brings
    it to 111, because branches that differ only in their fixed points then
    share one entry."""
    h = make(12, [], [list(range(1, 13))])
    result = whitney_phi(h)
    assert result.polynomial == whitney_psi(h).polynomial
    assert result.stats.nodes <= 111


@pytest.mark.parametrize(
    "sigma", [[], [[1, 3], [2, 5]]], ids=["identity", "(1 3)(2 5)"]
)
def test_recursion_on_a_thirteen_cycle_matches_dp(sigma):
    """Cat(13) = 742,900 refinements, so each slot of the packed recursion
    is 20 bits wide and no coefficient may carry into the next; with
    identity sigma the coefficients are the Narayana numbers, the largest
    N(13, 7) = 226,512."""
    h = make(13, sigma, [list(range(1, 14))])
    expected = whitney_dp(h).polynomial
    assert sum(expected.terms.values()) == 742900
    if not sigma:
        assert max(expected.terms.values()) == 226512
    for route in (whitney_phi, whitney_psi):
        assert route(h).polynomial == expected


def test_recursion_on_interleaved_unions_matches_dp():
    """Disjoint unions with their pieces' labels interleaved at random: each
    branch splits into relabelled components whose packed values multiply."""
    rng = random.Random(2020)
    pieces = 0
    for _ in range(40):
        h = random_collection(rng, n_max=6)
        for _ in range(rng.randint(1, 2)):
            h = h.disjoint_union(random_collection(rng, n_max=5))
        shuffled = list(range(1, h.n + 1))
        rng.shuffle(shuffled)
        h = h.relabel(Permutation(shuffled))
        pieces += h.kappa > 1
        expected = whitney_dp(h).polynomial
        for route in (whitney_phi, whitney_psi):
            assert route(h).polynomial == expected
    assert pieces > 30


@pytest.mark.parametrize(
    "alpha", [[[1, 2, 3]], [[1, 2, 3], [50000, 99999]]], ids=["3-cycle", "union"]
)
def test_fixed_points_do_not_widen_the_packed_recursion(alpha, monkeypatch):
    """10^5 points, all but a few fixed by alpha: the slots follow the rank
    of alpha, not n, so the packed values stay a few dozen bits wide and the
    recursion runs in time linear in n (slots strided by n + 1 would pack
    ~800,000 bits here and decode them in quadratic time)."""
    n = 100000
    h = make(n, [[2, 70000]], alpha)
    module = importlib.import_module("hypermaps.routes")
    unpack, widths = module._unpack, []

    def recording(packed, bits, width):
        widths.append(packed.bit_length())
        return unpack(packed, bits, width)

    monkeypatch.setattr(module, "_unpack", recording)
    expected = whitney_dp(h).polynomial
    start = time.perf_counter()
    for route in (whitney_phi, whitney_psi):
        assert route(h).polynomial == expected
    elapsed = time.perf_counter() - start
    assert len(widths) == 2 and max(widths) <= 64
    assert elapsed < 3.0


def with_buds(rng, h, buds):
    """h with points n+1..n+buds fixed by alpha, each put into sigma right
    after a random earlier point, then all points relabelled at random."""
    sig, alf = list(h.sigma.image), list(h.alpha.image)
    for q in range(h.n + 1, h.n + buds + 1):
        p = rng.randint(1, q - 1)
        sig.append(sig[p - 1])
        sig[p - 1] = q
        alf.append(q)
    grown = Hypermap(Permutation(sig), Permutation(alf))
    return grown.relabel(random_permutation(rng, grown.n))


def bud_heavy_collection(rng, n_max):
    """Random sigma; alpha moves at most half of the points, in one or two
    cycles, and fixes the rest."""
    n = rng.randint(4, n_max)
    moved = rng.sample(range(1, n + 1), rng.randint(2, max(2, n // 2)))
    cut = rng.choice([len(moved)] + list(range(2, len(moved) - 1)))
    alpha = Permutation.from_cycles(n, [c for c in (moved[:cut], moved[cut:]) if c])
    return Hypermap(random_permutation(rng, n), alpha)


def test_spliced_buds_leave_r_unchanged():
    """The lemma behind the recursion's splice, on routes that never splice:
    a point fixed by alpha inside a sigma-cycle of other points lowers n and
    z(beta) by one for every beta <= alpha and keeps z(sigma) and
    kappa(sigma, beta), so both exponents of every term stay as they are."""
    rng = random.Random(2323)
    for _ in range(300):
        h = random_collection(rng, n_max=7)
        grown = with_buds(rng, h, rng.randint(1, 4))
        for route in (whitney_dp, whitney_bruteforce):
            assert route(grown).polynomial == route(h).polynomial, (h, grown)


@pytest.mark.parametrize("bud_heavy", [False, True], ids=["random", "bud-heavy"])
def test_recursion_matches_dp_on_seeded_collections(bud_heavy):
    rng = random.Random(f"splice:{bud_heavy}")
    draw = bud_heavy_collection if bud_heavy else random_collection
    for _ in range(1000):
        h = draw(rng, 9)
        expected = whitney_dp(h).polynomial
        for route in (whitney_phi, whitney_psi):
            assert route(h).polynomial == expected, (route.__name__, h)


def test_recursion_matches_dp_on_every_pair_up_to_four_points():
    for n in range(5):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for sigma, alpha in itertools.product(perms, repeat=2):
            h = Hypermap(sigma, alpha)
            expected = whitney_dp(h).polynomial
            for route in (whitney_phi, whitney_psi):
                assert route(h).polynomial == expected, (route.__name__, h)


UNION_8_7 = make(
    15,
    [[1, 3, 5, 7], [2, 4, 6, 8], [9, 11, 13, 15], [10, 12, 14]],
    [list(range(1, 9)), list(range(9, 16))],
)
UNION_8_7_RELABELLED = UNION_8_7.relabel(
    Permutation([7, 12, 1, 15, 4, 9, 2, 14, 6, 11, 3, 13, 8, 10, 5])
)

SIX_CYCLE = make(6, [[1, 3], [2, 5]], [list(range(1, 7))])
TWO_EQUAL_PIECES = SIX_CYCLE.disjoint_union(SIX_CYCLE)


@pytest.mark.parametrize(
    "h, phi_counts, psi_counts",
    [
        (make(12, [], [list(range(1, 13))]), (111, 100), (187, 137)),
        (make(12, [list(range(1, 13))], [list(range(1, 13))]), (188, 138), (188, 138)),
        (UNION_8_7, (102, 70), (102, 70)),
        (UNION_8_7_RELABELLED, (340, 243), (340, 243)),
        (TWO_EQUAL_PIECES, (46, 32), (45, 31)),
    ],
)
def test_recursion_counts_pinned(h, phi_counts, psi_counts):
    """Nodes and memo hits of phi and psi.  A branch met again in the call
    is one node, answered by the branch memo; a new branch, and the input,
    count a node per component, looked up in the component memo by its
    image tables on 1..m with alpha's fixed points spliced out of sigma.
    A branch whose points are all fixed by alpha has no component, so it
    counts only when met again.  Each component is expanded on its
    shortest alpha-cycle, ties going to the least point.  Both memos are
    keyed by labels, so isomorphic components under other labels are
    expanded again, and a relabelled input (UNION_8_7_RELABELLED) can cost
    more."""
    for route, counts in ((whitney_phi, phi_counts), (whitney_psi, psi_counts)):
        stats = route(h).stats
        assert (stats.nodes, stats.memo_hits) == counts


@pytest.mark.parametrize(
    "h", [make(11, [], [list(range(1, 12))]), UNION_8_7_RELABELLED, TWO_EQUAL_PIECES]
)
def test_each_labelled_component_keyed_once(h, monkeypatch):
    """The memo is keyed by a component's image tables on 1..m.  A component
    is expanded through its branches k = 1..m, so the k = 1 calls of the
    branch step list the expansions; no two of them share image tables."""
    expanded = []
    module = importlib.import_module("hypermaps.routes")
    step = module._phi_k_tables

    def counting(sig, alf, cycle, k):
        if k == 1:
            expanded.append((sig, alf))
        return step(sig, alf, cycle, k)

    monkeypatch.setattr(module, "_phi_k_tables", counting)
    for route in (whitney_phi, whitney_psi):
        expanded.clear()
        stats = route(h).stats
        assert expanded, "the recursion never called the hooked branch step"
        assert len(expanded) == len(set(expanded))
        assert len(expanded) < stats.nodes


# With alpha = (1 ... 12) and this sigma, 187 of the 486 branches that phi
# and psi each meet repeat one met before in the call.
SIGMA_12_CYCLE = make(
    12, [[1, 3, 7, 2, 4, 10, 8, 11, 5, 9, 12, 6]], [list(range(1, 13))]
)
REPEATING = pytest.mark.parametrize(
    "h", [SIGMA_12_CYCLE, UNION_8_7_RELABELLED], ids=["12-cycle", "union-8-7"]
)


@REPEATING
@pytest.mark.parametrize("route", [whitney_phi, whitney_psi], ids=["phi", "psi"])
def test_each_branch_key_walked_and_checked_once(h, route, monkeypatch):
    """A branch is keyed by its tables alone, also for psi, whose gluing
    keeps R.  Every distinct key the recursion meets is checked once in the
    call, with one orbit walk (two if psi glues) and one Euler check; a key
    met again is neither walked nor checked.  Outside the checks the
    recursion walks only the input and Euler-checks only the pieces of a
    split, whose tables fix no point (a branch's fix c1)."""
    module = importlib.import_module("hypermaps.routes")
    psi = route is whitney_psi
    tables, check = module._phi_k_tables, module._check_branch
    walk, euler = module.orbits, module.euler_number
    met, checks, inside = [], [], []
    outside_walks, outside_eulers = [], []

    def meeting(sig, alf, cycle, k):
        found = tables(sig, alf, cycle, k)
        met.append(found[:2])
        return found

    def checking(sig, alf, kappa, cycle, keep_connected):
        inside.append([(sig, alf), 0, 0])
        try:
            return check(sig, alf, kappa, cycle, keep_connected)
        finally:
            checks.append(inside.pop())

    def walking(sig, alf):
        if inside:
            inside[-1][1] += 1
        else:
            outside_walks.append((sig, alf))
        return walk(sig, alf)

    def euler_checking(sig, alf, kappa):
        if inside:
            inside[-1][2] += 1
        else:
            outside_eulers.append(alf)
        return euler(sig, alf, kappa)

    for name, hook in (("_phi_k_tables", meeting), ("_check_branch", checking),
                       ("orbits", walking), ("euler_number", euler_checking)):
        monkeypatch.setattr(module, name, hook)
    route(h)
    checked = [k for k, _, _ in checks]
    assert len(set(met)) < len(met), "no branch was met twice"
    assert set(checked) == set(met)
    assert len(checked) == len(set(checked))
    for _, walks, eulers in checks:
        assert walks in ((1, 2) if psi else (1,)) and eulers == 1
    assert outside_walks == [(h.sigma._image, h.alpha._image)]
    assert all(alf[p] != p for alf in outside_eulers for p in range(1, len(alf)))


@REPEATING
def test_rejecting_a_repeated_branch_still_raises(h, monkeypatch):
    """The branch memo stores a value only after its checks pass: an Euler
    check that rejects the tables of a branch met twice stops phi and psi."""
    module = importlib.import_module("hypermaps.routes")
    tables, euler = module._phi_k_tables, module.euler_number
    for route in (whitney_phi, whitney_psi):
        met = {}

        def meeting(sig, alf, cycle, k):
            found = tables(sig, alf, cycle, k)
            met[found[:2]] = met.get(found[:2], 0) + 1
            return found

        monkeypatch.setattr(module, "_phi_k_tables", meeting)
        route(h)
        monkeypatch.setattr(module, "_phi_k_tables", tables)
        # one orbit: psi glues nothing, so the check sees these very tables
        target = next(t for t, c in met.items() if c > 1 and len(orbits(*t)) == 1)

        def rejecting(sig, alf, kappa):
            if (sig, alf) == target:
                raise ValueError("rejected")
            return euler(sig, alf, kappa)

        monkeypatch.setattr(module, "euler_number", rejecting)
        with pytest.raises(ValueError, match="rejected"):
            route(h)
        monkeypatch.setattr(module, "euler_number", euler)


def test_recursion_builds_no_hypermap_below_the_input(monkeypatch):
    """Branches and components stay image tables: phi and psi on the
    12-cycle with sigma the identity construct no ``Hypermap``."""
    built = []
    init = Hypermap.__init__

    def counting(self, sigma, alpha):
        built.append((sigma, alpha))
        init(self, sigma, alpha)

    monkeypatch.setattr(Hypermap, "__init__", counting)
    h = make(12, [], [list(range(1, 13))])
    for route in (whitney_phi, whitney_psi):
        assert route(h).stats.nodes > 100
    assert built == [(h.sigma, h.alpha)]


def test_recursion_leaves_no_cached_garbage():
    """The nested functions of the recursion form a reference cycle, so
    caches they keep would live until the cyclic collector runs; a
    long-lived process would then hold many calls' memos at once."""
    h = make(9, [], [list(range(1, 10))])
    for route in (whitney_phi, whitney_psi):
        gc.collect()
        gc.disable()
        try:
            route(h)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable < 50


def test_merge_leaves_polynomial_unchanged():
    a = make(3, [[1, 2]], [[1, 2, 3]])
    b = make(4, [[1, 3]], [[1, 2], [3, 4]])
    require_product(a, b, whitney_phi)


def test_planar_dual_swaps_variables():
    assert RUNNING.genus == 0
    d = dual(RUNNING)
    assert whitney_phi(d).polynomial == GOLDEN.swap_variables()


def test_default_method_is_dp():
    r = whitney(RUNNING)
    assert (r.method, r.polynomial) == ("dp", GOLDEN)


def test_specializations_default_matches_phi():
    rng = random.Random(1414)
    for _ in range(60):
        h = random_collection(rng, n_max=7)
        assert specializations(h) == specializations(h, whitney_phi(h).polynomial)


def test_specializations_of_golden():
    s = specializations(RUNNING)
    assert s.spanning_hyperforests == 3
    assert s.spanning_collections == GOLDEN.evaluate(0, 1) == 4
    assert s.hyperbola == GOLDEN.hyperbola_section()


def test_wet_dry_equals_kappa_shifted_polynomial():
    assert wet_dry_polynomial(RUNNING) == GOLDEN * BiPoly.monomial(1, RUNNING.kappa, 0)
    require_wet_dry(RUNNING)
    rng = random.Random(12)
    checked = 0
    while checked < 25:
        h = random_collection(rng, n_max=7)
        if h.genus == 0:
            require_wet_dry(h)
            checked += 1


def test_wet_dry_rejects_positive_genus():
    torus = make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]])
    assert torus.genus == 1
    with pytest.raises(ValueError):
        wet_dry_polynomial(torus)


# 11 points; a relabelled 6 + 5 disjoint union; alpha fixing points 13 and
# 14; a genus-2 pair with a three-cycle alpha; a 12-cycle whose recursion
# repeats branches; a 4+4+3 hyperedge collection
@pytest.mark.parametrize("sigma, alpha", [
    ("(1 5 9)(2 7)(3 11 6 10)", "(1 2 3 4 5 6 7 8 9 10 11)"),
    ("(1 4)(3 9 10)(2 6 11)(5 8)", "(1 3 4 7 9 10)(2 5 6 8 11)"),
    ("(1 13)(5 14 9)", "(1 2 3 4 5 6 7 8 9 10 11 12)"),
    ("(1 6 11)(2 9)(3 13 7)(4 10 12 5)", "(1 2 3 4 5)(6 7 8 9)(10 11 12 13)"),
    ("(1 3 7 2 4 10 8 11 5 9 12 6)", "(1 2 3 4 5 6 7 8 9 10 11 12)"),
    ("(1 8 9)(2 6 7)(3 10 11)(4)(5)(12)", "(5 4 11 9)(10 12 6 3)(7 2 8)(1)"),
], ids=["eleven-points", "relabelled-union", "fixed-13-14", "genus-two",
        "twelve-cycle", "hyperedges-4-4-3"])
def test_whitney_check_agrees_with_brute_force(sigma, alpha, monkeypatch):
    # --check runs all four routes and exits 1 if they differ; the suite's
    # run under python -O checks them without assert
    doc = f"sigma: {sigma}\nalpha: {alpha}\n"
    h = cli.load_document(doc, "<stdin>").hypermap
    expected = f"{whitney_bruteforce(h).polynomial}\n"
    assert run_in_process(["whitney", "--check"], doc, monkeypatch) == (0, expected, "")


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        whitney(RUNNING, "magic")


def test_stats_populated():
    r = whitney_phi(RUNNING)
    assert r.method == "phi"
    assert r.stats.nodes > 0
    assert r.stats.terms == len(GOLDEN.terms)


def test_invariant_checks_raise_under_optimize():
    """The branch weight, genus parity, per-branch Euler and R(1,1) checks
    are not bare asserts.  Each injected fault goes through the hook the recursion
    really calls, so every expected line proves its hook ran."""
    script = (
        "import importlib\n"
        "from hypermaps.hypermap import Hypermap\n"
        "from hypermaps.perm import Permutation\n"
        "h = Hypermap(Permutation.from_cycles(5, [[1, 4], [2, 5]]),\n"
        "             Permutation.from_cycles(5, [[1, 2, 3], [4, 5]]))\n"
        "ident = Permutation.identity(5)\n"
        "hypermap = importlib.import_module('hypermaps.hypermap')\n"
        "whitney = importlib.import_module('hypermaps.whitney')\n"
        "routes = importlib.import_module('hypermaps.routes')\n"
        "phi_k_tables = routes._phi_k_tables\n"
        "routes._phi_k_tables = lambda sig, alf, cycle, k: (\n"
        "    ident._image, ident._image, 0)\n"
        "try:\n"
        "    whitney.whitney_phi(h)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "hypermap.orbit_count = lambda p, q: 0\n"
        "try:\n"
        "    Hypermap(ident, ident)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "routes._phi_k_tables = phi_k_tables\n"
        "refinement_count = routes.refinement_count\n"
        "routes.refinement_count = lambda alpha: 1\n"
        "for route in (whitney.whitney_phi, whitney.whitney_psi):\n"
        "    try:\n"
        "        route(h)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "routes.refinement_count = refinement_count\n"
        "hypermap.cycle_count = lambda img: 0\n"
        "try:\n"
        "    whitney.whitney_phi(h)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    # A refinement count of 1 leaves 1-bit slots, too narrow for R = u^2 +
    # u*v + 4*u + v + 3: with alpha of rank 3 the packed value is 3 + 2 +
    # 4*2^4 + 2^5 + 2^8 = 0b101100101, which decodes with R(1,1) = 5.  The last fault
    # makes every cycle count 0, so the first branch, which keeps 5 points in
    # one orbit, reads n + 2 kappa = 7.
    expected = (
        "branch weight out of range: u^4\n"
        "genus parity violated: -10\n"
        "R(1,1) = 5, but alpha has 1 refinements\n"
        "R(1,1) = 5, but alpha has 1 refinements\n"
        "genus parity violated: 7\n"
    )
    for flags in ([], ["-O"]):
        r = subprocess.run(
            [sys.executable, *flags, "-c", script], capture_output=True, text=True,
            timeout=60,
        )
        assert (r.returncode, r.stdout, r.stderr) == (0, expected, ""), flags
