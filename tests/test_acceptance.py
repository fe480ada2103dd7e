"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Run with plain ``pytest``; the per-criterion lines are repeated in the
terminal summary.  The randomized criteria share a single seeded corpus of
520 collections with n <= 8 and hyperedge cycles of length <= 5, so reruns
are deterministic.  Identities the selftest also checks are its
``require_*`` functions, so each is written once.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from acceptance_report import criterion
from builders import make, phi_expansion, run_cli
from hypermaps import charflow
from hypermaps.charflow import characteristic_polynomial
from hypermaps.counting import proper_coloring_count
from hypermaps.hypermap import Hypermap, orbit_count
from hypermaps.medial import medial_map, minus, plus
from hypermaps.nclattice import catalan, refinement_count, refinements
from hypermaps.oracles import (
    circuits_of_state,
    eulerian_edge_colorings,
    eulerian_valence_sum,
    flow_space,
    interval,
    is_flow,
    is_refinement,
    matching_refinement,
    mobius,
    proper_coloring_enumeration,
    unique_nz_refinement,
)
from hypermaps.perm import Permutation
from hypermaps.poly import BiPoly, UniPoly
from hypermaps.routes import branch, pivot_cycle
from hypermaps.selftest import (
    is_map,
    random_collection,
    random_eulerian_digraph,
    require_circuit_polynomial,
    require_coloring_sum,
    require_digraph_roundtrip,
    require_flow_space,
    require_flow_sum,
    require_interval_sums,
    require_map_oracles,
    require_matching_bijection,
    require_medial_shape,
    require_narayana,
    require_planar_duality,
    require_product,
    require_routes_agree,
    require_small_edge_counts,
    require_specializations,
    run_selftest,
)
from hypermaps.whitney import (
    whitney_bruteforce,
    whitney_dp,
    whitney_phi,
    whitney_psi,
)

CORPUS_SIZE = 520
REFINEMENT_CAP = 10 ** 5


def refinement_terms(h):
    """The refinement stream with each beta's (u, v) exponent pair."""
    for beta in refinements(h.alpha):
        kb = orbit_count(h.sigma, beta)
        yield beta, kb - h.kappa, kb + h.n - beta.cycle_count - h.sigma.cycle_count


RUNNING = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
GOLDEN = BiPoly.parse("u^2 + u*v + 4*u + v + 3")
LOOKALIKE_SIGMA = [[1, 5], [2, 6]]
SEVEN = make(8, [[1, 5], [2, 6], [3, 7], [4, 8]], [[1, 2, 3, 4], [5, 6], [7, 8]])


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260817)
    members = []
    while len(members) < CORPUS_SIZE:
        h = random_collection(rng, 8, max_cycle=5)
        if refinement_count(h.alpha) > REFINEMENT_CAP:
            continue
        members.append(h)
    return members


def walk_branches(h, keep_connected):
    """Every distinct recursion node's branches, deduplicated by (sigma, alpha)."""
    seen = set()
    stack = [h]
    while stack:
        g = stack.pop()
        cycle = pivot_cycle(g.alpha)
        if cycle is None:
            continue
        key = (g.sigma, g.alpha)
        if key in seen:
            continue
        seen.add(key)
        for k in range(1, len(cycle) + 1):
            child, eu, ev = branch(g, cycle, k, keep_connected)
            yield g, child, eu, ev
            stack.append(child)


@criterion(1, "golden polynomial by all three routes with its branches")
def test_criterion_1_golden():
    started = time.perf_counter()
    assert whitney_bruteforce(RUNNING).polynomial == GOLDEN
    assert whitney_phi(RUNNING).polynomial == GOLDEN
    assert whitney_psi(RUNNING).polynomial == GOLDEN
    branches = phi_expansion(RUNNING)
    assert [(eu, ev) for _, eu, ev, _ in branches] == [(0, 0)] * 3
    assert [p for _, _, _, p in branches] == [
        BiPoly.parse("u^2 + 2*u + 1"),
        BiPoly.parse("u*v + u + v + 1"),
        BiPoly.parse("u + 1"),
    ]
    assert time.perf_counter() - started < 1.0


@criterion(2, "constant terms 4 and 5 separate the look-alike pair")
def test_criterion_2_constant_terms():
    # Two embeddings of the same hypergraph: one big hyperedge on all four
    # vertices plus the edge (5 6), differing only in the cyclic order of
    # the big hyperedge.  The constant term counts refinements beta with
    # kappa(sigma, beta) = 1 and z(beta) = 3; the full hyperedge itself has
    # z = 2, so it carries weight (0, 1) and is the v term, not a constant.
    # The second cyclic order admits one extra constant-weight refinement,
    # (1 3)(2 4)(5 6): the blocks {1,3} and {2,4} are noncrossing in the
    # order (1 4 2 3) but cross in (1 2 3 4).
    started = time.perf_counter()
    a = make(6, LOOKALIKE_SIGMA, [[1, 2, 3, 4], [5, 6]])
    b = make(6, LOOKALIKE_SIGMA, [[1, 4, 2, 3], [5, 6]])
    ra = whitney_phi(a).polynomial
    rb = whitney_phi(b).polynomial
    constants_a = {
        beta.cycle_string()
        for beta, eu, ev in refinement_terms(a)
        if (eu, ev) == (0, 0)
    }
    constants_b = {
        beta.cycle_string()
        for beta, eu, ev in refinement_terms(b)
        if (eu, ev) == (0, 0)
    }
    assert constants_a == {
        "(1 2 3 4)(5)(6)",
        "(1)(2 3 4)(5 6)",
        "(1 3 4)(2)(5 6)",
        "(1 4)(2 3)(5 6)",
    }
    assert constants_b == {
        "(1 4 2 3)(5)(6)",
        "(1)(2 3 4)(5 6)",
        "(1 4 3)(2)(5 6)",
        "(1 4)(2 3)(5 6)",
        "(1 3)(2 4)(5 6)",
    }
    assert ra.terms[0, 0] == 4
    assert rb.terms[0, 0] == 5
    assert rb.terms[0, 0] == ra.terms[0, 0] + 1
    assert ra != rb
    assert time.perf_counter() - started < 1.0


@criterion(3, "identity-over-n-cycle gives the Narayana polynomials")
def test_criterion_3_narayana():
    for n in range(2, 8):
        require_narayana(n)
    three = make(3, [], [[1, 2, 3]])
    assert whitney_phi(three).polynomial == BiPoly.parse("u^2 + 3*u + 1")


@criterion(4, "brute, phi, psi and dp agree on the 520-member corpus")
def test_criterion_4_oracle_triangle(corpus):
    started = time.perf_counter()
    assert len(corpus) >= 500
    allowed = {(0, 0), (0, 1), (1, 0), (1, 1)}
    for h in corpus:
        assert h.n <= 8
        assert all(len(c) <= 5 for c in h.alpha.cycles())
        assert refinement_count(h.alpha) <= REFINEMENT_CAP
        require_routes_agree(h, (whitney_phi, whitney_psi, whitney_dp))
        for _, _, eu, ev in walk_branches(h, keep_connected=False):
            assert (eu, ev) in allowed
        if h.kappa == 1:
            for _, child, _, _ in walk_branches(h, keep_connected=True):
                assert child.kappa == 1
    assert time.perf_counter() - started < 300.0


@criterion(5, "products, merges, planar duality and specializations")
def test_criterion_5_structural(corpus):
    nonempty = [h for h in corpus if h.n >= 1]
    pairs = list(zip(nonempty[0::2], nonempty[1::2]))[:80]
    for a, b in pairs:
        require_product(a, b, whitney_bruteforce)
    for h in corpus:
        if h.genus == 0:
            require_planar_duality(h)
        require_specializations(h)


@criterion(6, "medial shape, matching bijection, circuit counts, j(x)")
def test_criterion_6_medial(corpus):
    for h in corpus:
        require_medial_shape(h)
        require_matching_bijection(h)
        require_circuit_polynomial(h)
    # the worked six-point matching: beta = (1 2 3), two circuits
    lookalike = make(6, LOOKALIKE_SIGMA, [[1, 2, 3, 4], [5, 6]])
    m = medial_map(lookalike)
    matching = {}
    for i, j in [(1, 2), (2, 3), (3, 1), (4, 4), (5, 5), (6, 6)]:
        matching[plus(i)] = minus(j)
        matching[minus(j)] = plus(i)
    beta = matching_refinement(m, matching)
    assert beta == Permutation.from_cycles(6, [[1, 2, 3]])
    assert len(circuits_of_state(m, matching)) == 2


@criterion(7, "Eulerian coloring sums equal m^kappa R(m, m) at genus zero")
def test_criterion_7_coloring_sums(corpus):
    checked = maps_checked = 0
    for h in corpus:
        if h.genus != 0 or h.n > 8:
            continue
        require_coloring_sum(h)
        checked += 1
        if is_map(h):
            # For a map every medial vertex has 4 points (two matchings when
            # monochromatic) or, at a bud, 2 points with a single matching.
            # Bud vertices therefore always have valence 1 and stay out of
            # the exponent even though they are trivially monochromatic.
            med = medial_map(h)
            collapse = 0
            for lam in eulerian_edge_colorings(med, 2):
                mono = sum(
                    1
                    for cyc in med.vertices()
                    if len(cyc) == 4 and len({lam[p] for p in cyc}) == 1
                )
                collapse += 2 ** mono
            assert collapse == eulerian_valence_sum(h, 2)
            maps_checked += 1
    assert checked >= 100
    assert maps_checked >= 5


@criterion(8, "chromatic and flow identities, oracles, counterexamples")
def test_criterion_8_charflow(corpus):
    for h in corpus:
        require_interval_sums(h)
        require_flow_sum(h)
        if is_map(h):
            require_map_oracles(h)
        if all(len(c) <= 3 for c in h.alpha.cycles()):
            require_small_edge_counts(h, (2, 3, 5))
    # counterexample one: a 4-point hyperedge breaks the coloring reading
    four = make(4, [], [[1, 2, 3, 4]])
    chi4 = characteristic_polynomial(four)
    assert chi4 == UniPoly.parse("t^3 - 6*t^2 + 10*t - 5", var="t")
    assert proper_coloring_count(four, 2) == proper_coloring_enumeration(four, 2) == 0
    assert 2 ** four.kappa * chi4.evaluate(2) == -2
    # counterexample two: over GF(2) the all-ones flow is nowhere zero on
    # alpha and on two distinct refinements, so uniqueness fails at length 4
    f = (1,) * 8
    assert is_flow(SEVEN, f, 2)
    beta1 = Permutation.from_cycles(8, [[1, 2], [3, 4], [5, 6], [7, 8]])
    beta2 = Permutation.from_cycles(8, [[1, 4], [2, 3], [5, 6], [7, 8]])
    for beta in (beta1, beta2):
        assert is_refinement(beta, SEVEN.alpha)
        assert is_flow(Hypermap(SEVEN.sigma, beta), f, 2)
    with pytest.raises(ValueError):
        unique_nz_refinement(SEVEN, f, 2)


def test_broken_route_fails_its_check_and_its_criterion(corpus, monkeypatch):
    # The selftest and criterion 8 share require_flow_sum, so a C(t) off by
    # one fails both, naming the identity and the collection, also under -O.
    real = charflow.flow_polynomial
    monkeypatch.setattr(charflow, "flow_polynomial", lambda h: real(h) + UniPoly.const(1))
    assert "flow-identity" in {r.name for r in run_selftest(4, 0) if not r.ok}
    h = corpus[0]
    message = f"sum of C(sigma, beta) == t^dim fails on {h!r}"
    with pytest.raises(AssertionError) as failure:
        require_flow_sum(h)
    assert str(failure.value) == message
    script = (
        "from hypermaps import charflow, selftest\n"
        "from hypermaps.hypermap import Hypermap\n"
        "from hypermaps.perm import Permutation\n"
        "from hypermaps.poly import UniPoly\n"
        "real = charflow.flow_polynomial\n"
        "charflow.flow_polynomial = lambda h: real(h) + UniPoly.const(1)\n"
        f"h = Hypermap(Permutation({list(h.sigma.image)}), "
        f"Permutation({list(h.alpha.image)}))\n"
        "try:\n"
        "    selftest.require_flow_sum(h)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                       text=True, timeout=300)
    assert (r.returncode, r.stdout.strip()) == (0, message), r.stderr


@criterion(9, "flow space dimensions and counts over GF(2), GF(3), GF(5)")
def test_criterion_9_flow_space(corpus):
    for h in corpus:
        require_flow_space(h, (2, 3, 5), max_listed=2048)
    for q in (2, 3, 5):
        assert flow_space(SEVEN, q).dimension == 2


@criterion(10, "recursive Moebius function matches the signed Catalans")
def test_criterion_10_mobius():
    for m in range(1, 8):
        alpha = Permutation.from_cycles(m, [list(range(1, m + 1))])
        bottom = Permutation.identity(m)
        want = (-1) ** (m - 1) * catalan(m - 1)
        assert mobius(bottom, alpha) == want
        if m >= 2:
            total = sum(mobius(bottom, g) for g in interval(bottom, alpha))
            assert total == 0
            total_up = sum(mobius(g, alpha) for g in interval(bottom, alpha))
            assert total_up == 0
    # multiplicative across hyperedge cycles
    alpha = Permutation.from_cycles(7, [[1, 2, 3, 4], [5, 6, 7]])
    assert mobius(Permutation.identity(7), alpha) == (-5) * 2
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "Catalan(m-1)" in readme.read_text()


@criterion(11, "digraph to hypermap round trip on 50 Eulerian digraphs")
def test_criterion_11_digraph_round_trip():
    rng = random.Random(61)
    for _ in range(50):
        require_digraph_roundtrip(random_eulerian_digraph(rng))


@criterion(12, "CLI selftest passes, reruns byte-identical, errors clean")
def test_criterion_12_cli():
    first = run_cli(["selftest", "--seed=0"])
    second = run_cli(["selftest", "--seed=0"])
    assert first.returncode == 0
    assert "30/30 checks passed" in first.stdout
    assert first.stdout == second.stdout
    doc = "sigma: (1 4)(2 5)(3)\nalpha: (1 2 3)(4 5)\n"
    a = run_cli(["whitney", "--method=all", "--json"], doc)
    b = run_cli(["whitney", "--method=all", "--json"], doc)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert set(payload) == {"input_echo", "result", "method", "stats"}
    for bad in (
        "sigma: (1 4\nalpha: (1 2)\n",
        "sigma: (1 1)\nalpha: (1)\n",
        "alpha: (1 2)\n",
        "{not json",
    ):
        r = run_cli(["genus"], bad)
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr
