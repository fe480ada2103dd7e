"""The depth-first refinement walk (``nclattice.refinement_walk``).

It serves the brute-force Whitney route and the interval polynomial X, and
is checked three ways on one seeded corpus: against the definitional sums
of ``oracles``, which build a ``Permutation`` per refinement, and against
the frontier DP, whose state merging it exists to check.
"""

import random
import subprocess
import sys

from hypermaps.charflow import x_interval
from hypermaps.nclattice import (
    mobius_nc,
    refinement_count,
    refinement_profile,
    refinement_walk,
    refinements,
)
from hypermaps.oracles import whitney_refinement_sum, x_interval_sum
from hypermaps.whitney import whitney_bruteforce, whitney_dp
from test_frontier import SPECIAL, seeded_collections

CORPUS = SPECIAL + seeded_collections(1401, 1000)


def test_corpus_reaches_every_kind_of_input():
    assert len(CORPUS) >= 1000 and max(h.n for h in CORPUS) <= 8
    assert any(h.n == 0 for h in CORPUS)
    assert sum(h.genus > 0 for h in CORPUS) > 100
    assert sum(h.kappa > 1 for h in CORPUS) > 100
    assert sum(any(len(c) == 1 for c in h.alpha.cycles()) for h in CORPUS) > 100


def test_bruteforce_equals_definition_and_dp():
    for h in CORPUS:
        brute = whitney_bruteforce(h)
        assert brute.polynomial == whitney_refinement_sum(h), h
        assert brute.polynomial == whitney_dp(h).polynomial, h
        assert brute.stats.nodes == refinement_count(h.alpha)


def test_block_weighted_walk_equals_dp_level_form():
    for h in CORPUS:
        walked = refinement_walk(h.alpha, h.sigma.cycle_labels(), mobius_nc)
        assert walked == refinement_profile(h, block_weight=mobius_nc)[0], h


def test_x_interval_equals_definition():
    rng = random.Random(1402)
    for h in CORPUS:
        alpha2 = rng.choice(list(refinements(h.alpha)))
        alpha1 = rng.choice(list(refinements(alpha2)))
        assert x_interval(h, alpha1, alpha2) == x_interval_sum(h, alpha1, alpha2), (
            h, alpha1, alpha2)


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
