import itertools
import random
import subprocess
import sys

import pytest

from hypermaps.hypermap import Hypermap, dual, merge_components, orbit_count
from hypermaps.perm import Permutation
from hypermaps.selftest import random_permutation


def make(n, sigma_cycles, alpha_cycles):
    return Hypermap(
        Permutation.from_cycles(n, sigma_cycles),
        Permutation.from_cycles(n, alpha_cycles),
    )


def test_running_example_counts():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    assert h.kappa == 1
    assert h.is_connected
    assert h.genus == 0
    assert h.faces().cycles() == ((1, 5), (2, 4, 3))
    assert not h.is_map


def test_orbit_count():
    p = Permutation.from_cycles(6, [[1, 2], [3, 4]])
    q = Permutation.from_cycles(6, [[2, 3]])
    assert orbit_count(p, q) == 3  # {1,2,3,4}, {5}, {6}


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        Hypermap(Permutation.identity(3), Permutation.identity(4))


def test_empty_hypermap():
    h = make(0, [], [])
    assert h.n == 0
    assert h.kappa == 0
    assert h.genus == 0


def test_single_point():
    h = make(1, [], [])
    assert h.kappa == 1
    assert h.genus == 0
    assert h.is_map


def test_torus_map():
    # one vertex, one edge pair... smallest genus one map: sigma a 4-cycle,
    # alpha two transpositions interleaved
    h = make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]])
    assert h.kappa == 1
    assert h.genus == 1
    assert h.is_map


def test_genus_additive_over_components():
    a = make(4, [[1, 2, 3, 4]], [[1, 3], [2, 4]])
    b = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    u = a.disjoint_union(b)
    assert u.kappa == 2
    assert u.genus == a.genus + b.genus
    assert u.components() == ((1, 2, 3, 4), (5, 6, 7, 8, 9))


def test_components_partition_points():
    h = make(6, [[1, 2]], [[3, 4], [5, 6]])
    comps = h.components()
    assert sorted(p for comp in comps for p in comp) == list(range(1, 7))
    assert h.kappa == len(comps) == 3


def test_canonical_key_invariant_under_relabeling():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    r = Permutation.from_cycles(5, [[1, 3, 5, 2, 4]])
    assert h.relabel(r).canonical_key() == h.canonical_key()


def test_canonical_key_separates_lookalike_pair():
    sigma = [[1, 5], [2, 6]]
    a = make(6, sigma, [[1, 2, 3, 4], [5, 6]])
    b = make(6, sigma, [[1, 4, 2, 3], [5, 6]])
    assert a.canonical_key() != b.canonical_key()


def test_canonical_key_exact_on_small_instances():
    """Exhaustive n <= 4: the key is constant on each conjugacy orbit of
    pairs and differs between orbits, so keys match exactly when some
    relabeling carries one pair to the other."""
    for n in range(5):
        perms = [Permutation(im) for im in itertools.permutations(range(1, n + 1))]
        unseen = {(s, a) for s in perms for a in perms}
        orbit_keys = []
        while unseen:
            s, a = unseen.pop()
            key = Hypermap(s, a).canonical_key()
            for r in perms:
                pair = (s.relabel(r), a.relabel(r))
                assert Hypermap(*pair).canonical_key() == key
                unseen.discard(pair)
            orbit_keys.append(key)
        assert len(set(orbit_keys)) == len(orbit_keys)


def test_canonical_key_invariant_on_collections():
    """Seeded collections of up to 9 points with several components: random
    relabelings keep the key.  Pieces of 5 or 6 random points often hold
    points of one type that no automorphism exchanges, where a key that
    depended on the root chosen inside the root class would change."""
    rng = random.Random(2024)

    def piece(n):
        return Hypermap(random_permutation(rng, n), random_permutation(rng, n))

    checked = 0
    while checked < 150:
        h = piece(rng.randint(2, 6))
        while h.n < 9 and (h.kappa < 2 or rng.random() < 0.5):
            h = h.disjoint_union(piece(rng.randint(1, 9 - h.n)))
        if h.kappa < 2:
            continue
        key = h.canonical_key()
        for _ in range(10):
            assert h.relabel(random_permutation(rng, h.n)).canonical_key() == key
        checked += 1


def test_dual_of_running_example():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    d = dual(h)
    assert d.sigma.cycles() == ((1, 5), (2, 4, 3))
    assert d.alpha == h.alpha.inverse()
    # faces of the dual are the original vertices
    assert d.faces().cycle_count == h.sigma.cycle_count
    assert d.genus == h.genus


def test_dual_involution_up_to_isomorphism():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    dd = dual(dual(h))
    assert dd.canonical_key() == h.canonical_key()


def test_merge_components():
    a = make(2, [[1, 2]], [])
    b = make(3, [[1, 2, 3]], [])
    u = a.disjoint_union(b)
    merged = merge_components(u, 1, 3)
    assert merged.kappa == 1
    assert merged.genus == u.genus


def test_merge_same_component_rejected():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    with pytest.raises(ValueError):
        merge_components(h, 1, 2)


MERGE_OUT_OF_RANGE = """
from hypermaps.hypermap import Hypermap, merge_components
from hypermaps.perm import Permutation
h = Hypermap(Permutation.from_cycles(4, [[1, 2]]), Permutation.from_cycles(4, [[3, 4]]))
for i, j in ((7, 9), (1, 9), (0, 3)):
    try:
        merge_components(h, i, j)
    except ValueError as exc:
        print(exc)
"""


def test_merge_rejects_points_out_of_range():
    h = make(4, [[1, 2]], [[3, 4]])
    assert h.kappa == 2
    for i, j, bad in ((7, 9, 7), (1, 9, 9), (0, 3, 0)):
        with pytest.raises(ValueError, match=f"^point {bad} out of range 1..4$"):
            merge_components(h, i, j)
    # The same answers when asserts are stripped.
    r = subprocess.run(
        [sys.executable, "-O", "-c", MERGE_OUT_OF_RANGE],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "point 7 out of range 1..4",
        "point 9 out of range 1..4",
        "point 0 out of range 1..4",
    ]


def test_hypermap_equality_and_hash():
    h1 = make(3, [[1, 2]], [[2, 3]])
    h2 = make(3, [[1, 2]], [[2, 3]])
    assert h1 == h2
    assert hash(h1) == hash(h2)
    assert h1 != make(3, [[1, 2]], [[1, 3]])
