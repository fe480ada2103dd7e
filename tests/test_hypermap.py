import random
import subprocess
import sys

import pytest

from builders import make
from hypermaps.hypermap import Hypermap, dual, merge_components, orbit_count
from hypermaps.perm import Permutation
from hypermaps.selftest import random_permutation


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


def test_dual_of_running_example():
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    d = dual(h)
    assert d.sigma.cycles() == ((1, 5), (2, 4, 3))
    assert d.alpha == h.alpha.inverse()
    # faces of the dual are the original vertices
    assert d.faces().cycle_count == h.sigma.cycle_count
    assert d.genus == h.genus


def test_dual_is_an_involution():
    """dual(dual(sigma, alpha)) = (alpha * alpha^-1 sigma, alpha) exactly."""
    h = make(5, [[1, 4], [2, 5]], [[1, 2, 3], [4, 5]])
    assert dual(dual(h)) == h
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 9)
        h = Hypermap(random_permutation(rng, n), random_permutation(rng, n))
        assert dual(dual(h)) == h


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
