import random
from itertools import islice

import pytest

from hypermaps.nclattice import refinements
from hypermaps.perm import Permutation
from hypermaps.selftest import random_collection, random_permutation
from hypermaps.routes import _phi_k_tables, _relabel


def test_identity():
    p = Permutation.identity(4)
    assert p.n == 4
    assert all(p(i) == i for i in range(1, 5))
    assert p == Permutation([1, 2, 3, 4])
    assert p.cycle_count == 4


def test_from_cycles():
    p = Permutation.from_cycles(5, [[1, 2, 3], [4, 5]])
    assert p(1) == 2 and p(2) == 3 and p(3) == 1
    assert p(4) == 5 and p(5) == 4
    assert p.cycles() == ((1, 2, 3), (4, 5))


def test_from_cycles_fixed_points_implicit():
    p = Permutation.from_cycles(4, [[2, 3]])
    assert p(1) == 1 and p(4) == 4
    assert p.cycles() == ((1,), (2, 3), (4,))


def test_builders_equal_checked_permutations():
    # these builders skip the image check of Permutation(images), since
    # their results are permutations by construction
    rng = random.Random(17)
    for _ in range(200):
        h = random_collection(rng, n_max=9)
        n = h.n
        p, q, r = h.sigma, h.alpha, random_permutation(rng, n)
        i, j = rng.randint(1, n), rng.randint(1, n)
        built = [
            p.inverse(),
            p * q,
            p.swap_values(i, j),
            p.relabel(r),
            Permutation.from_cycles(n, rng.sample(p.cycles(), p.cycle_count)),
        ]
        cycle = max(q.cycles(), key=len)
        if len(cycle) >= 2:
            k = rng.randint(1, len(cycle))
            tables = _phi_k_tables(p._image, q._image, cycle, k)[:2]
            built += map(Permutation._unchecked, tables)
        for comp in h.components():
            tables = _relabel(p._image, q._image, comp)
            built += map(Permutation._unchecked, tables)
        built += islice(refinements(q), 20)
        for b in built:
            checked = Permutation(b.image)
            assert b == checked and hash(b) == hash(checked)
            assert b.cycles() == checked.cycles()


def test_checked_construction_still_raises():
    for images in ([1, 1], [0, 1], [2, 3], [1, 2.0]):
        with pytest.raises(ValueError):
            Permutation(images)
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [[1, 2, 1]])
    p = Permutation.identity(3)
    with pytest.raises(ValueError):
        p.swap_values(1, 4)
    with pytest.raises(ValueError):
        p.relabel(Permutation.identity(4))


def test_from_cycles_rejects_duplicates():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [[1, 4]])


def test_composition_order():
    # (p * q)(i) = p(q(i)): the right factor acts first.
    p = Permutation.from_cycles(3, [[1, 2]])
    q = Permutation.from_cycles(3, [[2, 3]])
    assert (p * q)(3) == p(2) == 1
    assert (q * p)(3) == q(3) == 2


def test_dual_face_convention():
    # alpha^-1 sigma on the running five point example.
    sigma = Permutation.from_cycles(5, [[1, 4], [2, 5]])
    alpha = Permutation.from_cycles(5, [[1, 2, 3], [4, 5]])
    faces = alpha.inverse() * sigma
    assert faces.cycles() == ((1, 5), (2, 4, 3))


def test_inverse():
    p = Permutation.from_cycles(6, [[1, 2, 3, 4], [5, 6]])
    assert p * p.inverse() == Permutation.identity(6)
    assert p.inverse() * p == Permutation.identity(6)


def test_cycles_canonical_order():
    p = Permutation.from_cycles(6, [[5, 6], [3, 1, 2]])
    # each cycle starts at its minimum, cycles sorted by minimum
    assert p.cycles() == ((1, 2, 3), (4,), (5, 6))


def test_cycle_labels_with_fixed_points():
    p = Permutation.from_cycles(7, [[2, 5], [3, 7, 4]])
    assert p.cycles() == ((1,), (2, 5), (3, 7, 4), (6,))
    # labels[p] is the index in cycles() of p's cycle; index 0 is no point
    assert p.cycle_labels() == [0, 0, 1, 2, 2, 1, 3, 2]
    assert Permutation.identity(3).cycle_labels() == [0, 0, 1, 2]
    assert Permutation.identity(0).cycle_labels() == [0]


def test_cycle_containing_and_same_cycle():
    p = Permutation.from_cycles(5, [[1, 3, 5]])
    assert next(c for c in p.cycles() if 3 in c) == (1, 3, 5)
    labels = p.cycle_labels()
    assert labels[1] == labels[5] != labels[2]


def test_relabel_is_conjugation():
    p = Permutation.from_cycles(4, [[1, 2, 3]])
    r = Permutation.from_cycles(4, [[1, 4]])
    conj = p.relabel(r)
    assert conj == r * p * r.inverse()
    assert conj.cycles() == ((1,), (2, 3, 4))


def test_swap_values():
    p = Permutation.from_cycles(4, [[1, 2, 3, 4]])
    swapped = p.swap_values(1, 3)
    assert swapped == Permutation.transposition(4, 1, 3) * p


def test_transposition():
    t = Permutation.transposition(5, 2, 5)
    assert t(2) == 5 and t(5) == 2 and t(1) == 1
    assert t * t == Permutation.identity(5)


def test_cycle_string():
    p = Permutation.from_cycles(5, [[1, 3], [2, 5, 4]])
    assert p.cycle_string() == "(1 3)(2 5 4)"
    assert Permutation.identity(0).cycle_string() == "()"


def test_empty_permutation():
    p = Permutation.identity(0)
    assert p.n == 0
    assert p.cycle_count == 0
    assert p == Permutation([])


def test_hash_and_equality():
    a = Permutation.from_cycles(3, [[1, 2]])
    b = Permutation((2, 1, 3))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Permutation.identity(3)
