import itertools
import math
import random
import tracemalloc

import pytest

from hypermaps.nclattice import catalan, refinement_count, refinements
from hypermaps.oracles import interval, is_refinement, mobius, noncrossing_partitions
from hypermaps.perm import Permutation
from hypermaps.selftest import (
    noncrossing_partition,
    random_collection,
    require_catalan_counts,
    require_mobius_recursion,
    require_refinement_membership,
)


def test_catalan_values():
    assert [catalan(m) for m in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_noncrossing_partition_counts():
    for m in range(1, 9):
        require_catalan_counts(m)


def reference_noncrossing_partitions(m):
    """Restricted growth strings with no crossing, blocks sorted, all sorted.

    A string s assigns position p to block s[p]; it crosses when some
    a < b < c < d has s[a] == s[c] != s[b] == s[d].
    """
    strings = [[]]
    for _ in range(m):
        strings = [s + [b] for s in strings for b in range(max(s, default=-1) + 2)]
    out = []
    for s in strings:
        quads = itertools.combinations(range(m), 4)
        if any(s[a] == s[c] != s[b] == s[d] for a, b, c, d in quads):
            continue
        blocks = [tuple(p for p in range(m) if s[p] == b) for b in set(s)]
        out.append(tuple(sorted(blocks)))
    return tuple(sorted(out))


def test_noncrossing_partitions_match_reference():
    for m in range(10):
        assert noncrossing_partitions(m) == reference_noncrossing_partitions(m)


def test_noncrossing_partition_unranks_the_sorted_list():
    """The selftest draws partitions by index; every index of n <= 8 must
    give the same partition as the sorted list, so seeded draws match."""
    for n in range(1, 9):
        listed = noncrossing_partitions(n)
        unranked = [tuple(noncrossing_partition(n, i)) for i in range(len(listed))]
        assert unranked == list(listed)
    assert noncrossing_partition(3, 0, first=5) == [(5,), (6,), (7,)]


def test_noncrossing_partitions_of_three():
    # partitions of positions 0..m-1
    parts = set(noncrossing_partitions(3))
    expected = {
        ((0,), (1,), (2,)),
        ((0, 1), (2,)),
        ((0,), (1, 2)),
        ((0, 2), (1,)),
        ((0, 1, 2),),
    }
    assert parts == expected


def test_crossing_partition_absent():
    parts = set(noncrossing_partitions(4))
    assert ((0, 2), (1, 3)) not in parts
    assert len(parts) == 14


def test_refinements_of_four_cycle():
    alpha = Permutation.from_cycles(4, [[1, 2, 3, 4]])
    refs = list(refinements(alpha))
    assert len(refs) == 14
    assert refinement_count(alpha) == 14
    crossing = Permutation.from_cycles(4, [[1, 3], [2, 4]])
    assert crossing not in refs
    assert not is_refinement(crossing, alpha)


def test_refinement_blocks_keep_cyclic_order():
    # inside (1 2 3 4) the block {1, 2, 4} must appear as the cycle (1 2 4)
    alpha = Permutation.from_cycles(4, [[1, 2, 3, 4]])
    good = Permutation.from_cycles(4, [[1, 2, 4]])
    bad = Permutation.from_cycles(4, [[1, 4, 2]])
    assert is_refinement(good, alpha)
    assert not is_refinement(bad, alpha)


def test_refinement_count_multiplies_over_cycles():
    alpha = Permutation.from_cycles(7, [[1, 2, 3, 4], [5, 6, 7]])
    assert refinement_count(alpha) == catalan(4) * catalan(3)
    assert len(list(refinements(alpha))) == 14 * 5


def test_refinement_respects_cycle_support():
    alpha = Permutation.from_cycles(4, [[1, 2], [3, 4]])
    across = Permutation.from_cycles(4, [[1, 3]])
    assert not is_refinement(across, alpha)
    assert is_refinement(Permutation.identity(4), alpha)
    assert is_refinement(alpha, alpha)


def test_interval():
    alpha = Permutation.from_cycles(3, [[1, 2, 3]])
    beta = Permutation.from_cycles(3, [[1, 2]])
    between = interval(beta, alpha)
    assert beta in between and alpha in between
    assert len(between) == 2  # only (1 2)(3) and (1 2 3)


def test_interval_requires_refinement():
    alpha = Permutation.from_cycles(3, [[1, 2, 3]])
    beta = Permutation.from_cycles(3, [[1, 3, 2]])
    with pytest.raises(ValueError):
        interval(beta, alpha)


def test_mobius_identity_interval():
    alpha = Permutation.from_cycles(4, [[1, 2, 3, 4]])
    assert mobius(alpha, alpha) == 1
    beta = Permutation.from_cycles(4, [[1, 2, 3]])
    assert mobius(beta, alpha) == -1


def test_mobius_full_lattice_closed_form():
    # mu over the full cycle interval equals signed Catalan numbers
    expected = [1, -1, 2, -5, 14, -42, 132]
    for m, want in zip(range(1, 8), expected):
        alpha = Permutation.from_cycles(m, [list(range(1, m + 1))])
        assert mobius(Permutation.identity(m), alpha) == want


def test_mobius_sum_over_interval_is_zero():
    alpha = Permutation.from_cycles(4, [[1, 2, 3, 4]])
    bottom = Permutation.identity(4)
    total = sum(mobius(bottom, gamma) for gamma in interval(bottom, alpha))
    assert total == 0


def test_mobius_satisfies_defining_recursion():
    rng = random.Random(31)
    alphas = [Permutation.from_cycles(6, [[1, 2, 3, 4, 5, 6]])]
    alphas += [random_collection(rng, n_max=6, max_cycle=6).alpha for _ in range(12)]
    for alpha in alphas:
        require_mobius_recursion(alpha)


def test_mobius_multiplicative_over_cycles():
    alpha = Permutation.from_cycles(5, [[1, 2, 3], [4, 5]])
    bottom = Permutation.identity(5)
    three = Permutation.from_cycles(3, [[1, 2, 3]])
    two = Permutation.from_cycles(2, [[1, 2]])
    assert mobius(bottom, alpha) == (
        mobius(Permutation.identity(3), three) * mobius(Permutation.identity(2), two)
    )


def test_mobius_requires_refinement():
    alpha = Permutation.from_cycles(4, [[1, 2, 3, 4]])
    crossing = Permutation.from_cycles(4, [[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        mobius(crossing, alpha)


def test_refinements_are_exactly_the_members():
    for alpha in (
        Permutation.identity(0),
        Permutation.identity(1),
        Permutation.from_cycles(4, [[1, 2, 3, 4]]),
        Permutation.from_cycles(5, [[1, 2, 3], [4, 5]]),
        Permutation.from_cycles(6, [[2, 5, 1, 6]]),  # fixed points 3 and 4
    ):
        assert require_refinement_membership(alpha) == math.factorial(alpha.n)


def test_streamed_refinements_are_distinct_and_kept():
    """Each yielded beta owns its table: a later one never rewrites it."""
    rng = random.Random(17)
    for _ in range(60):
        alpha = random_collection(rng, n_max=8, max_cycle=6).alpha
        listed = list(refinements(alpha))
        assert len({b.image for b in listed}) == refinement_count(alpha)
        assert all(is_refinement(b, alpha) for b in listed)


def test_refinement_order_is_pinned():
    # Seeded callers draw rng.choice(list(refinements(alpha))), so the order
    # is part of the output.  Shorter cycles are read first; at each point
    # the walk takes the open move first, then joins from the bottom of the
    # stack up.  Rows are beta(1), ..., beta(n).
    four = Permutation.from_cycles(4, [[1, 2, 3, 4]])
    assert [b.image for b in refinements(four)] == [
        (1, 2, 3, 4), (4, 2, 3, 1), (1, 4, 3, 2), (1, 2, 4, 3),
        (3, 2, 1, 4), (3, 2, 4, 1), (1, 3, 2, 4), (4, 3, 2, 1),
        (1, 3, 4, 2), (2, 1, 3, 4), (2, 4, 3, 1), (2, 1, 4, 3),
        (2, 3, 1, 4), (2, 3, 4, 1),
    ]
    two = Permutation.from_cycles(5, [[1, 2, 3], [4, 5]])
    assert [b.image for b in refinements(two)] == [
        (1, 2, 3, 4, 5), (3, 2, 1, 4, 5), (1, 3, 2, 4, 5), (2, 1, 3, 4, 5),
        (2, 3, 1, 4, 5), (1, 2, 3, 5, 4), (3, 2, 1, 5, 4), (1, 3, 2, 5, 4),
        (2, 1, 3, 5, 4), (2, 3, 1, 5, 4),
    ]


def test_refinements_are_distinct_up_to_ten_points():
    rng = random.Random(18)
    alphas = [Permutation.from_cycles(10, [range(1, 11)]), Permutation.identity(10)]
    alphas += [random_collection(rng, n_max=10, max_cycle=10).alpha
               for _ in range(40)]
    assert max(a.n for a in alphas) == 10
    for alpha in alphas:
        tables = [b.image for b in refinements(alpha)]
        assert len(tables) == len(set(tables)) == refinement_count(alpha), alpha


def test_refinements_stream_in_constant_memory():
    # an 11-cycle has 58,786 refinements; listing them all took 18.7 MiB
    alpha = Permutation.from_cycles(11, [range(1, 12)])
    tracemalloc.start()
    try:
        count = sum(1 for _ in refinements(alpha))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == catalan(11)
    assert peak < 2 ** 20
