"""Hypermaps as pairs of permutations.

A pair (sigma, alpha) on 1..n encodes a collection of hypermaps: cycles of
sigma are vertices, cycles of alpha are hyperedges, and cycles of
alpha^-1 * sigma are faces.  The pair is a single (connected) hypermap when
the group generated by sigma and alpha is transitive, i.e. kappa == 1.

The genus of a collection satisfies

    2 * genus = n + 2 * kappa - z(sigma) - z(alpha) - z(alpha^-1 sigma)

where z counts cycles and kappa counts orbits of the generated group.  The
right side is always an even nonnegative integer; the constructor checks it.
"""

from __future__ import annotations

from typing import List, Tuple

from .perm import Permutation


def orbit_count(p: Permutation, q: Permutation) -> int:
    """Number of orbits of the group generated by p and q."""
    n = p.n
    if q.n != n:
        raise ValueError("size mismatch")
    pimg, qimg = p._image, q._image
    seen = [False] * (n + 1)
    count = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for y in (pimg[x], qimg[x]):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


class Hypermap:
    """A collection of hypermaps; connected exactly when ``kappa == 1``.

    kappa and genus are computed eagerly.  Instances are immutable and safe
    to share across threads.
    """

    __slots__ = ("sigma", "alpha", "n", "kappa", "genus", "_faces")

    def __init__(self, sigma: Permutation, alpha: Permutation):
        if sigma.n != alpha.n:
            raise ValueError("sigma and alpha act on different point sets")
        self.sigma = sigma
        self.alpha = alpha
        self.n = sigma.n
        self.kappa = orbit_count(sigma, alpha)
        self._faces = alpha.inverse() * sigma
        euler = (
            self.n
            + 2 * self.kappa
            - sigma.cycle_count
            - alpha.cycle_count
            - self._faces.cycle_count
        )
        if euler < 0 or euler % 2:
            raise ValueError(f"genus parity violated: {euler}")
        self.genus = euler // 2

    @property
    def is_connected(self) -> bool:
        return self.kappa <= 1

    def faces(self) -> Permutation:
        """alpha^-1 * sigma, whose cycles are the faces."""
        return self._faces

    @property
    def is_map(self) -> bool:
        """True when every alpha-cycle has length at most 2."""
        return all(len(c) <= 2 for c in self.alpha.cycles())

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """Orbits of the generated group, each sorted, ordered by minimum."""
        n = self.n
        if self.kappa == 1:
            return (tuple(range(1, n + 1)),)
        sig, alf = self.sigma._image, self.alpha._image
        seen = [False] * (n + 1)
        comps: List[Tuple[int, ...]] = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                p = stack.pop()
                comp.append(p)
                for q in (sig[p], alf[p]):
                    if not seen[q]:
                        seen[q] = True
                        stack.append(q)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def component_images(
        self, points: Tuple[int, ...]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Image tables of sigma and alpha on a sorted union of components.

        The points are relabeled onto 1..m, keeping their relative order:
        the i-th smallest becomes i.  Each table has the dummy 0 first, as
        in ``Permutation._image``; on the whole point set they are sigma's
        and alpha's own.
        """
        sig, alf = self.sigma._image, self.alpha._image
        if len(points) == self.n:
            return sig, alf
        label = [0] * (self.n + 1)
        for i, p in enumerate(points, 1):
            label[p] = i
        return (
            tuple([0] + [label[sig[p]] for p in points]),
            tuple([0] + [label[alf[p]] for p in points]),
        )

    def relabel(self, r: Permutation) -> "Hypermap":
        return Hypermap(self.sigma.relabel(r), self.alpha.relabel(r))

    def disjoint_union(self, other: "Hypermap") -> "Hypermap":
        """Place other's points after self's (shifted by self.n)."""
        shift = self.n
        sig = list(self.sigma.image) + [x + shift for x in other.sigma.image]
        alf = list(self.alpha.image) + [x + shift for x in other.alpha.image]
        return Hypermap(Permutation(sig), Permutation(alf))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypermap)
            and self.sigma == other.sigma
            and self.alpha == other.alpha
        )

    def __hash__(self) -> int:
        return hash((self.sigma, self.alpha))

    def __repr__(self) -> str:
        return (
            f"Hypermap(sigma={self.sigma.cycle_string()}, "
            f"alpha={self.alpha.cycle_string()})"
        )


def merge_components(h: Hypermap, i: int, j: int) -> Hypermap:
    """Replace sigma by (i, j) * sigma, for i and j in different components.

    This keeps the Whitney polynomial unchanged while lowering kappa by one.
    """
    for p in (i, j):
        if not 1 <= p <= h.n:
            raise ValueError(f"point {p} out of range 1..{h.n}")
    for comp in h.components():
        if i in comp and j in comp:
            raise ValueError(f"points {i} and {j} lie in the same component")
    return Hypermap(h.sigma.swap_values(i, j), h.alpha)


def dual(h: Hypermap) -> Hypermap:
    """The dual pair (alpha^-1 sigma, alpha^-1)."""
    ainv = h.alpha.inverse()
    return Hypermap(ainv * h.sigma, ainv)
