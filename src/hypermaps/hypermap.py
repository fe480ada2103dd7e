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


def orbits(sig: Tuple[int, ...], alf: Tuple[int, ...]) -> List[List[int]]:
    """Orbits of <sig, alf> on image tables, each unsorted, ordered by minimum."""
    seen = [False] * len(sig)
    comps = []
    for start in range(1, len(sig)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for p in comp:
            q = sig[p]
            if not seen[q]:
                seen[q] = True
                comp.append(q)
            q = alf[p]
            if not seen[q]:
                seen[q] = True
                comp.append(q)
        comps.append(comp)
    return comps


def orbit_count(p: Permutation, q: Permutation) -> int:
    """Number of orbits of the group generated by p and q."""
    if q.n != p.n:
        raise ValueError("size mismatch")
    return len(orbits(p._image, q._image))


def cycle_count(img) -> int:
    """Number of cycles of an image table (dummy 0 first)."""
    # each cycle is first met at its minimum, which need not be marked
    seen = [False] * len(img)
    count = 0
    for i in range(1, len(img)):
        if not seen[i]:
            count += 1
            j = img[i]
            while j != i:
                seen[j] = True
                j = img[j]
    return count


def euler_number(sig: Tuple[int, ...], alf: Tuple[int, ...], kappa: int) -> int:
    """2 * genus from image tables, checked to be even and nonnegative."""
    sinv = [0] * len(sig)
    for p, q in enumerate(sig):
        sinv[q] = p
    euler = len(sig) - 1 + 2 * kappa - cycle_count(sig) - cycle_count(alf)
    euler -= cycle_count([sinv[a] for a in alf])  # z(sigma^-1 alpha) = z(faces)
    if euler < 0 or euler % 2:
        raise ValueError(f"genus parity violated: {euler}")
    return euler


class Hypermap:
    """A collection of hypermaps; connected exactly when ``kappa == 1``.

    kappa and genus are computed eagerly.  Instances are immutable and safe
    to share across threads.
    """

    __slots__ = ("sigma", "alpha", "n", "kappa", "genus")

    def __init__(self, sigma: Permutation, alpha: Permutation):
        if sigma.n != alpha.n:
            raise ValueError("sigma and alpha act on different point sets")
        self.sigma = sigma
        self.alpha = alpha
        self.n = sigma.n
        self.kappa = orbit_count(sigma, alpha)
        self.genus = euler_number(sigma._image, alpha._image, self.kappa) // 2

    def faces(self) -> Permutation:
        """alpha^-1 * sigma, whose cycles are the faces."""
        return self.alpha.inverse() * self.sigma

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """Orbits of the generated group, each sorted, ordered by minimum."""
        comps = orbits(self.sigma._image, self.alpha._image)
        return tuple(tuple(sorted(c)) for c in comps)

    def relabel(self, r: Permutation) -> "Hypermap":
        return Hypermap(self.sigma.relabel(r), self.alpha.relabel(r))

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
