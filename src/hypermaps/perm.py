"""Permutations on the point set {1, ..., n}.

Everything downstream works with pairs of these, so the conventions are pinned
here once:

* points are the integers 1..n, contiguous; index 0 of the internal image
  table is a dummy so that ``p(i)`` is ``image[i]``;
* composition is ``(p * q)(i) = p(q(i))``, the right factor acts first;
* cycles are printed with each cycle starting at its smallest point and
  cycles sorted by smallest point, fixed points included.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple


class Permutation:
    """An immutable permutation of {1..n}."""

    __slots__ = ("_image", "_cycles")

    def __init__(self, images: Iterable[int]):
        img = (0,) + tuple(images)
        n = len(img) - 1
        seen = [False] * (n + 1)
        for i in range(1, n + 1):
            j = img[i]
            if not isinstance(j, int) or not 1 <= j <= n or seen[j]:
                raise ValueError(f"not a permutation of 1..{n}: image {img[1:]}")
            seen[j] = True
        self._image = img
        self._cycles: Tuple[Tuple[int, ...], ...] | None = None

    @classmethod
    def _unchecked(cls, img: Tuple[int, ...]) -> "Permutation":
        """Wrap an image table (dummy 0 first) that is a permutation by construction."""
        p = cls.__new__(cls)
        p._image = img
        p._cycles = None
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from a list of cycles; points not mentioned are fixed."""
        img = list(range(n + 1))
        touched = [False] * (n + 1)
        for cyc in cycles:
            for a in cyc:
                if not 1 <= a <= n:
                    raise ValueError(f"point {a} out of range 1..{n}")
                if touched[a]:
                    raise ValueError(f"point {a} appears twice")
                touched[a] = True
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                img[a] = b
        return cls._unchecked(tuple(img))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if i == j:
            return cls.identity(n)
        return cls.from_cycles(n, [(i, j)])

    @property
    def n(self) -> int:
        return len(self._image) - 1

    @property
    def image(self) -> Tuple[int, ...]:
        """Images of 1..n, as a tuple of length n."""
        return self._image[1:]

    def __call__(self, i: int) -> int:
        return self._image[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(i) = p(q(i)): other acts first.
        p, q = self._image, other._image
        if len(p) != len(q):
            raise ValueError("size mismatch")
        return Permutation._unchecked(tuple([p[i] for i in q]))

    def inverse(self) -> "Permutation":
        img = self._image
        inv = [0] * len(img)
        for i in range(1, len(img)):
            inv[img[i]] = i
        return Permutation._unchecked(tuple(inv))

    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """Canonical cycles: each starts at its minimum, sorted by minimum."""
        if self._cycles is None:
            img = self._image
            n = len(img) - 1
            seen = [False] * (n + 1)
            out = []
            for i in range(1, n + 1):
                if not seen[i]:
                    cyc = []
                    j = i
                    while not seen[j]:
                        seen[j] = True
                        cyc.append(j)
                        j = img[j]
                    out.append(tuple(cyc))
            self._cycles = tuple(out)
        return self._cycles

    def cycle_labels(self) -> List[int]:
        """labels[p] is the position in ``cycles()`` of p's cycle; labels[0] = 0."""
        labels = [0] * len(self._image)
        for idx, c in enumerate(self.cycles()):
            for p in c:
                labels[p] = idx
        return labels

    @property
    def cycle_count(self) -> int:
        return len(self.cycles())

    def relabel(self, r: "Permutation") -> "Permutation":
        """Conjugate by r: the result maps r(i) to r(self(i))."""
        img = self._image
        rimg = r._image
        if len(rimg) != len(img):
            raise ValueError("size mismatch")
        out = [0] * len(img)
        for i in range(1, len(img)):
            out[rimg[i]] = rimg[img[i]]
        return Permutation._unchecked(tuple(out))

    def swap_values(self, i: int, j: int) -> "Permutation":
        """(i, j) * self, computed without building the transposition."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"point out of range 1..{self.n}")
        return Permutation._unchecked(swap_values(self._image, i, j))

    def cycle_string(self) -> str:
        return cycle_text(self.cycles())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._image == other._image

    def __hash__(self) -> int:
        return hash(self._image)

    def __repr__(self) -> str:
        return f"Permutation.from_cycles({self.n}, {list(self.cycles())})"


def cycle_text(cycles: Iterable[Sequence], name: Callable = str) -> str:
    """Cycles written as ``(1 2)(3)``, each point as name(point); none as ``()``."""
    return "".join("(" + " ".join(map(name, c)) + ")" for c in cycles) or "()"


def swap_values(img: Tuple[int, ...], i: int, j: int) -> Tuple[int, ...]:
    """(i, j) * img on an image table (dummy 0 first), for points i and j."""
    out = list(img)
    out[img.index(i)], out[img.index(j)] = j, i
    return tuple(out)
