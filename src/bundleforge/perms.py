"""Finite permutations on {0, ..., n-1}, stored in one-line (image tuple) form."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotABijection, ShapeMismatch


@dataclass(frozen=True, order=True)
class Perm:
    """Permutation given by its image tuple: i maps to images[i]."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise NotABijection(f"not a permutation of 0..{n - 1}: {self.images}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Perm:
        """A Perm from images that are a permutation by construction; the
        sort in __post_init__ is skipped."""
        perm = object.__new__(cls)
        perm.__dict__["images"] = images
        return perm

    def __hash__(self) -> int:
        """The hash the generated one would give, hash((images,)), computed
        once: a Perm is looked up in dicts far more often than it is built."""
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.images,))
        return h

    @staticmethod
    def identity(n: int) -> Perm:
        return Perm._trusted(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: Perm) -> Perm:
        """Return self after other: i maps to self(other(i)).  Raises
        ShapeMismatch when the two act on different numbers of points."""
        if len(self.images) != len(other.images):
            raise ShapeMismatch(f"cannot compose permutations of {self.n} and {other.n} points")
        return Perm._trusted(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> Perm:
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._trusted(tuple(inv))

    def conjugate(self, g: Perm) -> Perm:
        """Return g ∘ self ∘ g⁻¹."""
        return g.compose(self).compose(g.inverse())

    def cycle_type(self) -> list[int]:
        """Cycle lengths in ascending order, fixed points included."""
        seen = [False] * self.n
        lengths = []
        for start in range(self.n):
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                length += 1
            if length:
                lengths.append(length)
        return sorted(lengths)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def kron(a: Perm, b: Perm) -> Perm:
    """Product action on pairs in lexicographic index order: (i, j) -> (a(i), b(j))."""
    nb = b.n
    return Perm._trusted(tuple(i * nb + j for i in a.images for j in b.images))
