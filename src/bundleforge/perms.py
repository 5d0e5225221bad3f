"""Finite permutations on {0, ..., n-1}, stored in one-line (image tuple) form."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotABijection


@dataclass(frozen=True, order=True)
class Perm:
    """Permutation given by its image tuple: i maps to images[i]."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise NotABijection(f"not a permutation of 0..{n - 1}: {self.images}")

    @staticmethod
    def identity(n: int) -> Perm:
        return Perm(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: Perm) -> Perm:
        """Return self after other: i maps to self(other(i))."""
        return Perm(tuple(self.images[j] for j in other.images))

    def inverse(self) -> Perm:
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))

    def conjugate(self, g: Perm) -> Perm:
        """Return g ∘ self ∘ g⁻¹."""
        return g.compose(self).compose(g.inverse())

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def kron(a: Perm, b: Perm) -> Perm:
    """Product action on pairs in lexicographic index order: (i, j) -> (a(i), b(j))."""
    nb = b.n
    images = [0] * (a.n * nb)
    for i in range(a.n):
        for j in range(nb):
            images[i * nb + j] = a(i) * nb + b(j)
    return Perm(tuple(images))
