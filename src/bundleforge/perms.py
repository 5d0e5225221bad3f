"""Finite permutations on {0, ..., n-1}, in one-line form.

A Perm is its image tuple: p[i] is the image of i, and it equals, hashes
and orders as that tuple.  Perm(images) validates; what the library
derives is built with tuple.__new__(Perm, ...), as these methods do."""

from __future__ import annotations

from typing import Iterable

from .errors import NotABijection, ShapeMismatch


class Perm(tuple):
    """Permutation given by its image tuple: i maps to p[i]."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> Perm:
        p = tuple.__new__(cls, images)
        if sorted(p) != list(range(len(p))):
            raise NotABijection(f"not a permutation of 0..{len(p) - 1}: {tuple(p)}")
        return p

    @staticmethod
    def identity(n: int) -> Perm:
        return tuple.__new__(Perm, range(n))

    @property
    def n(self) -> int:
        return len(self)

    def compose(self, other: Perm) -> Perm:
        """Return self after other: i maps to self[other[i]].  Raises
        ShapeMismatch when the two act on different numbers of points."""
        if len(self) != len(other):
            raise ShapeMismatch(f"cannot compose permutations of {len(self)} and {len(other)} points")
        return tuple.__new__(Perm, map(self.__getitem__, other))

    def inverse(self) -> Perm:
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return tuple.__new__(Perm, inv)

    def cycle_type(self) -> list[int]:
        """Cycle lengths in ascending order, fixed points included."""
        seen = [False] * len(self)
        lengths = []
        for start in range(len(self)):
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = self[i]
                length += 1
            if length:
                lengths.append(length)
        return sorted(lengths)

    def is_identity(self) -> bool:
        return self == tuple(range(len(self)))

    def __repr__(self) -> str:
        return f"Perm{tuple.__repr__(self)}"


def kron(a: Perm, b: Perm) -> Perm:
    """Product action on pairs in lexicographic index order: (i, j) -> (a[i], b[j])."""
    nb = len(b)
    return tuple.__new__(Perm, [i * nb + j for i in a for j in b])
