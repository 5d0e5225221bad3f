"""Dense matrices from rows, Kronecker products and permutation matrices:
the reference the tests hold the adjacency formulas to.

The library builds every formula by one index scatter
(matrices.voltage_adjacency) and never a dense Kronecker product or
permutation block; these are the ``np.kron`` statement of the theorem, kept
next to the tests that compare against it.
"""

from typing import Sequence

import numpy as np

from bundleforge.matrices import Matrix
from bundleforge.perms import Perm


def from_rows(rows: Sequence[Sequence[float]]) -> Matrix:
    return Matrix(np.asarray(rows, dtype=float))


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Block matrix whose (i, j) block is a[i, j] * b."""
    return Matrix(np.kron(a.data, b.data))


def perm_matrix(sigma: Perm | Sequence[int]) -> Matrix:
    """Permutation matrix P with P[sigma(i)][i] = 1, so P e_i = e_sigma(i)."""
    if not isinstance(sigma, Perm):
        sigma = Perm(tuple(sigma))
    p = np.zeros((sigma.n, sigma.n))
    p[list(sigma), range(sigma.n)] = 1.0
    return Matrix(p)


def perm_block(sigma: Perm) -> Matrix:
    """Row-action permutation block: entry (i, j) = 1 iff j = sigma(i), the
    transpose of perm_matrix.  The fiber index flows forward along the
    oriented edge, so this is the dense block of a voltage value."""
    return perm_matrix(sigma.inverse())
