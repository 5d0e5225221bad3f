"""Dense matrices from rows, Kronecker products, permutation matrices and
the pullback's conjugated blocks: the reference the tests hold the
adjacency formulas to.

The library builds every formula by one index scatter
(matrices.voltage_adjacency) and never a dense Kronecker product,
permutation block, morphism matrix or matrix product; these are the
``np.kron`` statement of the theorems, and pullback_block is the only
dense statement of the paper's pullback blocks A_D ∘ (Mᵀ(B_ψ + [ψ =
id]·I)M).  They are kept next to the tests that compare against them, as
are the dense adjacency test, tolerant comparisons and the JSON form of a
Matrix, which only the tests read.  Arithmetic on matrices is done on
their ``.data`` arrays: Matrix has no arithmetic operators.
"""

from typing import Iterable, Sequence

import numpy as np

from bundleforge.errors import ParseError
from bundleforge.matrices import Matrix, Spectrum
from bundleforge.perms import Perm

#: Tolerance for eigenvalue multiset comparisons.
SPECTRUM_TOLERANCE = 1e-9


def from_rows(rows: Sequence[Sequence[float]]) -> Matrix:
    return Matrix(np.asarray(rows, dtype=float))


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(np.zeros((rows, cols)))


def identity(n: int) -> Matrix:
    return Matrix(np.eye(n))


def allclose(a: Matrix, b: Matrix, tol: float = 1e-9) -> bool:
    """Equal shapes, and each entry within the absolute tolerance tol."""
    return a.shape == b.shape and bool(np.allclose(a.data, b.data, rtol=0.0, atol=tol))


def is_adjacency(m: Matrix) -> bool:
    """Square, symmetric, zero diagonal, all entries 0 or 1.

    a = (aᵀ ≠ 0) entrywise exactly when every entry is 0 or 1 and a is
    symmetric; such a diagonal is zero exactly when the trace is.
    """
    a = m.data
    return m.rows == m.cols and not a.trace() and bool((a == (a.T != 0.0)).all())


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.data.tolist()}


def matrix_from_json(data: dict) -> Matrix:
    try:
        entries = data["entries"]
        m = Matrix(np.asarray(entries, dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix JSON: {exc}") from exc
    if m.rows != data.get("rows", m.rows) or m.cols != data.get("cols", m.cols):
        raise ParseError("matrix JSON shape fields disagree with entries")
    return m


def spectra_close(s1: Spectrum, s2: Spectrum, tol: float = SPECTRUM_TOLERANCE) -> bool:
    """Equal sizes, and each eigenvalue within tol of its counterpart."""
    e1, e2 = s1.eigenvalues, s2.eigenvalues
    return len(e1) == len(e2) and all(abs(a - b) <= tol for a, b in zip(e1, e2))


def close_to_values(s: Spectrum, values: Iterable[float], tol: float = SPECTRUM_TOLERANCE) -> bool:
    """s equals the spectrum of values, each eigenvalue within tol."""
    return spectra_close(s, Spectrum(tuple(values)), tol)


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


def reference_adjacency(g) -> np.ndarray:
    """0/1 adjacency array of g, read off its edge set by labels."""
    a = np.zeros((g.n, g.n))
    for e in g.edges:
        u, v = tuple(e)
        a[g.index[u], g.index[v]] = 1.0
        a[g.index[v], g.index[u]] = 1.0
    return a


def reference_indicator(base, phi, keep) -> np.ndarray:
    """Base-indexed 0/1 array marking each oriented edge (v, w) of the
    label view phi whose value passes keep(value, (v, w))."""
    out = np.zeros((base.n, base.n))
    for (v, w), value in phi.items():
        if keep(value, (v, w)):
            out[base.index[v], base.index[w]] = 1.0
    return out


def morphism_matrix(f) -> Matrix:
    """0/1 matrix M of a vertex map, read off its labels: rows index the
    codomain, columns the domain, and M[f(v), v] = 1."""
    m = np.zeros((f.codomain.n, f.domain.n))
    for v in f.domain.vertices:
        m[f.codomain.index[f(v)], f.domain.index[v]] = 1.0
    return Matrix(m)


def conjugated_block(f, fv, psi: Perm) -> Matrix:
    """Mᵀ(B_ψ + [ψ = id]·I)M for f into the base of the voltage fv: B_ψ
    marks the base edges carrying ψ, and for the identity the collapsed
    pairs, with equal images, count as well."""
    m = morphism_matrix(f).data
    middle = reference_indicator(fv.base, fv.phi, lambda value, _: value == psi)
    if psi.is_identity():
        middle = middle + np.eye(fv.base.n)
    return Matrix(m.T @ middle @ m)


def pullback_block(f, fv, psi: Perm) -> Matrix:
    """A_D ∘ (Mᵀ(B_ψ + [ψ = id]·I)M), the term of ψ in the pullback
    adjacency theorem: the oriented domain edges whose pulled-back voltage
    is ψ."""
    return Matrix(reference_adjacency(f.domain) * conjugated_block(f, fv, psi).data)
