"""Dense matrices, the adjacency matrix of a graph, the voltage-adjacency
kernel, and a symmetric eigensolver.

The kernel :func:`voltage_adjacency` evaluates I ⊗ A(F) + Σ A_ψ ⊗ P_ψ from
two combinatorial inputs, the fiber graph and the voltage value on each
oriented base edge; it alone groups the edges into the indicators A_ψ.
The sum is one flat index array written into a zero output: a fixed
number of array calls per formula, and no pass over the (|V||F|)² output
but the one that allocates it, which is the only dense object the
formulas build.  That the sum is an adjacency matrix is asserted on the
sorted index array, in O(nnz log nnz).  The tests apply the dense form of
the same test to every formula output and hold the kernel to the dense
``np.kron`` sum, both built in their own helper module.

The eigensolver is the universal numeric oracle for every spectral claim in
the package, and it calls nothing from ``np.linalg``.  :func:`spectrum`
reduces a dense symmetric matrix to tridiagonal form by Householder
reflections (EISPACK ``tred1``), each a symmetric rank-2 update of the
trailing block, and solves the tridiagonal matrix by implicit QL with a
Wilkinson shift (EISPACK ``tql1``) on plain Python floats: O(n³) per
solve, with no matrix-matrix product.  A column whose part below the
subdiagonal is negligible against ε‖A‖_F is not reflected, so a product
whose trailing block turns scalar after a few steps, such as K6 ⊠ K8,
pays for those steps alone.  It refuses non-finite input and raises when
QL_MAX_ITERATIONS sweeps leave an eigenvalue unisolated.  The tests keep a
cyclic Jacobi solver as an independent reference route.

Arrays this module builds itself are wrapped by :meth:`Matrix._trusted`,
without the copy that the public ``Matrix(arr)`` makes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NotConverged, NotFinite, NotSymmetric, ShapeMismatch
from .graphs import Graph
from .perms import Perm

#: Most implicit QL sweeps spent isolating one eigenvalue, as in EISPACK.
QL_MAX_ITERATIONS = 30

#: Largest absolute difference between an entry and its transpose that
#: Matrix.is_symmetric, and so spectrum, accepts.
SYMMETRY_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense real matrix in row-major order."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ShapeMismatch(f"matrix must be 2-dimensional, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> Matrix:
        """A Matrix around a 2-dimensional float array the library has just
        built and hands over; it is frozen in place, without the copy."""
        arr.flags.writeable = False
        matrix = object.__new__(cls)
        matrix.__dict__["data"] = arr
        return matrix

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def is_symmetric(self) -> bool:
        """Square, and each entry within SYMMETRY_TOLERANCE of its
        transpose, as ``np.allclose(a, aᵀ, rtol=0, atol=SYMMETRY_TOLERANCE)``
        decides: equal infinities match, NaN matches nothing.  inf − inf is
        NaN, which compares false, so its warning is silenced."""
        if self.rows != self.cols:
            return False
        a, t = self.data, self.data.T
        with np.errstate(invalid="ignore"):
            return bool(((a == t) | (np.abs(a - t) <= SYMMETRY_TOLERANCE)).all())

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def adjacency_matrix(g: Graph) -> Matrix:
    """0/1 adjacency matrix indexed by the graph's stored vertex order.

    Each edge is set at both orientations, so the result is 0/1 and
    symmetric by construction; only a loop, an edge with equal ends, could
    make it no adjacency matrix, and that is asserted on the index pairs.
    """
    a = np.zeros((g.n, g.n))
    ends = np.fromiter(itertools.chain.from_iterable(g.ends), np.intp, 2 * len(g.ends)).reshape(-1, 2)
    assert (ends[:, 0] != ends[:, 1]).all()
    a[ends[:, 0], ends[:, 1]] = 1.0
    a[ends[:, 1], ends[:, 0]] = 1.0
    return Matrix._trusted(a)


def voltage_adjacency(
    n: int,
    fiber: Graph,
    voltage: Iterable[tuple[tuple[int, int], Perm]],
) -> Matrix:
    """Adjacency of a voltage-type total space over an n-vertex base, in
    (base, fiber) lexicographic order: I_n ⊗ A(fiber) plus A_σ ⊗ P_σ for
    every value σ in voltage, given as ((i, j), σ) on the oriented base
    edges by positions.  A_σ is the n×n 0/1 matrix with its ones at the
    edges that carry σ, and P_σ has its ones at (r, σ(r)).

    The bundle, covering, pullback and subdirect adjacency theorems all
    take this shape, and each formula hands over only its voltage and
    fiber: the edges are grouped by value here, in one pass.  Entry (i, j)
    of A_σ lands at (i·m + r, j·m + σ(r)) for every fiber index r, and
    each fiber edge, at both orientations, on every diagonal block, so the
    whole sum is one flat index array, set to 1 in a zero (n·m)² output: a
    fixed number of array calls whatever the number of values.

    The sum is an adjacency matrix exactly when, in the sorted index array,
    no index repeats (no entry is covered twice, so setting equals
    counting), none lies on the diagonal, and the transposed indices
    c·size + r, sorted, are the same array (the sum is symmetric).  That is
    asserted in O(nnz log nnz), with no pass over the output.  A value on
    other than m points or an index outside the base raise ShapeMismatch.
    """
    m = fiber.n
    size = n * m
    groups: dict[Perm, tuple[list[int], list[int]]] = {}
    for (i, j), sigma in voltage:
        group = groups.get(sigma)
        if group is None:
            if sigma.n != m:
                raise ShapeMismatch(f"a value on {sigma.n} points does not act on the {m}-vertex fiber")
            group = groups[sigma] = ([], [])
        group[0].append(i)
        group[1].append(j)
    # I_n ⊗ A(fiber): each fiber edge, both ways, on each diagonal block.
    fr, fc = np.fromiter(itertools.chain.from_iterable(fiber.ends), np.intp, 2 * len(fiber.ends)).reshape(-1, 2).T
    block = np.concatenate((fr * size + fc, fc * size + fr))
    flat = [((np.arange(n) * (m * size + m))[:, None] + block).ravel()]
    if groups:
        rows, cols = zip(*groups.values())
        i, j = np.concatenate(rows), np.concatenate(cols)
        if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n:
            raise ShapeMismatch(f"an edge indexes outside the {n}-vertex base")
        # Row k holds the images of the value on edge k.
        sigma = np.array(list(groups), dtype=np.intp)[np.repeat(np.arange(len(rows)), list(map(len, rows)))]
        flat.append(((i * (m * size) + j * m)[:, None] + np.arange(m) * size + sigma).ravel())
    flat = np.sort(np.concatenate(flat))
    r, c = np.divmod(flat, size)
    assert (flat[1:] != flat[:-1]).all() and (r != c).all()
    assert np.array_equal(np.sort(c * size + r), flat)
    out = np.zeros(size * size)
    out[flat] = 1.0
    return Matrix._trusted(out.reshape(size, size))


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalue multiset, sorted descending with multiplicity."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(sorted((float(x) for x in self.eigenvalues), reverse=True))
        object.__setattr__(self, "eigenvalues", vals)

    def __str__(self) -> str:
        return ", ".join(f"{x if abs(x) >= 5e-7 else 0.0:.6f}" for x in self.eigenvalues)


def _tridiagonalize(a: np.ndarray) -> tuple[list[float], list[float]]:
    """Householder reduction of a symmetric array, overwritten in place, to a
    tridiagonal T with the same eigenvalues; returns T's diagonal and
    subdiagonal as Python floats.

    Step k looks at x, column k from its subdiagonal down.  When x[1:] is
    negligible, ‖x[1:]‖² ≤ (ε‖A‖_F)² with ε = 2⁻⁵² and ‖A‖_F read once
    from the input, the column is skipped and T keeps x₀ as its subdiagonal
    entry.  The dropped entries, from at most n − 2 columns and their
    mirror rows, move the eigenvalues by at most √(2n)·ε‖A‖_F (Weyl's
    theorem; similarity keeps ‖A‖_F), the order of the reflections' own
    backward error.  So a zero or diagonal array comes back exactly, and
    once what is left to reduce is a multiple of I plus roundoff no further
    column is reflected: K6 ⊠ K8 takes one reflection, and one more of that
    roundoff at most.  ‖x[1:]‖² is summed from x[1:] itself: as ‖x‖² − x₀²
    it would round away entries up to about 1e-8·|x₀|, which split a
    degenerate pair to first order.

    Any other column is reflected onto its first entry in EISPACK ``tred1``
    form: with u = x − αe₁ unnormalized and h = ‖u‖²/2 = ‖x‖² − αx₀,
    p = A₂₂u/h and w = p − (uᵀp/2h)u, the trailing block takes the
    symmetric rank-2 update A₂₂ ← A₂₂ − uwᵀ − wuᵀ.  That is HA₂₂H for
    H = I − uuᵀ/h, without a dense H, a matrix-matrix product or a
    normalization of u: O(m²) per step on an m-row block, O(n³) in all.
    The reflected columns are not cleared: T is read from the diagonal and
    the subdiagonal alone.
    """
    n = a.shape[0]
    tiny = (2.0**-52) ** 2 * float(np.vdot(a, a))
    for k in range(n - 2):
        x = a[k + 1 :, k]
        tail = x[1:] @ x[1:]
        if tail <= tiny:
            continue
        x0 = float(x[0])
        s = x0 * x0 + tail
        alpha = -math.copysign(math.sqrt(s), x0)
        h = s - alpha * x0
        u = x.copy()
        u[0] -= alpha
        a[k + 1, k] = alpha
        block = a[k + 1 :, k + 1 :]
        p = (block @ u) / h
        w = p - ((u @ p) / (2.0 * h)) * u
        block -= u[:, None] * w
        block -= w[:, None] * u
    return a.diagonal().tolist(), a.diagonal(-1).tolist()


def _ql_eigenvalues(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues, unsorted, of the symmetric tridiagonal matrix with
    diagonal d and subdiagonal e, by implicit QL with a Wilkinson shift
    (Bowdler, Martin, Reinsch & Wilkinson, Numer. Math. 11, 1968; EISPACK
    ``tql1``), on plain Python floats.  Overwrites d.

    Eigenvalue l is isolated once some e[m], m ≥ l, is negligible, and each
    QL sweep runs from m up to l.  Negligible means tst1 + |e[m]| == tst1,
    where tst1 is the largest |d[i]| + |e[i]| over i ≤ l (EISPACK's running
    norm of T); relative to |d[m]| + |d[m+1]| alone, the zero diagonal and
    the repeated zero eigenvalues of an adjacency matrix can stall until
    the cap.  The shift is the eigenvalue of the
    leading 2×2 block nearer d[l].  Raises NotConverged when eigenvalue l is
    not isolated in QL_MAX_ITERATIONS sweeps.
    """
    n = len(d)
    e = [*e, 0.0]
    tst1 = 0.0
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        for iterations in range(QL_MAX_ITERATIONS + 1):
            m = l
            while tst1 + abs(e[m]) != tst1:
                m += 1
            if m == l:
                break
            if iterations == QL_MAX_ITERATIONS:
                raise NotConverged(
                    f"QL iteration left eigenvalue {l + 1} of {n} (now {d[l]:.6g}) "
                    f"unisolated after {iterations} iterations"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # The rotation underflowed: T splits at i + 1.
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def spectrum(a: Matrix) -> Spectrum:
    """All real eigenvalues of a finite symmetric matrix, with multiplicity.

    The matrix is scaled by a power of two to entries below 2, which is
    exact and keeps the reflections' norms from overflowing or
    underflowing, then tridiagonalized and solved by implicit QL.
    """
    if not np.isfinite(a.data).all():
        raise NotFinite("spectrum requires finite entries")
    if not a.is_symmetric():
        raise NotSymmetric("spectrum requires a square symmetric matrix")
    scale = 2.0 ** (math.frexp(np.abs(a.data).max(initial=0.0))[1] - 1)
    d, e = _tridiagonalize(a.data / scale)
    return Spectrum(tuple(x * scale for x in _ql_eigenvalues(d, e)))


def graph_spectrum(g: Graph) -> Spectrum:
    return spectrum(adjacency_matrix(g))
