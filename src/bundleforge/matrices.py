"""Dense matrices, Kronecker and Hadamard products, the voltage-adjacency
kernel, and a Jacobi eigensolver.

The kernel :func:`voltage_adjacency` evaluates I ⊗ A(F) + Σ A_ψ ⊗ P_ψ from
each term's base nonzeros and permutation, as one flat index array summed
by one ``np.bincount``: O((|V||F|)² + Σ nnz(A_ψ)·|F|) work in a fixed number
of array calls per formula.  :func:`kronecker` is the dense ``np.kron``,
the reference the tests hold the kernel to.

The eigensolver is the universal numeric oracle for every spectral claim in
the package: it is a self-contained parallel-ordered (round-robin) cyclic
Jacobi iteration on dense symmetric matrices (Brent & Luk, 1985).  It calls
nothing from ``np.linalg``.  One round makes a fixed handful of array calls
whatever its number of pairs (one gather, one arctan, two scatters into a
reused rotation matrix, and JᵀaJ), which is what a round below about 100
rows costs.  It refuses non-finite input and raises when its sweep cap runs
out.

Arrays this module builds itself are wrapped by :meth:`Matrix._trusted`,
without the copy that the public ``Matrix(arr)`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import NotConverged, NotFinite, NotSymmetric, ParseError, ShapeMismatch
from .graphs import Graph
from .perms import Perm

#: Floor of the off-diagonal Frobenius norm tolerance for Jacobi convergence.
JACOBI_THRESHOLD = 1e-12

#: Maximum number of cyclic Jacobi sweeps.
JACOBI_MAX_SWEEPS = 100

#: Tolerance for eigenvalue multiset comparisons.
SPECTRUM_TOLERANCE = 1e-9


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

    def __getitem__(self, key) -> float:
        return self.data[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __hash__(self) -> int:
        return hash((self.shape, self.data.tobytes()))

    def allclose(self, other: Matrix, tol: float = 1e-9) -> bool:
        return self.shape == other.shape and bool(np.allclose(self.data, other.data, rtol=0.0, atol=tol))

    def transpose(self) -> Matrix:
        return Matrix._trusted(self.data.T)

    def __add__(self, other: Matrix) -> Matrix:
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        return Matrix._trusted(self.data + other.data)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        return Matrix._trusted(self.data @ other.data)

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        return self.rows == self.cols and bool(np.allclose(self.data, self.data.T, rtol=0.0, atol=tol))

    def is_adjacency(self) -> bool:
        """Square, symmetric, zero diagonal, all entries 0 or 1.

        a = (aᵀ ≠ 0) entrywise exactly when every entry is 0 or 1 and a is
        symmetric; such a diagonal is zero exactly when the trace is.
        """
        a = self.data
        return self.rows == self.cols and not a.trace() and bool((a == (a.T != 0.0)).all())

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": self.data.tolist()}

    @staticmethod
    def from_json(data: dict) -> Matrix:
        try:
            entries = data["entries"]
            m = Matrix(np.asarray(entries, dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad matrix JSON: {exc}") from exc
        if m.rows != data.get("rows", m.rows) or m.cols != data.get("cols", m.cols):
            raise ParseError("matrix JSON shape fields disagree with entries")
        return m

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def from_rows(rows: Sequence[Sequence[float]]) -> Matrix:
    return Matrix(np.asarray(rows, dtype=float))


def identity(n: int) -> Matrix:
    return Matrix._trusted(np.eye(n))


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix._trusted(np.zeros((rows, cols)))


def adjacency_matrix(g: Graph) -> Matrix:
    """0/1 adjacency matrix indexed by the graph's stored vertex order.

    The entries are set from index arrays of the edge set, not from the
    sorted ``edge_list``, which would first build the sorted neighbour
    lists of a graph that may never need them.
    """
    a = np.zeros((g.n, g.n))
    idx = g.index
    ends = np.fromiter((idx[u] for e in g.edges for u in e), np.intp, 2 * len(g.edges)).reshape(-1, 2)
    a[ends[:, 0], ends[:, 1]] = 1.0
    a[ends[:, 1], ends[:, 0]] = 1.0
    m = Matrix._trusted(a)
    assert m.is_adjacency()
    return m


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Block matrix whose (i, j) block is a[i, j] * b."""
    return Matrix._trusted(np.kron(a.data, b.data))


def hadamard(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise product of two same-shaped matrices."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"hadamard needs equal shapes, got {a.shape} and {b.shape}")
    return Matrix._trusted(a.data * b.data)


def perm_matrix(sigma: Perm | Sequence[int]) -> Matrix:
    """Permutation matrix P with P[sigma(i)][i] = 1, so P e_i = e_sigma(i)."""
    if not isinstance(sigma, Perm):
        sigma = Perm(tuple(sigma))
    n = sigma.n
    p = np.zeros((n, n))
    for i in range(n):
        p[sigma(i), i] = 1.0
    return Matrix._trusted(p)


def voltage_adjacency(
    n: int,
    fiber_adjacency: Matrix,
    terms: Iterable[tuple[Sequence[int], Sequence[int], Perm]],
) -> Matrix:
    """Adjacency of a voltage-type total space over an n-vertex base, in
    (base, fiber) lexicographic order: I_n ⊗ fiber_adjacency plus A ⊗ P_σ
    for every term (rows, cols, σ), where A is the n×n 0/1 matrix with its
    ones at (rows[k], cols[k]) and P_σ has its ones at (r, σ(r)).

    The bundle, covering, pullback and subdirect adjacency theorems all
    take this shape, with one term per distinct voltage value used.  Entry
    (i, j) of A lands at (i·m + r, j·m + σ(r)) for every fiber index r, so
    the whole sum is one flat index array and one ``np.bincount`` into the
    (n·m)² output: a fixed number of array calls whatever the number of
    terms, and O((n·m)² + Σ nnz(A)·m) work.  The fiber adjacency, like A,
    is read by its nonzeros.  Entries are counted, never assigned, so an
    entry covered twice reads 2 and fails the adjacency check.  A
    permutation on other than m points, an index outside the base or row
    and column lists of unequal length raise ShapeMismatch.
    """
    m = fiber_adjacency.rows
    if fiber_adjacency.shape != (m, m):
        raise ShapeMismatch(f"fiber adjacency must be square, got {fiber_adjacency.shape}")
    size = n * m
    rows, cols, images, counts = [], [], [], []
    for r, c, sigma in terms:
        if sigma.n != m or len(r) != len(c):
            raise ShapeMismatch(
                f"a term of {len(r)} rows and {len(c)} columns with a permutation "
                f"of {sigma.n} points does not fit {n} ⊗ {m}"
            )
        if len(r):
            rows.append(r)
            cols.append(c)
            images.append(sigma.images)
            counts.append(len(r))
    # I_n ⊗ fiber_adjacency: the fiber's nonzeros on each diagonal block.
    fr, fc = np.nonzero(fiber_adjacency.data)
    flat = [((np.arange(n) * (m * size + m))[:, None] + (fr * size + fc)).ravel()]
    if counts:
        i, j = np.concatenate(rows), np.concatenate(cols)
        if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n:
            raise ShapeMismatch(f"a term indexes outside the {n}-vertex base")
        # Row k holds the images of the permutation of nonzero k's term.
        sigma = np.array(images, dtype=np.intp)[np.repeat(np.arange(len(counts)), counts)]
        flat.append(((i * (m * size) + j * m)[:, None] + np.arange(m) * size + sigma).ravel())
    flat = np.concatenate(flat)
    # Unit weights count straight into a float output: at 768 rows that is
    # about ten times faster than an integer count converted to float.
    # With no entry at all, bincount returns integers.
    out = np.bincount(flat, np.ones(flat.size), size * size).astype(float, copy=False)
    result = Matrix._trusted(out.reshape(size, size))
    assert result.is_adjacency()
    return result


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalue multiset, sorted descending with multiplicity."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(sorted((float(x) for x in self.eigenvalues), reverse=True))
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def isclose(self, other: Spectrum, tol: float = SPECTRUM_TOLERANCE) -> bool:
        if self.size != other.size:
            return False
        return all(abs(a - b) <= tol for a, b in zip(self.eigenvalues, other.eigenvalues))

    def close_to_values(self, values: Iterable[float], tol: float = SPECTRUM_TOLERANCE) -> bool:
        return self.isclose(Spectrum(tuple(values)), tol)

    def __str__(self) -> str:
        return ", ".join(f"{x if abs(x) >= 5e-7 else 0.0:.6f}" for x in self.eigenvalues)


@lru_cache(maxsize=128)
def _round_robin(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Round-robin (tournament) ordering of the pairs of range(n).

    With m = n rounded up to even there are m - 1 rounds; the pairs of a
    round are disjoint, and every pair (p, q) with p < q appears in exactly
    one round.  For odd n the pairs with the dummy index n are dropped.
    """
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            p, q = sorted((players[i], players[m - 1 - i]))
            if q < n:
                pairs.append((p, q))
        rounds.append(tuple(pairs))
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(rounds)


@lru_cache(maxsize=128)
def _round_entries(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Flat indices into an n×n array for each nonempty :func:`_round_robin`
    round, whose pairs (p, q) have p < q.

    Per round: a (3, k) array of the (p, p), (q, q) and (p, q) entries, one
    row each; the 4k rotation entries (p, p), (q, q), (p, q), (q, p); and
    the identity's values at those entries.
    """
    rounds = []
    for pairs in _round_robin(n):
        if not pairs:
            continue
        p, q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
        pp, qq, pq = p * n + p, q * n + q, p * n + q
        rounds.append((np.stack((pp, qq, pq)), np.concatenate((pp, qq, pq, q * n + p)), np.repeat((1.0, 0.0), 2 * len(pairs))))
    return tuple(rounds)


def _jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Parallel-ordered (round-robin) cyclic Jacobi iteration (Brent & Luk,
    SIAM J. Sci. Stat. Comput. 6(1), 1985); returns unsorted eigenvalues.

    A sweep rotates every pair once, one :func:`_round_robin` round at a
    time.  The rotations of a round touch disjoint pairs, so they commute:
    the round is applied at once as a = JᵀaJ, which equals applying its
    rotations one after another.  The angle of pair (p, q) is
    θ = ½·arctan(2a_pq / (a_qq − a_pp)), the smaller rotation (|θ| ≤ π/4)
    that zeroes a_pq; equal diagonals give ±π/4 through the infinite
    argument.  A pair with |a_pq| below tol / n gets θ = 0, so an exact
    identity block, and a round where no pair rotates is skipped.
    One J serves the whole solve: the round writes its cosines and sines
    into it at :func:`_round_entries`' cached indices, and after the
    products writes the identity back.

    The tolerance tol = max(JACOBI_THRESHOLD, n·eps·‖a‖_F) is fixed per
    solve: rounding leaves about eps·|a| in each entry, which an absolute
    threshold cannot reach once the entries are large.  For 0/1 matrices of
    up to 48 rows it is JACOBI_THRESHOLD.  Raises NotConverged when
    JACOBI_MAX_SWEEPS sweeps leave an off-diagonal Frobenius norm of tol or
    more.
    """
    a = a.copy()
    n = a.shape[0]
    tol = max(JACOBI_THRESHOLD, n * np.finfo(float).eps * np.sqrt(np.sum(a * a)))
    rounds = _round_entries(n)
    j = np.eye(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweeps in range(JACOBI_MAX_SWEEPS + 1):
            off = np.sqrt(np.sum((a - np.diag(np.diag(a))) ** 2))
            if off < tol:
                return np.diag(a)
            if sweeps == JACOBI_MAX_SWEEPS:
                raise NotConverged(f"Jacobi iteration left an off-diagonal norm of {off:.3g} after {sweeps} sweeps")
            for entries, rotation, eye in rounds:
                app, aqq, apq = a.take(entries)
                unrotated = np.abs(apq) < tol / n
                if unrotated.all():
                    continue
                theta = np.where(unrotated, 0.0, 0.5 * np.arctan(2.0 * apq / (aqq - app)))
                c, s = np.cos(theta), np.sin(theta)
                j.put(rotation, np.concatenate((c, c, s, -s)))
                a = j.T @ a @ j
                j.put(rotation, eye)


def spectrum(a: Matrix) -> Spectrum:
    """All real eigenvalues of a finite symmetric matrix, with multiplicity."""
    if not np.isfinite(a.data).all():
        raise NotFinite("spectrum requires finite entries")
    if not a.is_symmetric():
        raise NotSymmetric("spectrum requires a square symmetric matrix")
    return Spectrum(tuple(_jacobi_eigenvalues(a.data)))


def graph_spectrum(g: Graph) -> Spectrum:
    return spectrum(adjacency_matrix(g))
