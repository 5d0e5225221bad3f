from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleforge import (
    Perm,
    adjacency_matrix,
    cartesian_product,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_graph,
    path_graph,
    spectrum,
    star_graph,
    strong_product,
)
from bundleforge import matrices
from bundleforge.errors import NotABijection, NotConverged, NotFinite, NotSymmetric, ShapeMismatch
from bundleforge.matrices import (
    Matrix,
    Spectrum,
    graph_spectrum,
    voltage_adjacency,
)

from dense_reference import (
    allclose,
    close_to_values,
    from_rows,
    identity,
    is_adjacency,
    kronecker,
    matrix_from_json,
    matrix_to_json,
    perm_matrix,
    spectra_close,
)

# Hexagon adjacency as displayed alongside the Hadamard worked example.
A_C6_ROWS = [
    [0, 1, 0, 0, 0, 1],
    [1, 0, 1, 0, 0, 0],
    [0, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 1],
    [1, 0, 0, 0, 1, 0],
]


class TestAdjacency:
    def test_k2(self, k2):
        assert adjacency_matrix(k2) == from_rows([[0, 1], [1, 0]])

    def test_c6_circulant(self, c6):
        assert adjacency_matrix(c6) == from_rows(A_C6_ROWS)

    def test_two_isolated(self, two_k1):
        assert adjacency_matrix(two_k1) == from_rows([[0, 0], [0, 0]])

    def test_adjacency_invariant(self, m3):
        assert is_adjacency(adjacency_matrix(m3))


class TestKronecker:
    def test_identity_blocks(self):
        assert kronecker(identity(2), identity(3)) == identity(6)

    def test_box_product_identity(self, k2, k3):
        a1, a2 = adjacency_matrix(k2), adjacency_matrix(k3)
        formula = kronecker(a1, identity(3)).data + kronecker(identity(2), a2).data
        assert Matrix(formula) == adjacency_matrix(cartesian_product(k2, k3))

    def test_scalar_block(self):
        b = from_rows([[1, 2], [3, 4]])
        assert kronecker(from_rows([[2]]), b) == from_rows([[2, 4], [6, 8]])


class TestPermMatrix:
    def test_identity(self):
        assert perm_matrix(Perm.identity(3)) == identity(3)

    def test_swap(self):
        assert perm_matrix(Perm((1, 0))) == from_rows([[0, 1], [1, 0]])

    def test_three_cycle_cubes_to_identity(self):
        p = perm_matrix(Perm((1, 2, 0))).data
        assert Matrix(p @ p @ p) == identity(3)

    def test_column_action(self):
        sigma = Perm((2, 0, 1))
        p = perm_matrix(sigma)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            out = p.data @ e
            assert out[sigma[i]] == 1.0 and out.sum() == 1.0

    def test_composition_identity(self):
        s, t = Perm((1, 2, 0)), Perm((0, 2, 1))
        assert perm_matrix(s.compose(t)) == Matrix(perm_matrix(s).data @ perm_matrix(t).data)

    def test_block_is_transpose(self):
        # A voltage value acts on the fiber index along its oriented edge:
        # the kernel's block of s over the edge (0, 1) is the transpose of
        # perm_matrix(s).
        s = Perm((1, 2, 0))
        total = voltage_adjacency(2, empty_graph(3), [((0, 1), s), ((1, 0), s.inverse())])
        assert Matrix(total.data[:3, 3:]) == Matrix(perm_matrix(s).data.T)

    def test_not_a_bijection(self):
        with pytest.raises(NotABijection):
            Perm((0, 0))


class TestSpectrum:
    def test_k2(self, k2):
        assert close_to_values(graph_spectrum(k2), [1, -1])

    def test_k3(self, k3):
        assert close_to_values(graph_spectrum(k3), [2, -1, -1])

    def test_zero_matrix(self):
        assert close_to_values(spectrum(from_rows(np.zeros((4, 4)))), [0, 0, 0, 0])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            spectrum(from_rows([[0, 1], [0, 0]]))

    def test_symmetry_tolerance_is_absolute(self):
        # A relative tolerance would pass entries 1000 and 1000.001.
        lopsided = from_rows([[0, 1000], [1000.001, 0]])
        assert not lopsided.is_symmetric()
        assert not allclose(from_rows([[1000]]), from_rows([[1000.001]]))
        with pytest.raises(NotSymmetric):
            spectrum(lopsided)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_refused(self, bad):
        with pytest.raises(NotFinite):
            spectrum(from_rows([[0, bad], [bad, 0]]))

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(matrices, "QL_MAX_ITERATIONS", 1)
        a = adjacency_matrix(cartesian_product(cycle_graph(8), complete_graph(3)))
        assert a.rows == 24
        with pytest.raises(NotConverged, match=r"eigenvalue 1 of 24 .* after 1 iterations"):
            spectrum(a)

    def test_sorted_descending(self, c6):
        vals = graph_spectrum(c6).eigenvalues
        assert list(vals) == sorted(vals, reverse=True)

    def test_trace_zero(self, c6, k2):
        for g in (c6, cartesian_product(k2, k2)):
            assert abs(sum(graph_spectrum(g).eigenvalues)) < 1e-8

    def test_bipartite_symmetry(self, c6, k2):
        for g in (c6, cartesian_product(k2, k2)):
            vals = graph_spectrum(g).eigenvalues
            assert spectra_close(Spectrum(vals), Spectrum(tuple(-v for v in vals)), tol=1e-8)

    def test_str_six_decimals(self, k3):
        assert str(graph_spectrum(k3)) == "2.000000, -1.000000, -1.000000"


# --- the Jacobi reference route ---------------------------------------------
#
# A cyclic Jacobi solver of the whole matrix by plane rotations, with no
# tridiagonal form: independent both of matrices.spectrum (Householder + QL)
# and of LAPACK's dsytrd + dsterf path behind eigvalsh.

#: Floor of the off-diagonal Frobenius norm tolerance for Jacobi convergence.
JACOBI_THRESHOLD = 1e-12

#: Maximum number of cyclic Jacobi sweeps.
JACOBI_MAX_SWEEPS = 100

#: Largest matrix the tests also solve by Jacobi; above it a solve takes seconds.
JACOBI_REFERENCE_ROWS = 96


@lru_cache(maxsize=128)
def _round_robin(n):
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
def _round_entries(n):
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


def _jacobi_eigenvalues(a):
    """Parallel-ordered (round-robin) cyclic Jacobi iteration (Brent & Luk,
    SIAM J. Sci. Stat. Comput. 6(1), 1985); returns unsorted eigenvalues.

    A sweep rotates every pair once, one :func:`_round_robin` round at a
    time.  The rotations of a round touch disjoint pairs, so they commute:
    the round is applied at once as a = JᵀaJ.  The angle of pair (p, q) is
    θ = ½·arctan(2a_pq / (a_qq − a_pp)), the smaller rotation (|θ| ≤ π/4)
    that zeroes a_pq; equal diagonals give ±π/4 through the infinite
    argument.  A pair with |a_pq| below tol / n gets θ = 0, and a round
    where no pair rotates is skipped.

    The tolerance tol = max(JACOBI_THRESHOLD, n·eps·‖a‖_F) is fixed per
    solve: rounding leaves about eps·|a| in each entry, which an absolute
    threshold cannot reach once the entries are large.  Raises
    NotConverged when JACOBI_MAX_SWEEPS sweeps leave an off-diagonal
    Frobenius norm of tol or more.
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


def assert_matches_references(sym):
    """spectrum agrees with LAPACK's eigvalsh to 1e-8, and with the Jacobi
    reference too up to JACOBI_REFERENCE_ROWS rows."""
    ours = spectrum(Matrix(sym)).eigenvalues
    references = [np.linalg.eigvalsh(sym)]
    if len(sym) <= JACOBI_REFERENCE_ROWS:
        references.append(_jacobi_eigenvalues(sym))
    for reference in references:
        reference = sorted(reference, reverse=True)
        assert len(ours) == len(reference)
        assert all(abs(x - y) < 1e-8 for x, y in zip(ours, reference))


def random_symmetric(seed, n):
    a = np.random.default_rng(seed).integers(-3, 4, size=(n, n)).astype(float)
    return (a + a.T) / 2.0


class TestJacobiAgainstLapack:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_random_symmetric(self, seed, n):
        assert_matches_references(random_symmetric(seed, n))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=13, max_value=48))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_random_symmetric_up_to_48(self, seed, n):
        assert_matches_references(random_symmetric(seed, n))

    @pytest.mark.parametrize("n", [0, 1, 3, 5, 9, 17, 31])
    def test_small_and_odd_sizes(self, n):
        # Odd sizes drop the dummy index from every Jacobi round; 0 and 1
        # have no round and no reflection at all.
        assert_matches_references(random_symmetric(n, n))

    @pytest.mark.parametrize("n", [1, 6, 7])
    def test_every_pair_masked(self, n):
        # No coupling reaches the Jacobi threshold and no column has an
        # entry below its subdiagonal, so neither solver rotates or reflects
        # anything and the diagonal comes back exactly.
        diagonal = np.diag(np.arange(n, 0.0, -1.0) - 2.5)
        for a in (np.zeros((n, n)), diagonal):
            assert_matches_references(a)
            assert spectrum(Matrix(a)).eigenvalues == tuple(sorted(np.diag(a), reverse=True))

    @pytest.mark.parametrize(
        "g",
        [
            empty_graph(3),
            make_graph(list("abcdefg"), [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "g"), ("g", "d")]),
        ],
        ids=["3k1", "c3+c4"],
    )
    def test_disconnected_graphs(self, g):
        # Couplings between components are exact zeros: Jacobi masks those
        # pairs in rounds where other pairs rotate.
        assert_matches_references(adjacency_matrix(g).data)

    def test_96_row_product(self):
        a = adjacency_matrix(cartesian_product(cycle_graph(32), complete_graph(3)))
        assert a.rows == 96
        assert_matches_references(a.data)

    def test_240_row_product(self):
        a = adjacency_matrix(cartesian_product(cycle_graph(80), complete_graph(3)))
        assert a.rows == 240
        assert_matches_references(a.data)

    def test_random_symmetric_256(self):
        assert_matches_references(random_symmetric(256, 256))

    @pytest.mark.parametrize(
        "g",
        [star_graph(20), path_graph(30), cartesian_product(star_graph(5), star_graph(8))],
        ids=["k1-20", "p30", "k1-5-box-k1-8"],
    )
    def test_zero_diagonal_graphs(self, g):
        # Zero diagonals, and many zero eigenvalues in K1,5 □ K1,8: a
        # deflation test relative to |d_m| + |d_m+1| alone stalls there
        # until the iteration cap, so QL deflates relative to the norm of T.
        assert_matches_references(adjacency_matrix(g).data)

    def test_small_entry_below_an_order_one_pivot(self):
        # A ±1 pair with a 1 on the diagonal: eigenvalue 1 is double until
        # the 1e-9 below column 0's subdiagonal couples (1, 1, 0)/√2 with
        # e₂ and splits it by about 1e-9·√2.  The entry is far above the
        # skip threshold, but ‖x‖² − x₀² = (1 + 1e-18) − 1 rounds it to 0.
        delta = 1e-9
        sym = np.array([[0.0, 1.0, delta], [1.0, 0.0, 0.0], [delta, 0.0, 1.0]])
        ours = spectrum(Matrix(sym)).eigenvalues
        reference = sorted(np.linalg.eigvalsh(sym), reverse=True)
        assert reference[0] - reference[1] > delta
        assert all(abs(x - y) < 1e-12 for x, y in zip(ours, reference))

    @pytest.mark.parametrize("scale", [1e-200, 1e3, 1e4, 1e6, 1e200])
    def test_scaled_random_symmetric(self, scale):
        # Rounding leaves about eps·|a| in every entry, which an absolute
        # threshold of 1e-12 cannot reach at these scales; the tolerance
        # grows with the norm.  At 1e±200 the reflections' squared norms
        # would underflow or overflow without spectrum's power-of-two scale.
        a = np.random.default_rng(20).standard_normal((20, 20))
        sym = scale * (a + a.T) / 2.0
        ours = spectrum(Matrix(sym)).eigenvalues
        reference = sorted(np.linalg.eigvalsh(sym), reverse=True)
        size = max(abs(x) for x in reference)
        assert all(abs(x - y) <= 1e-9 * size for x, y in zip(ours, reference))

    @pytest.mark.parametrize(
        "factors",
        [
            (cycle_graph, 4, cycle_graph, 3),
            (cycle_graph, 6, cycle_graph, 8),
            (cycle_graph, 12, path_graph, 4),
            (path_graph, 4, complete_graph, 3),
            (path_graph, 6, path_graph, 8),
            (complete_graph, 4, complete_graph, 12),
            (cycle_graph, 16, complete_graph, 3),
        ],
    )
    @pytest.mark.parametrize("product", [cartesian_product, strong_product])
    def test_products_with_repeated_eigenvalues(self, product, factors):
        # The product families of the formula-check benchmark, 12 to 48
        # vertices: their spectra repeat eigenvalues many times over.
        make1, k1, make2, k2 = factors
        a = adjacency_matrix(product(make1(k1), make2(k2)))
        assert 12 <= a.rows <= 48
        assert_matches_references(a.data)


class CountingArray(np.ndarray):
    """An array whose 2-D ``@`` counts: each Householder reflection makes
    exactly one matrix-vector product, with its trailing block."""

    products = 0

    def __matmul__(self, other):
        if self.ndim == 2:
            CountingArray.products += 1
        return np.ndarray.__matmul__(self, other)


def reflections(a):
    CountingArray.products = 0
    matrices._tridiagonalize(np.array(a, dtype=float).view(CountingArray))
    return CountingArray.products


def test_reflections_stop_once_the_trailing_block_is_scalar():
    # K6 ⊠ K8 is K48, with adjacency J − I.  The Krylov space of e₁ is
    # spanned by e₁ and the all-ones vector, and its complement lies in the
    # −1 eigenspace: one reflection leaves a trailing block that is −I plus
    # a rank-one term on its first row and column, plus roundoff.  The
    # next column below its subdiagonal is that roundoff alone, which may
    # take one more reflection, and then nothing is left to reduce.
    a = adjacency_matrix(strong_product(complete_graph(6), complete_graph(8))).data
    assert reflections(a) <= 2
    # A matrix with no such structure reflects every column but the last two.
    assert reflections(random_symmetric(48, 48)) == 46


def test_spectrum_does_not_use_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Jacobi oracle must not call np.linalg")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = graph_spectrum(cartesian_product(cycle_graph(4), complete_graph(3)))
    assert close_to_values(got, [a + b for a in (2, 0, 0, -2) for b in (2, -1, -1)])


@pytest.mark.parametrize("n", range(51))
def test_round_robin_schedule(n):
    rounds = _round_robin(n)
    assert len(rounds) == max(n + n % 2 - 1, 0)
    seen = []
    for pairs in rounds:
        touched = [i for pair in pairs for i in pair]
        assert len(touched) == len(set(touched))
        assert all(0 <= p < q < n for p, q in pairs)
        seen.extend(pairs)
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@st.composite
def small_int_matrix(draw, max_dim=3):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return from_rows(entries)


@given(small_int_matrix(), small_int_matrix(), small_int_matrix())
@settings(max_examples=50, deadline=None)
def test_kronecker_associative(a, b, c):
    assert kronecker(kronecker(a, b), c) == kronecker(a, kronecker(b, c))


@given(small_int_matrix(2), small_int_matrix(2), small_int_matrix(2), small_int_matrix(2))
@settings(max_examples=50, deadline=None)
def test_kronecker_mixed_product(a, b, c, d):
    if a.cols != c.rows or b.cols != d.rows:
        return
    assert Matrix(kronecker(a, b).data @ kronecker(c, d).data) == kronecker(Matrix(a.data @ c.data), Matrix(b.data @ d.data))


#: Entries that sit at the symmetry tolerance or break arithmetic on it.
SPECIAL_ENTRIES = [0.0, 1.0, 1.0 + 1e-12, 1.0 + 3e-12, 1000.0, 1000.001, np.inf, -np.inf, np.nan]


@st.composite
def square_or_not(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.sampled_from([rows, rows, rows + 1]))
    entry = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(-1e6, 1e6))
    entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    a = np.array(entries).reshape(rows, cols)
    if rows == cols and draw(st.booleans()):
        # Mirror the upper triangle, then nudge one entry about the tolerance.
        a = np.where(np.triu(np.ones_like(a, dtype=bool)), a, a.T)
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a[i, j] += draw(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12, 1e-3]))
    return Matrix(a)


@given(square_or_not())
@settings(max_examples=300, deadline=None)
def test_is_symmetric_agrees_with_allclose(m):
    tol = matrices.SYMMETRY_TOLERANCE
    expected = m.rows == m.cols and bool(np.allclose(m.data, m.data.T, rtol=0.0, atol=tol))
    assert m.is_symmetric() == expected


@pytest.mark.parametrize(
    "rows, symmetric",
    [
        ([[0, np.inf], [np.inf, 0]], True),
        ([[0, np.inf], [-np.inf, 0]], False),
        ([[0, np.nan], [np.nan, 0]], False),
        ([[np.nan]], False),
        ([[0, 1000], [1000.001, 0]], False),
    ],
)
def test_is_symmetric_special_values(rows, symmetric):
    assert from_rows(rows).is_symmetric() is symmetric


def test_matrix_copies_its_source():
    source = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = Matrix(source)
    source[0, 1] = 7.0
    assert m == from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        m.data[0, 1] = 7.0


def test_matrix_of_a_vector_is_refused():
    with pytest.raises(ShapeMismatch, match=r"^matrix must be 2-dimensional, got shape \(3,\)$"):
        Matrix(np.zeros(3))


def test_matrix_json_roundtrip(m3):
    a = adjacency_matrix(m3)
    assert matrix_from_json(matrix_to_json(a)) == a
