"""The adjacency formulas against two independent routes.

Every formula matrix must be byte-identical to the dense reference below,
the sum of Kronecker products with indicators rescanned per voltage value,
and to the adjacency matrix of the constructed total space.
"""

import ast
import importlib
import inspect
import pkgutil
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundleforge import (
    Perm,
    adjacency_matrix,
    automorphisms,
    bundle_adjacency,
    cartesian_product,
    complete_graph,
    covering_adjacency,
    cycle_graph,
    empty_graph,
    make_fiber_voltage,
    make_graph,
    make_morphism,
    path_graph,
    pullback_adjacency,
    pullback_bundle,
    pullback_voltage,
    strong_product,
    subdirect_adjacency,
    subdirect_product,
    trivial_voltage,
    voltage_bundle,
)
import bundleforge
from bundleforge import bundles, matrices, products, pullback
from bundleforge.errors import ShapeMismatch
from bundleforge.pullback import subdirect_voltage
from bundleforge.matrices import Matrix, voltage_adjacency

import dense_reference
from conftest import neighbors
from dense_reference import (
    from_rows,
    identity,
    is_adjacency,
    kronecker,
    perm_block,
    perm_matrix,
    pullback_block,
    reference_adjacency,
    reference_indicator,
    zeros,
)

FIBERS = {
    "K2": complete_graph(2),
    "K4": complete_graph(4),
    "C5": cycle_graph(5),
    "P3": path_graph(3),
    "1K1": empty_graph(1),
    "2K1": empty_graph(2),
    "3K1": empty_graph(3),
}

FORMULA_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


# --- the dense reference -------------------------------------------------------


def reference_voltage_adjacency(n, fiber_adjacency, terms):
    out = kronecker(identity(n), Matrix(fiber_adjacency)).data.copy()
    for indicator, block in terms:
        out += kronecker(Matrix(indicator), block).data
    return out


def reference_bundle(fv):
    terms = [
        (reference_indicator(fv.base, fv.phi, lambda value, _: value == psi), perm_block(psi))
        for psi in sorted(set(fv.phi.values()))
    ]
    return reference_voltage_adjacency(fv.base.n, reference_adjacency(fv.fiber), terms)


def reference_pullback(f, fv):
    terms = [
        (pullback_block(f, fv, psi).data, perm_block(psi))
        for psi in sorted(set(fv.phi.values()) | {Perm.identity(fv.fiber.n)})
    ]
    return reference_voltage_adjacency(f.domain.n, reference_adjacency(fv.fiber), terms)


def reference_subdirect(fv1, fv2):
    terms = []
    for psi1, psi2 in sorted({(value, fv2.phi[edge]) for edge, value in fv1.phi.items()}):
        indicator = reference_indicator(
            fv1.base, fv1.phi, lambda value, edge: value == psi1 and fv2.phi[edge] == psi2
        )
        terms.append((indicator, kronecker(perm_block(psi1), perm_block(psi2))))
    a1, a2 = Matrix(reference_adjacency(fv1.fiber)), Matrix(reference_adjacency(fv2.fiber))
    fiber_adjacency = kronecker(a1, identity(fv2.fiber.n)).data + kronecker(identity(fv1.fiber.n), a2).data
    return reference_voltage_adjacency(fv1.base.n, fiber_adjacency, terms)


def assert_identical(formula, *others):
    """formula is byte-identical to each of others, and passes the dense
    adjacency test, which the library asserts on index arrays only."""
    assert is_adjacency(formula)
    for other in others:
        data = other.data if isinstance(other, Matrix) else other
        assert formula.data.shape == data.shape
        assert formula.data.tobytes() == data.tobytes()


# --- strategies ----------------------------------------------------------------


@st.composite
def relabelled(draw, g):
    """g with its vertices stored in a drawn order."""
    order = draw(st.permutations(g.vertices))
    return make_graph(order, g.edge_list())


@st.composite
def bases(draw, max_n=5):
    """A graph on 1..max_n vertices with any edge set, stored in a drawn order."""
    n = draw(st.integers(1, max_n))
    pairs = [(str(i), str(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return draw(relabelled(make_graph([str(i) for i in range(1, n + 1)], edges)))


@st.composite
def voltages(draw, base, fiber):
    auts = automorphisms(fiber)
    return make_fiber_voltage(base, fiber, {e: draw(st.sampled_from(auts)) for e in base.edge_list()})


@st.composite
def fibers(draw, names=tuple(FIBERS)):
    return draw(relabelled(FIBERS[draw(st.sampled_from(names))]))


@st.composite
def collapsing_walk(draw, base):
    """A morphism from a path into base along a lazy walk: a step stays put
    (a collapsed edge) or moves to a neighbour."""
    steps = draw(st.integers(1, 7))
    walk = [draw(st.sampled_from(base.vertices))]
    for _ in range(steps - 1):
        walk.append(draw(st.sampled_from((walk[-1], *neighbors(base, walk[-1])))))
    domain = draw(relabelled(path_graph(len(walk))))
    return make_morphism(domain, base, {str(i + 1): v for i, v in enumerate(walk)})


@st.composite
def double_cover(draw, base):
    """The projection of a random 2-fold covering of base."""
    cover = draw(voltages(base, empty_graph(2)))
    return voltage_bundle(cover).projection


# --- the properties ------------------------------------------------------------


def test_adjacency_matrix_keeps_stored_order():
    g = make_graph(["c", "a", "b", "d"], [("a", "b"), ("d", "c"), ("c", "a")])
    assert adjacency_matrix(g) == from_rows([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    assert adjacency_matrix(empty_graph(3)) == Matrix(np.zeros((3, 3)))
    assert adjacency_matrix(make_graph([], [])).shape == (0, 0)


@FORMULA_SETTINGS
@given(st.data())
def test_adjacency_matrix_matches_reference(data):
    g = data.draw(st.one_of(bases(7), fibers()))
    assert_identical(adjacency_matrix(g), reference_adjacency(g))


@FORMULA_SETTINGS
@given(st.data())
def test_bundle_adjacency(data):
    base = data.draw(bases())
    fv = data.draw(voltages(base, data.draw(fibers())))
    assert_identical(bundle_adjacency(fv), reference_bundle(fv), adjacency_matrix(voltage_bundle(fv).total))


@FORMULA_SETTINGS
@given(st.data())
def test_covering_adjacency(data):
    base = data.draw(bases())
    k = data.draw(st.integers(1, 3))
    cv = data.draw(voltages(base, empty_graph(k)))
    total = voltage_bundle(cv).total
    assert_identical(covering_adjacency(base, cv), reference_bundle(cv), adjacency_matrix(total))


@FORMULA_SETTINGS
@given(st.data())
def test_pullback_adjacency(data):
    base = data.draw(bases(4))
    fv = data.draw(voltages(base, data.draw(fibers())))
    f = data.draw(st.one_of(double_cover(base), collapsing_walk(base)))
    total = pullback_bundle(f, voltage_bundle(fv)).total
    assert_identical(pullback_adjacency(f, fv), reference_pullback(f, fv), adjacency_matrix(total))


@FORMULA_SETTINGS
@given(st.data())
def test_subdirect_adjacency(data):
    base = data.draw(bases(4))
    small = ("K2", "P3", "1K1", "2K1", "3K1")
    fv1 = data.draw(voltages(base, data.draw(fibers())))
    fv2 = data.draw(voltages(base, data.draw(fibers(small))))
    total = subdirect_product(voltage_bundle(fv1), voltage_bundle(fv2)).total
    assert_identical(subdirect_adjacency(fv1, fv2), reference_subdirect(fv1, fv2), adjacency_matrix(total))


# --- trusted builds against the validating entries -----------------------------


def assert_voltage_validates(fv):
    """make_fiber_voltage rebuilds fv from one orientation per edge, and
    from both, which it checks to invert each other."""
    one_way = {(v, w): fv.phi[(v, w)] for v, w in fv.base.edge_list()}
    assert make_fiber_voltage(fv.base, fv.fiber, one_way).phi == fv.phi
    assert make_fiber_voltage(fv.base, fv.fiber, fv.phi).phi == fv.phi


def assert_bundle_validates(b):
    assert make_graph(b.total.vertices, b.total.edge_list()) == b.total
    assert make_morphism(b.total, b.base, b.projection.map).pairs == b.projection.pairs
    assert_voltage_validates(b.voltage)


@FORMULA_SETTINGS
@given(st.data())
def test_trusted_builds_equal_validated_ones(data):
    """The totals, projections and voltages built without re-validation
    equal what make_graph, make_morphism and make_fiber_voltage build from
    the same data."""
    base = data.draw(bases(4))
    fiber = data.draw(fibers())
    fv1 = data.draw(voltages(base, fiber))
    fv2 = data.draw(voltages(base, data.draw(fibers(("K2", "P3", "1K1", "2K1")))))
    f = data.draw(st.one_of(double_cover(base), collapsing_walk(base)))
    for g in (cartesian_product(base, fiber), strong_product(base, fiber)):
        assert make_graph(g.vertices, g.edge_list()) == g
    b1 = voltage_bundle(fv1)
    assert b1.voltage.phi == fv1.phi
    for b in (b1, pullback_bundle(f, b1), subdirect_product(b1, voltage_bundle(fv2))):
        assert_bundle_validates(b)
    for fv in (trivial_voltage(base, fiber), pullback_voltage(f, fv1), subdirect_voltage(fv1, fv2)):
        assert_voltage_validates(fv)


def reference_is_adjacency(a):
    """The adjacency test spelled out one condition at a time."""
    return (
        a.shape[0] == a.shape[1]
        and np.array_equal(a, a.T)
        and not np.any(np.diag(a) != 0.0)
        and bool(np.all((a == 0.0) | (a == 1.0)))
    )


@FORMULA_SETTINGS
@given(st.data())
def test_trusted_matrices_equal_validated_ones(data):
    """The matrices the library wraps without a copy equal what the public
    Matrix constructor builds from the same array, are frozen, and pass the
    one-pass adjacency test exactly when they pass the spelled-out one."""
    base = data.draw(bases())
    fiber = data.draw(fibers())
    fv = data.draw(voltages(base, fiber))
    psi = data.draw(st.sampled_from(automorphisms(fiber)))
    a_base, a_fiber = adjacency_matrix(base), adjacency_matrix(fiber)
    a_total = bundle_adjacency(fv)
    built = [
        a_base,
        a_total,
        adjacency_matrix(voltage_bundle(fv).total),
        kronecker(a_base, a_fiber),
        perm_matrix(psi),
        perm_block(psi),
        zeros(base.n, fiber.n),
    ]
    for m in built:
        assert not m.data.flags.writeable
        validated = Matrix(m.data)
        assert validated == m and validated.data.dtype == m.data.dtype
        assert is_adjacency(m) == reference_is_adjacency(m.data)


# --- the kernel on its own -----------------------------------------------------


def both_ways(sigma, edge=(0, 1)):
    """The value sigma on edge and its inverse on the reverse edge."""
    return [(edge, sigma), (edge[::-1], sigma.inverse())]


def dense(n, rows, cols):
    out = np.zeros((n, n))
    np.add.at(out, (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)), 1.0)
    return out


@pytest.mark.parametrize(
    "terms",
    [
        # The same term twice: one value twice on both orientations of one
        # edge.
        both_ways(Perm.identity(2)) * 2,
        # Two terms on one edge, whose values share the entry (2, 2) of the
        # block, so (2, 5) and (5, 2) of the total: an assigning scatter
        # would accept them.
        both_ways(Perm.identity(3)) + both_ways(Perm((1, 0, 2))),
    ],
)
def test_overlapping_terms_are_rejected(terms):
    """terms is a voltage whose terms A_σ ⊗ P_σ cover an entry twice."""
    m = terms[0][1].n
    with pytest.raises(AssertionError):
        voltage_adjacency(2, empty_graph(m), iter(terms))


@pytest.mark.parametrize(
    "voltage",
    [
        # A loop: entry (0, 0) of the base block lands on the diagonal.
        [((0, 0), Perm.identity(2))],
        # One orientation only: (0, 2) and (1, 3) with no mirror.
        [((0, 1), Perm.identity(2))],
        # One edge listed twice with one value covers its entries twice.
        both_ways(Perm((1, 0))) * 2,
    ],
    ids=["loop", "one-orientation", "covered-twice"],
)
def test_non_adjacency_sums_are_rejected(voltage):
    with pytest.raises(AssertionError):
        voltage_adjacency(2, empty_graph(2), voltage)


def test_term_of_wrong_shape_is_rejected():
    # A value on 3 points over a 2-vertex fiber.
    with pytest.raises(ShapeMismatch):
        voltage_adjacency(2, empty_graph(2), both_ways(Perm.identity(3)))
    # The index 2 outside the 2-vertex base.
    with pytest.raises(ShapeMismatch):
        voltage_adjacency(2, empty_graph(2), both_ways(Perm.identity(2), (0, 2)))


@st.composite
def kernel_voltages(draw):
    """(n, fiber, voltage): random values on random oriented edges, which
    may repeat; most edges come with their mirror, the reverse edge under
    the inverse value."""
    n = draw(st.integers(1, 4))
    fiber = draw(fibers(("K2", "P3", "1K1", "2K1", "3K1")))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    voltage = []
    for edge in draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []:
        sigma = Perm(tuple(draw(st.permutations(range(fiber.n)))))
        voltage += both_ways(sigma, edge) if draw(st.booleans()) or draw(st.booleans()) else [(edge, sigma)]
    return n, fiber, voltage


@FORMULA_SETTINGS
@given(kernel_voltages())
def test_kernel_matches_dense_reference(case):
    """The scatter equals the dense np.kron sum over the values used, and
    raises exactly when that sum is no adjacency matrix."""
    n, fiber, voltage = case
    terms = []
    for sigma in sorted({sigma for _, sigma in voltage}):
        edges = [edge for edge, value in voltage if value == sigma]
        terms.append((dense(n, [i for i, _ in edges], [j for _, j in edges]), perm_block(sigma)))
    reference = reference_voltage_adjacency(n, reference_adjacency(fiber), terms)
    if reference_is_adjacency(reference):
        assert_identical(voltage_adjacency(n, fiber, voltage), reference)
    else:
        with pytest.raises(AssertionError):
            voltage_adjacency(n, fiber, voltage)


#: The dense route of the pullback blocks, which left the library for
#: dense_reference: indicators, the morphism matrix, the conjugated blocks,
#: and the identity and Hadamard product they were built from.
DENSE_BUILDERS = {
    "_indicator",
    "voltage_indicator",
    "morphism_matrix",
    "_conjugated_block",
    "pullback_b_matrix",
    "pullback_indicator",
    "hadamard",
    "identity",
}


def test_formulas_build_no_dense_term(monkeypatch):
    """The bundle, covering, subdirect and pullback formulas hand the kernel
    their voltage and fiber graph, once each: no dense fiber adjacency,
    Kronecker product or permutation block is built, and the dense builders
    of indicators, morphism matrices, matrix products and Hadamard products
    are gone from the library, whose only dense statement of the pullback
    blocks is the tests' reference."""
    base = cycle_graph(4)
    edges = base.edge_list()
    fv = make_fiber_voltage(base, complete_graph(2), {e: Perm((i % 2, 1 - i % 2)) for i, e in enumerate(edges)})
    cover = make_fiber_voltage(base, empty_graph(3), {e: Perm((1, 2, 0)) for e in edges})
    double = voltage_bundle(make_fiber_voltage(base, empty_graph(2), {e: Perm((1, 0)) for e in edges})).projection
    # A walk 1 1 2 3 3 4 1 along the 4-cycle: two collapsed edges.
    walk = make_morphism(path_graph(7), base, dict(zip("1234567", "1123341")))
    runs = [
        (bundle_adjacency, (fv,), reference_bundle(fv)),
        (covering_adjacency, (base, cover), reference_bundle(cover)),
        (subdirect_adjacency, (fv, cover), reference_subdirect(fv, cover)),
        (pullback_adjacency, (double, fv), reference_pullback(double, fv)),
        (pullback_adjacency, (walk, fv), reference_pullback(walk, fv)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a formula built a dense term")

    kernel, calls = matrices.voltage_adjacency, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(np, "kron", refuse)
    for name in ("kronecker", "perm_matrix"):
        monkeypatch.setattr(dense_reference, name, refuse)
    monkeypatch.setattr(matrices, "adjacency_matrix", refuse)
    monkeypatch.setattr(matrices, "voltage_adjacency", counted)
    # A dense builder brought back into the library fails here.
    for info in pkgutil.iter_modules(bundleforge.__path__):
        module = importlib.import_module(f"bundleforge.{info.name}")
        assert not DENSE_BUILDERS & set(dir(module)), module.__name__
    assert not DENSE_BUILDERS & set(dir(bundleforge))
    assert not {"transpose", "__add__", "__matmul__"} & set(dir(Matrix))
    for formula, args, reference in runs:
        calls.clear()
        assert_identical(formula(*args), reference)
        assert len(calls) == 1, formula.__name__


# --- route independence ----------------------------------------------------------


def _resolve(node, names):
    """The object a call's function expression names, looked up in names,
    or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        return None if owner is None else getattr(owner, node.attr, None)
    return None


def called(source, module, names):
    """The objects the calls in source name, resolved in names and in the
    `from .x import y` statements of source itself, read as code of the
    module named module."""
    tree = ast.parse(textwrap.dedent(source))
    names = dict(names)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = importlib.import_module("." * node.level + (node.module or ""), module.rpartition(".")[0])
            names.update({alias.asname or alias.name: getattr(owner, alias.name) for alias in node.names})
    return [_resolve(node.func, names) for node in ast.walk(tree) if isinstance(node, ast.Call)]


def bundleforge_callees(fn):
    """Every bundleforge function fn calls, by a name or dotted name that
    its module or its own body's imports resolve, and every one those call
    in turn."""
    found, todo = set(), [fn]
    while todo:
        caller = todo.pop()
        for target in called(inspect.getsource(caller), caller.__module__, caller.__globals__):
            target = getattr(target, "__func__", target)
            if inspect.isfunction(target) and target.__module__.startswith("bundleforge") and target not in found:
                found.add(target)
                todo.append(target)
    return found


def test_the_walk_resolves_imports_inside_a_function():
    # The formulas load the matrix layer inside their bodies; a walk that
    # read only module globals would not see the kernel they call.
    source = (
        "def formula(n):\n"
        "    from .matrices import voltage_adjacency as kernel\n"
        "    from . import graphs\n"
        "    return kernel(n), graphs.cycle_graph(n), make_graph([], []), unknown(n)\n"
    )
    found = called(source, "bundleforge.bundles", {"make_graph": bundleforge.make_graph})
    assert found == [voltage_adjacency, bundleforge.graphs.cycle_graph, bundleforge.make_graph, None]


@pytest.mark.parametrize("formula", [bundles.bundle_adjacency, pullback.pullback_adjacency, pullback.subdirect_adjacency])
def test_every_formula_reaches_the_kernel(formula):
    assert voltage_adjacency in bundleforge_callees(formula)


def test_construction_and_formula_routes_share_no_helper():
    """The adjacency theorem compares voltage_bundle, the construction
    route, with voltage_adjacency, the formula route.  A helper both call,
    directly or through others, would check a routine against itself."""
    construction = bundleforge_callees(bundles.voltage_bundle)
    formula = bundleforge_callees(matrices.voltage_adjacency)
    assert {f.__name__ for f in construction} >= {"_trusted_graph", "pair_label"}
    assert {f.__name__ for f in formula} >= {"_trusted"}
    assert not construction & formula, sorted(f.__qualname__ for f in construction & formula)


def test_pullback_routes_share_only_the_input_check():
    """The pullback theorem compares pullback_bundle with
    pullback_adjacency; the two share only the check of their input."""
    formula = bundleforge_callees(pullback.pullback_adjacency)
    construction = bundleforge_callees(pullback.pullback_bundle)
    assert matrices.voltage_adjacency in formula
    shared = {f.__name__ for f in formula & construction}
    assert shared == {"_check_pullback", "require_morphism", "validate_morphism"}
    assert pullback.pullback_voltage not in formula


def test_subdirect_routes_share_only_the_fiber():
    """The subdirect theorem compares subdirect_product with
    subdirect_adjacency.  Both build F1 □ F2, the paper's subdirect fiber,
    as an input; the constructed total's edges do not come from it, and the
    routes share nothing else."""
    formula = bundleforge_callees(pullback.subdirect_adjacency)
    construction = bundleforge_callees(pullback.subdirect_product)
    fiber = {products.cartesian_product} | bundleforge_callees(products.cartesian_product)
    shared = formula & construction
    assert products.cartesian_product in shared
    assert shared <= fiber, sorted(f.__qualname__ for f in shared - fiber)
