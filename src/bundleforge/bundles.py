"""Graph bundles over a base graph: construction from fiber voltages,
structural verification, and equivalence testing.  Fiber voltages and
their adjacency formula live in products, below this module, and are
re-exported here.

A bundle is verified against two characterizations at once, the
three-condition definition (fibers, covering, transition isomorphisms) and
local triviality over every base edge; disagreement between them would be
an implementation bug, not bad input, and raises immediately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional

from .errors import (
    BaseMismatch,
    FiberMismatch,
    FiberNotIsomorphic,
    FiberSizeMismatch,
    LocalTrivialityFails,
    NoLifting,
    NotACovering,
    NotAMorphism,
    TransitionNotIso,
)
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    complete_graph,
    find_isomorphism,
    induced_subgraph,
    make_graph,
    make_morphism,
    pair_label,
    spanning_forest,
    validate_morphism,
)
from .graphs import automorphisms as graph_automorphisms
from .perms import Perm
from .products import (
    FiberVoltage,
    bundle_adjacency,
    cartesian_product,
    is_fiber_automorphism,
    make_fiber_voltage,
    trivial_voltage,
    verify_kfold_covering,
    voltage_indicator,
)

#: Default cap on fiber size for automorphism-group enumeration.
DEFAULT_FIBER_AUT_BOUND = 8


def fiber_automorphisms(fiber: Graph) -> list[Perm]:
    return graph_automorphisms(fiber, bound=DEFAULT_FIBER_AUT_BOUND)


def identity_bundle(base: Graph) -> GraphBundle:
    """The base over itself with a one-vertex fiber; neutral for the
    subdirect product."""
    point = make_graph(["1"], [])
    projection = make_morphism(base, base, {v: v for v in base.vertices})
    return verify_bundle(base, projection, point)


@dataclass(frozen=True, eq=False)
class GraphBundle:
    """A verified bundle: total space, projection, base, fiber, and the
    per-vertex fiber identifications sigma with per-edge transitions psi."""

    total: Graph
    projection: GraphMorphism
    base: Graph
    fiber: Graph
    fiber_isos: Mapping[Label, Mapping[Label, Label]]
    transitions: Mapping[tuple[Label, Label], Mapping[Label, Label]]

    @property
    def fibers(self) -> dict[Label, tuple[Label, ...]]:
        return self.projection.preimages

    @cached_property
    def inverse_fiber_isos(self) -> dict[Label, dict[Label, Label]]:
        return {v: {f: x for x, f in iso.items()} for v, iso in self.fiber_isos.items()}

    def __repr__(self) -> str:
        return (
            f"GraphBundle(total {self.total.n} vertices, base {self.base.n}, "
            f"fiber {self.fiber.n})"
        )


def voltage_bundle(fv: FiberVoltage) -> GraphBundle:
    """Total space of a fiber voltage: vertices (v,f), cross edges twisted by
    the voltage, plus one copy of the fiber over each base vertex."""
    base, fiber = fv.base, fv.fiber
    vs = [pair_label(v, f) for v in base.vertices for f in fiber.vertices]
    edges = []
    for v in base.vertices:
        for a, b in fiber.edge_list():
            edges.append((pair_label(v, a), pair_label(v, b)))
    for a, b in base.edge_list():
        for f in fiber.vertices:
            edges.append((pair_label(a, f), pair_label(b, fv.apply(a, b, f))))
    total = make_graph(vs, edges)
    projection = make_morphism(total, base, {pair_label(v, f): v for v in base.vertices for f in fiber.vertices})
    fiber_isos = {
        v: {pair_label(v, f): f for f in fiber.vertices} for v in base.vertices
    }
    transitions: dict[tuple[Label, Label], dict[Label, Label]] = {}
    for a, b in base.edge_list():
        for v, w in ((a, b), (b, a)):
            transitions[(v, w)] = {
                pair_label(v, f): pair_label(w, fv.apply(v, w, f)) for f in fiber.vertices
            }
    return GraphBundle(total, projection, base, fiber, fiber_isos, transitions)


def _check_conditions(
    total: Graph,
    p: GraphMorphism,
    fiber: Graph,
    fibers: Mapping[Label, tuple[Label, ...]],
    fiber_graphs: Mapping[Label, Graph],
):
    """Covering plus transition-isomorphism conditions; returns transitions."""
    base = p.codomain
    cross = [(a, b) for a, b in total.edge_list() if p(a) != p(b)]
    skeleton = make_graph(total.vertices, cross)
    p_tilde = make_morphism(skeleton, base, p.map)
    try:
        covering = verify_kfold_covering(p_tilde, fiber.n)
    except (FiberSizeMismatch, NoLifting) as exc:
        raise NotACovering(f"edge-deleted total space is not a {fiber.n}-fold covering: {exc}") from exc
    transitions: dict[tuple[Label, Label], dict[Label, Label]] = {}
    for a, b in base.edge_list():
        for v, w in ((a, b), (b, a)):
            psi = {x: covering.liftings[(v, x)][w] for x in fibers[v]}
            fib_v, fib_w = fiber_graphs[v], fiber_graphs[w]
            forward_ok = all(
                fib_w.has_edge(psi[x], psi[y]) for x, y in fib_v.edge_list()
            )
            if not forward_ok or len(fib_v.edges) != len(fib_w.edges):
                raise TransitionNotIso(f"transition over base edge ({v!r}, {w!r}) is not an isomorphism")
            transitions[(v, w)] = psi
    return transitions


def _check_local_triviality(
    total: Graph, p: GraphMorphism, fiber: Graph, fibers: Mapping[Label, tuple[Label, ...]]
) -> None:
    base = p.codomain
    k2f = cartesian_product(complete_graph(2), fiber)
    for v, w in base.edge_list():
        local = induced_subgraph(total, fibers[v] + fibers[w])
        if find_isomorphism(local, k2f) is None:
            raise LocalTrivialityFails(f"preimage of base edge ({v!r}, {w!r}) is not a box product with the fiber")


def verify_bundle(total: Graph, p: GraphMorphism, fiber: Graph) -> GraphBundle:
    """Verify the bundle structure of (total, p, base) with the given fiber.

    Both the three-condition definition and the local-triviality
    characterization are evaluated; they must agree, and the first failing
    witness of the definition is raised when both reject.
    """
    ok, bad = validate_morphism(p)
    if not ok:
        raise NotAMorphism(f"projection is not a morphism; violating edges: {bad}")
    base = p.codomain
    fibers = p.preimages
    fiber_graphs: dict[Label, Graph] = {}
    sigma: dict[Label, dict[Label, Label]] = {}
    for v in base.vertices:
        fiber_graphs[v] = induced_subgraph(total, fibers[v])
        iso = find_isomorphism(fiber_graphs[v], fiber)
        if iso is None:
            raise FiberNotIsomorphic(f"fiber over {v!r} is not isomorphic to the fiber graph")
        sigma[v] = iso

    definition_error: Exception | None = None
    transitions: dict[tuple[Label, Label], dict[Label, Label]] | None = None
    try:
        transitions = _check_conditions(total, p, fiber, fibers, fiber_graphs)
    except (NotACovering, TransitionNotIso) as exc:
        definition_error = exc

    local_error: Exception | None = None
    try:
        _check_local_triviality(total, p, fiber, fibers)
    except LocalTrivialityFails as exc:
        local_error = exc

    if (definition_error is None) != (local_error is None):
        raise AssertionError(
            "internal error: bundle definition and local triviality disagree: "
            f"{definition_error or local_error}"
        )
    if definition_error is not None:
        raise definition_error
    assert transitions is not None
    return GraphBundle(total, p, base, fiber, sigma, transitions)


def bundle_to_voltage(b: GraphBundle) -> FiberVoltage:
    """Extract the voltage sigma_w ∘ psi_vw ∘ sigma_v⁻¹ on every oriented edge."""
    fiber = b.fiber
    idx = fiber.index
    assignments: dict[tuple[Label, Label], Perm] = {}
    for a, w in b.base.edge_list():
        images = [0] * fiber.n
        inv_sigma_v = b.inverse_fiber_isos[a]
        for i, f in enumerate(fiber.vertices):
            x = inv_sigma_v[f]
            y = b.transitions[(a, w)][x]
            images[i] = idx[b.fiber_isos[w][y]]
        assignments[(a, w)] = Perm(tuple(images))
    return make_fiber_voltage(b.base, fiber, assignments)


# --- equivalence -------------------------------------------------------------

def _gauge_witnesses(
    base: Graph,
    auts: list[Perm],
    phi1: Mapping[tuple[Label, Label], Perm],
    phi2: Mapping[tuple[Label, Label], Perm],
) -> Iterator[dict[Label, Perm]]:
    """Yield all per-vertex automorphism families g with
    phi2(v,w) = g_w ∘ phi1(v,w) ∘ g_v⁻¹ on every oriented base edge.

    The root value of each component forces g along a spanning tree, so the
    search is linear in the base size for each root choice; the non-tree
    edges then accept or reject the choice.
    """
    per_component: list[list[dict[Label, Perm]]] = []
    for tree in spanning_forest(base):
        root, *rest = tree
        non_tree = [
            (v, w)
            for v in tree
            for w in base.neighbors(v)
            if base.index[v] < base.index[w] and tree[v] != w and tree[w] != v
        ]
        sols = []
        for g_root in auts:
            g = {root: g_root}
            for w in rest:
                v = tree[w]
                g[w] = phi2[(v, w)].compose(g[v]).compose(phi1[(v, w)].inverse())
            if all(g[w].compose(phi1[(v, w)]) == phi2[(v, w)].compose(g[v]) for v, w in non_tree):
                sols.append(g)
        if not sols:
            return
        per_component.append(sols)
    for combo in itertools.product(*per_component):
        merged: dict[Label, Perm] = {}
        for part in combo:
            merged.update(part)
        yield merged


def _witness_from_gauge(b1: GraphBundle, b2: GraphBundle, g: Mapping[Label, Perm]) -> dict[Label, Label]:
    fiber = b1.fiber
    mapping: dict[Label, Label] = {}
    for v in b1.base.vertices:
        inv2 = b2.inverse_fiber_isos[v]
        for x in b1.fibers[v]:
            i = fiber.index[b1.fiber_isos[v][x]]
            mapping[x] = inv2[fiber.vertices[g[v](i)]]
    return mapping


def bundles_equivalent(b1: GraphBundle, b2: GraphBundle) -> Optional[dict[Label, Label]]:
    """Search for an equivalence: a total-space isomorphism over the identity
    on the base.  Returns the lexicographically least witness, or None.

    The search ranges over per-vertex fiber automorphisms only, never raw
    vertex bijections of the total spaces.
    """
    if b1.base != b2.base:
        raise BaseMismatch("bundles have different base graphs")
    if b1.fiber != b2.fiber:
        raise FiberMismatch("bundles have different fiber graphs")
    auts = fiber_automorphisms(b1.fiber)
    phi1 = bundle_to_voltage(b1).phi
    phi2 = bundle_to_voltage(b2).phi
    witnesses = [
        _witness_from_gauge(b1, b2, g)
        for g in _gauge_witnesses(b1.base, auts, phi1, phi2)
    ]
    if not witnesses:
        return None
    return min(witnesses, key=lambda m: tuple(m[x] for x in b1.total.vertices))


def is_equivalence_witness(b1: GraphBundle, b2: GraphBundle, mapping: Mapping[Label, Label]) -> bool:
    """Validate a proposed total-space map as a bundle equivalence."""
    from .graphs import is_isomorphism

    if not is_isomorphism(dict(mapping), b1.total, b2.total):
        return False
    return all(b2.projection(mapping[x]) == b1.projection(x) for x in b1.total.vertices)


def is_trivial(b: GraphBundle) -> bool:
    """True when the bundle is equivalent to the box product over the same base.

    No automorphism of the fiber is enumerated: composing every gauge of a
    trivialization with one fixed automorphism gives another, so a
    trivialization exists iff one exists with the identity at every root.
    """
    phi = bundle_to_voltage(b).phi
    ident = Perm.identity(b.fiber.n)
    trivial_phi = {edge: ident for edge in phi}
    return next(_gauge_witnesses(b.base, [ident], phi, trivial_phi), None) is not None


def with_fiber(b: GraphBundle, new_fiber: Graph) -> GraphBundle:
    """Re-express a bundle with an isomorphic replacement fiber graph.

    Any graph isomorphism works as the alignment: the residual ambiguity is
    a constant automorphism twist, which bundle equivalence absorbs.
    """
    if b.fiber == new_fiber:
        return b
    lam = find_isomorphism(b.fiber, new_fiber)
    if lam is None:
        raise FiberMismatch("replacement fiber is not isomorphic to the bundle fiber")
    fiber_isos = {
        v: {x: lam[f] for x, f in iso.items()} for v, iso in b.fiber_isos.items()
    }
    return GraphBundle(b.total, b.projection, b.base, new_fiber, fiber_isos, b.transitions)
