"""Graph bundles over a base graph: construction from fiber voltages,
structural verification, and equivalence by holonomy, the voltage carried
around the fundamental cycle of each edge off a spanning forest: two
bundles are equivalent exactly when one fiber automorphism per component
conjugates every holonomy of one onto the other.  Fiber voltages and their
adjacency formula live in products, below this module, and are re-exported
here.

A bundle is verified against two characterizations at once, the
three-condition definition (fibers, covering, transition isomorphisms) and
local triviality over every base edge; disagreement between them would be
an implementation bug, not bad input, and raises immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional

from . import graphs
from .errors import (
    BaseMismatch,
    FiberMismatch,
    FiberNotIsomorphic,
    FiberSizeMismatch,
    LocalTrivialityFails,
    NoLifting,
    NotACovering,
    NotAMorphism,
    SearchBudgetExceeded,
    TransitionNotIso,
)
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    complete_graph,
    find_isomorphism,
    induced_subgraph,
    is_isomorphism,
    make_graph,
    make_morphism,
    pair_label,
    spanning_forest,
    validate_morphism,
)
from .perms import Perm
from .products import (
    FiberVoltage,
    bundle_adjacency,
    cartesian_product,
    make_fiber_voltage,
    trivial_voltage,
    verify_kfold_covering,
    voltage_indicator,
)

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

def _holonomies(fv: FiberVoltage) -> Iterator[tuple[dict[Label, Perm], list[Perm]]]:
    """Per spanning-forest component, the transport t[v] of the voltage from
    the root along the tree, and the holonomy t[w]⁻¹ ∘ φ(v, w) ∘ t[v] of each
    non-tree edge (v, w): the voltage carried around its fundamental cycle."""
    base, phi = fv.base, fv.phi
    for tree in spanning_forest(base):
        t: dict[Label, Perm] = {}
        for w, v in tree.items():
            t[w] = Perm.identity(fv.fiber.n) if v is None else phi[(v, w)].compose(t[v])
        yield t, [
            t[w].inverse().compose(phi[(v, w)]).compose(t[v])
            for v in tree
            for w in base.adjacency[v]
            if base.index[v] < base.index[w] and tree[v] != w and tree[w] != v
        ]


def _least_conjugator(
    fiber: Graph, h1: list[Perm], h2: list[Perm], order: list[tuple[int, list[int]]]
) -> Optional[Perm]:
    """The first fiber automorphism g with g ∘ h1[k] = h2[k] ∘ g for every k,
    placing the points of order in turn with their candidate images in the
    order given, or None.  Placing a point forces its images under every
    holonomy; each candidate tried is one node of graphs.DEFAULT_NODE_BUDGET."""
    if any(a.cycle_type() != b.cycle_type() for a, b in zip(h1, h2)):
        return None
    nbrs = [{fiber.index[u] for u in fiber.adjacency[f]} for f in fiber.vertices]
    g: dict[int, int] = {}
    used: set[int] = set()
    budget, nodes = graphs.DEFAULT_NODE_BUDGET, 0

    def place(j: int, k: int) -> bool:
        todo = [(j, k)]
        while todo:
            j, k = todo.pop()
            if g.get(j) == k:
                continue
            if j in g or k in used:
                return False
            if any((i in nbrs[j]) != (g[i] in nbrs[k]) for i in g):
                return False
            g[j] = k
            used.add(k)
            todo.extend((a(j), b(k)) for a, b in zip(h1, h2))
        return True

    # A frame per placed decision: its position, next candidate and len(g) before it.
    frames: list[tuple[int, int, int]] = []
    pos = start = 0
    while pos < len(order):
        j, candidates = order[pos]
        if j in g:
            pos += 1
            continue
        if start < len(candidates):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"conjugator search exceeded {budget} nodes")
            frames.append((pos, start + 1, len(g)))
            if place(j, candidates[start]):
                pos, start = pos + 1, 0
                continue
        elif not frames:
            return None
        pos, start, mark = frames.pop()
        while len(g) > mark:
            used.discard(g.popitem()[1])
    return Perm(tuple(g[i] for i in range(fiber.n)))


def bundles_equivalent(b1: GraphBundle, b2: GraphBundle) -> Optional[dict[Label, Label]]:
    """Search for an equivalence: a total-space isomorphism over the identity
    on the base.  Returns the lexicographically least witness, or None.

    With t1, t2 the tree transports of the two voltages, a vertex x of b1
    over v sits at the root point j = t1[v]⁻¹(σ1_v(x)) and goes to the
    vertex of b2 over v at t2[v](g(j)).  Each point's images are tried in
    the order of the labels they give at its first vertex in
    b1.total.vertices, so the first g found is the least.
    """
    if b1.base != b2.base:
        raise BaseMismatch("bundles have different base graphs")
    if b1.fiber != b2.fiber:
        raise FiberMismatch("bundles have different fiber graphs")
    fiber, position = b1.fiber, b1.total.index
    witness: dict[Label, Label] = {}
    for (t1, h1), (t2, h2) in zip(_holonomies(bundle_to_voltage(b1)), _holonomies(bundle_to_voltage(b2))):
        label = {v: [b2.inverse_fiber_isos[v][fiber.vertices[t2[v](k)]] for k in range(fiber.n)] for v in t2}
        back = {v: t.inverse() for v, t in t1.items()}
        points = {x: (v, back[v](fiber.index[b1.fiber_isos[v][x]])) for v in t1 for x in b1.fibers[v]}
        reach: dict[int, list[int]] = {}
        for x in sorted(points, key=position.__getitem__):
            v, j = points[x]
            if j not in reach:
                reach[j] = sorted(range(fiber.n), key=label[v].__getitem__)
        g = _least_conjugator(fiber, h1, h2, list(reach.items()))
        if g is None:
            return None
        witness.update((x, label[v][g(j)]) for x, (v, j) in points.items())
    return {x: witness[x] for v in b1.base.vertices for x in b1.fibers[v]}


def is_equivalence_witness(b1: GraphBundle, b2: GraphBundle, mapping: Mapping[Label, Label]) -> bool:
    """Validate a proposed total-space map as a bundle equivalence."""
    if not is_isomorphism(dict(mapping), b1.total, b2.total):
        return False
    return all(b2.projection(mapping[x]) == b1.projection(x) for x in b1.total.vertices)


def is_trivial(b: GraphBundle) -> bool:
    """True when the bundle is equivalent to the box product over the same
    base: exactly when every holonomy is the identity, since g ∘ h ∘ g⁻¹ is
    the identity only for h the identity."""
    return all(h.is_identity() for _, hs in _holonomies(bundle_to_voltage(b)) for h in hs)


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
