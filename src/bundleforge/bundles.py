"""Graph bundles over a base graph: construction from fiber voltages,
structural verification, and equivalence by holonomy, the voltage carried
around the fundamental cycle of each edge off a spanning forest: two
bundles are equivalent exactly when one fiber automorphism per component
conjugates every holonomy of one onto the other.  Fiber voltages and their
adjacency formula live in products, below this module, and are re-exported
here.  A k-fold covering is a bundle over the edgeless fiber on k vertices:
products.verify_kfold_covering is verify_bundle with that fiber, and the
covering's permutation voltage is the bundle's voltage.

A GraphBundle holds what verification proves: the total space, the
projection (whose codomain is the base), the fiber and one identification
sigma_v of each fiber with it.  Its voltage sigma_w ∘ psi_vw ∘ sigma_v⁻¹
is read off the total space on first use, through the same transition
psi_vw (x to its one neighbour over w) that the definition check reads.
Verification proved every psi_vw an isomorphism, so that voltage, like the
total of voltage_bundle, skips the validation of user data.

A bundle is verified against two characterizations at once, the
three-condition definition (fibers, covering, transition isomorphisms) and
local triviality over every base edge; disagreement between them would be
an implementation bug, not bad input, and raises immediately.

Both routes run on every call, and each searches once per distinct shape.
The shape of a vertex set, in the total's order, is each vertex's neighbour
positions within the set; it is exact, and the isomorphism search reads
nothing else of the set, so sets of one shape get one answer.  Both
routes hand the shape straight to the search kernel, graphs.search_shape,
and build no graph for it.  The fiber check keys fibers by shape, searches
each against F's cached profile and reuses a witness by position; local
triviality keys edge preimages by shape and by which vertices lie over v,
and searches them against a K2 □ F profile built once per call from F's
shape, with each side of the edge a mask of positions.  A call costs
O(|V|·|F| + |E|·|F|) plus one search per distinct shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

from . import graphs
from .errors import (
    BaseMismatch,
    FiberMismatch,
    FiberNotIsomorphic,
    LocalTrivialityFails,
    NotACovering,
    SearchBudgetExceeded,
    TotalMismatch,
    TransitionNotIso,
)
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    _trusted_graph,
    induced_adjacency,
    pair_label,
    require_morphism,
    search_shape,
    spanning_forest,
)
from .perms import Perm
from .products import (
    FiberVoltage,
    bundle_adjacency,
    make_fiber_voltage,
    trivial_voltage,
)


@dataclass(frozen=True, eq=False)
class GraphBundle:
    """A verified bundle: total space, projection, fiber, and the per-vertex
    fiber identifications sigma.  The base is the projection's codomain and
    the voltage is derived from these on first use, trusting them: a bundle
    comes from verify_bundle or voltage_bundle, as its subclasses do."""

    total: Graph
    projection: GraphMorphism
    fiber: Graph
    fiber_isos: Mapping[Label, Mapping[Label, Label]]

    @property
    def base(self) -> Graph:
        return self.projection.codomain

    @property
    def fibers(self) -> dict[Label, tuple[Label, ...]]:
        return self.projection.preimages

    @cached_property
    def inverse_fiber_isos(self) -> dict[Label, dict[Label, Label]]:
        return {v: {f: x for x, f in iso.items()} for v, iso in self.fiber_isos.items()}

    @cached_property
    def voltage(self) -> FiberVoltage:
        """The voltage sigma_w ∘ psi_vw ∘ sigma_v⁻¹ on every oriented base
        edge, with psi_vw the transition that verification checked."""
        fiber, idx = self.fiber, self.fiber.index
        assignments: dict[tuple[Label, Label], Perm] = {}
        for v, w in self.base.edge_list():
            psi = _transition(self.total, self.projection.map, self.fibers[v], v, w)
            inv_sigma_v, sigma_w = self.inverse_fiber_isos[v], self.fiber_isos[w]
            assignments[(v, w)] = Perm._trusted(tuple(idx[sigma_w[psi[inv_sigma_v[f]]]] for f in fiber.vertices))
        return FiberVoltage._trusted(self.base, fiber, assignments)

    def __repr__(self) -> str:
        return (
            f"GraphBundle(total {self.total.n} vertices, base {self.base.n}, "
            f"fiber {self.fiber.n})"
        )


def voltage_bundle(fv: FiberVoltage) -> GraphBundle:
    """Total space of a fiber voltage: vertices (v,f), cross edges twisted by
    the voltage, plus one copy of the fiber over each base vertex.  (v, f)
    sits at position v·|F| + f, and a base edge vw joins (v, f) to (w,
    φ(v, w)(f))."""
    base, fiber = fv.base, fv.fiber
    bvs, fvs, m = base.vertices, fiber.vertices, fiber.n
    labels = [pair_label(v, f) for v in bvs for f in fvs]
    ends = [(at + i, at + j) for at in [a * m for a in range(base.n)] for i, j in fiber.ends]
    for a, w in base.ends:
        images = fv.phi[(bvs[a], bvs[w])].images
        ends += zip(range(a * m, a * m + m), [w * m + x for x in images])
    total = _trusted_graph(tuple(labels), ends)
    pairs = tuple(zip(labels, (v for v in bvs for _ in fvs)))
    fiber_isos = {v: dict(zip(labels[a * m : (a + 1) * m], fvs)) for a, v in enumerate(bvs)}
    return GraphBundle(total, GraphMorphism(total, base, pairs), fiber, fiber_isos)


def _transition(
    total: Graph, over: Mapping[Label, Label], xs: Iterable[Label], v: Label, w: Label
) -> dict[Label, Label]:
    """psi_vw: each x in xs, the vertices over v, to its one neighbour over
    w.  Raises NotACovering when some x has none or two, or two x share one;
    between fibers of equal size, an injective psi_vw is a bijection."""
    psi: dict[Label, Label] = {}
    for x in xs:
        ys = [y for y in total.adjacency[x] if over[y] == w]
        if len(ys) != 1:
            raise NotACovering(f"vertex {x!r} over {v!r} has {len(ys)} neighbours over {w!r}")
        psi[x] = ys[0]
    if len(set(psi.values())) != len(psi):
        raise NotACovering(f"transition over base edge ({v!r}, {w!r}) is not one-to-one")
    return psi


def _check_conditions(total: Graph, p: GraphMorphism) -> None:
    """Covering, then transition isomorphisms, over fibers isomorphic to F:
    every psi_vw is read before any is checked, so a covering failure comes
    before a transition failure.  One orientation per base edge suffices:
    psi_vw is a bijection between fibers with as many edges as F, so an
    edge-preserving psi_vw is an isomorphism, and psi_wv is its inverse.
    The fiber edges are read off the total: x'y' is one exactly when x' and
    y' lie over one base vertex and are adjacent in the total."""
    over, fibers, adj = p.map, p.preimages, total.adjacency
    psis = [(v, w, _transition(total, over, fibers[v], v, w)) for v, w in p.codomain.edge_list()]
    for v, w, psi in psis:
        if not all(psi[y] in adj[psi[x]] for x in fibers[v] for y in adj[x] if over[y] == v):
            raise TransitionNotIso(f"transition over base edge ({v!r}, {w!r}) is not an isomorphism")


def _box_k2_profile(fiber: Graph) -> graphs.SearchProfile:
    """The search profile of K2 □ F, built from F's shape: copy i of f sits
    at position i·|F| + f, the vertex order of
    cartesian_product(complete_graph(2), F)."""
    n, shape = fiber.n, fiber.neighbor_indices
    return graphs.search_profile(
        [[i * n + j for j in nb] + [(1 - i) * n + f] for i in (0, 1) for f, nb in enumerate(shape)]
    )


def _check_local_triviality(total: Graph, p: GraphMorphism, fiber: Graph) -> None:
    """The preimage of each base edge vw is K2 □ F over the edge, not just up
    to isomorphism: the fiber over v goes onto copy 1 of F, the low |F|
    positions of K2 □ F, and that over w onto copy 2, the high ones.  The
    search sees only the preimage's shape and which of its vertices lie
    over v, so it runs once per distinct pair of the two."""
    k2f = _box_k2_profile(fiber)
    low = (1 << fiber.n) - 1
    high = low << fiber.n
    budget = graphs.current_budget.get()
    over, fibers, idx = p.map, p.preimages, total.index
    boxed: dict[tuple, bool] = {}
    for v, w in p.codomain.edge_list():
        xs = sorted(fibers[v] + fibers[w], key=idx.__getitem__)
        shape = induced_adjacency(total, xs)
        sides = tuple(over[x] == v for x in xs)
        key = (shape, sides)
        if key not in boxed:
            within = [low if side else high for side in sides]
            boxed[key] = bool(search_shape(shape, k2f, budget, 1, within)[0])
        if not boxed[key]:
            raise LocalTrivialityFails(f"preimage of base edge ({v!r}, {w!r}) is not a box product with the fiber")


def verify_bundle(total: Graph, p: GraphMorphism, fiber: Graph) -> GraphBundle:
    """Verify the bundle structure of (total, p, base) with the given fiber.

    Both the three-condition definition and the local-triviality
    characterization are evaluated; they must agree, and the first failing
    witness of the definition is raised when both reject.

    Each fiber is searched against F once per distinct shape: a fiber with
    the shape of an earlier one takes that one's witness by position, which
    is the witness a fresh search would return.

    Raises TotalMismatch, before any check, when p's domain is not total.
    """
    if p.domain is not total and p.domain != total:
        raise TotalMismatch(f"the projection's domain {p.domain!r} is not the total space {total!r}")
    require_morphism(p, "projection is not a morphism")
    idx, fvs, profile = total.index, fiber.vertices, fiber.profile
    budget = graphs.current_budget.get()
    # Per fiber shape, the position in F of each vertex's image, or None.
    placed: dict[tuple[tuple[int, ...], ...], Optional[tuple[int, ...]]] = {}
    sigma: dict[Label, dict[Label, Label]] = {}
    for v, xs in p.preimages.items():
        xs = sorted(xs, key=idx.__getitem__)
        shape = induced_adjacency(total, xs)
        if shape not in placed:
            found, _ = search_shape(shape, profile, budget, 1)
            placed[shape] = found[0] if found else None
        at = placed[shape]
        if at is None:
            raise FiberNotIsomorphic(f"fiber over {v!r} is not isomorphic to the fiber graph")
        sigma[v] = dict(zip(xs, map(fvs.__getitem__, at)))

    definition_error: Exception | None = None
    try:
        _check_conditions(total, p)
    except (NotACovering, TransitionNotIso) as exc:
        definition_error = exc

    local_error: Exception | None = None
    try:
        _check_local_triviality(total, p, fiber)
    except LocalTrivialityFails as exc:
        local_error = exc

    if (definition_error is None) != (local_error is None):
        raise AssertionError(
            "internal error: bundle definition and local triviality disagree: "
            f"{definition_error or local_error}"
        )
    if definition_error is not None:
        raise definition_error
    return GraphBundle(total, p, fiber, sigma)


def bundle_to_voltage(b: GraphBundle) -> FiberVoltage:
    """The voltage sigma_w ∘ psi_vw ∘ sigma_v⁻¹ on every oriented edge."""
    return b.voltage


# --- equivalence -------------------------------------------------------------

def _forest_cycles(base: Graph) -> list[tuple[dict[Label, Optional[Label]], list[tuple[Label, Label]]]]:
    """Per component of the breadth-first spanning forest, the tree and the
    edges (v, w) off it, with v before w in the base, in the tree's visit
    order of v: one fundamental cycle each."""
    idx, adj = base.index, base.adjacency
    return [
        (tree, [(v, w) for v in tree for w in adj[v] if idx[v] < idx[w] and tree[v] != w and tree[w] != v])
        for tree in spanning_forest(base)
    ]


def _holonomies(fv: FiberVoltage) -> Iterator[tuple[dict[Label, Perm], list[Perm]]]:
    """Per spanning-forest component, the transport t[v] of the voltage from
    the root along the tree, and the holonomy t[w]⁻¹ ∘ φ(v, w) ∘ t[v] of each
    non-tree edge (v, w): the voltage carried around its fundamental cycle."""
    phi = fv.phi
    for tree, cycles in _forest_cycles(fv.base):
        t: dict[Label, Perm] = {}
        for w, v in tree.items():
            t[w] = Perm.identity(fv.fiber.n) if v is None else phi[(v, w)].compose(t[v])
        yield t, [t[w].inverse().compose(phi[(v, w)]).compose(t[v]) for v, w in cycles]


def _least_conjugator(
    fiber: Graph, h1: list[Perm], h2: list[Perm], order: list[tuple[int, list[int]]]
) -> Optional[Perm]:
    """The first fiber automorphism g with g ∘ h1[k] = h2[k] ∘ g for every k,
    placing the points of order in turn with their candidate images in the
    order given, or None.  Placing a point forces its images under every
    holonomy; each candidate tried is one node of the budget in scope
    (graphs.node_budget)."""
    if any(a.cycle_type() != b.cycle_type() for a, b in zip(h1, h2)):
        return None
    nbrs = [set(nb) for nb in fiber.neighbor_indices]
    g: dict[int, int] = {}
    used: set[int] = set()
    budget, nodes = graphs.current_budget.get(), 0

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
    for (t1, h1), (t2, h2) in zip(_holonomies(b1.voltage), _holonomies(b2.voltage)):
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


def is_trivial(b: GraphBundle) -> bool:
    """True when the bundle is equivalent to the box product over the same
    base: exactly when every holonomy is the identity, since g ∘ h ∘ g⁻¹ is
    the identity only for h the identity."""
    return all(h.is_identity() for _, hs in _holonomies(b.voltage) for h in hs)
