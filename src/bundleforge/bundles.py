"""Fiber voltages and graph bundles over a base graph: voltages and their
adjacency formula, total spaces built from voltages, structural
verification, and equivalence by holonomy, the voltage carried around the
fundamental cycle of each edge off a spanning forest: two bundles are
equivalent exactly when one fiber automorphism per component conjugates
every holonomy of one onto the other.  The holonomies are walked on
positions, over base.neighbor_indices and the voltage's one value per
base.ends entry, with no label map.  A k-fold covering is a bundle over
the edgeless fiber on k vertices: products.verify_kfold_covering is
verify_bundle with that fiber, and the covering's permutation voltage is
the bundle's voltage.

A FiberVoltage stores one permutation per base.ends entry, by position;
its label view phi is derived when read.  A GraphBundle holds what
verification proves: the total space, the projection (whose codomain is
the base), the fiber, sigma (the fiber position of each total position:
sigma_v on the fiber over v) and the voltage sigma_w ∘ psi_vw ∘ sigma_v⁻¹,
composed from the transitions psi_vw (x to its one neighbour over w) that
the definition check proved isomorphisms.  Every voltage and projection
the library builds goes straight into its class, whose constructor checks
nothing; make_fiber_voltage (FiberVoltage.from_json through it) and
make_morphism validate user data; voltage_bundle keeps the voltage it was
given.  A "v,w" phi key splits exactly, since no label holds a top-level
comma.  Only bundle_adjacency, the one function here that builds a
Matrix, loads the matrix layer.

A bundle is verified against two characterizations at once, the
three-condition definition (fibers, covering, transition isomorphisms) and
local triviality over every base edge; disagreement between them would be
an implementation bug, not bad input, and raises immediately.

Both routes run on every call, on vertex positions, and decide once per
distinct key.  One pass over the total's edges, which is also the
morphism check, files each by its ends' ranks in their fibers, under its
base vertex (a fiber edge) or its base edge (a cross edge).  A fiber's
key is its size and edges, a base edge's its fibers' kinds and its cross
edges.  The definition is decided once per distinct edge key on ranks,
and the voltage value composed once per key.  Local triviality reads an
edge preimage on ranks, the fiber over v first and that over w after it,
so its edge kind alone fixes the shape the search reads, each position's
neighbours within the set, increasing, and the sides are the same on
every edge; the shape is built once per edge kind, goes straight to
graphs.search_shape against F's K2 □ F profile, which the fiber Graph
builds once and keeps (fiber.box_k2_profile), with each side of the edge
a mask, and no graph is built.  A total stored in any order costs the
search about what the base-major order does, since the search places
each position next to placed ones.  A call reads
total.ends once and never builds the total's neighbour lists: it costs
O(|V|·|F| + |E|·|F|) to file edges, plus one decision and one search per
distinct key.

Equivalence, too, pays once per distinct value: the tree transports, the
holonomies and the vertex maps of a witness are composed once per
distinct operands, and the conjugator search reads each distinct pair of
holonomies once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from . import graphs
from .errors import (
    BaseMismatch,
    FiberMismatch,
    FiberNotIsomorphic,
    LocalTrivialityFails,
    NotACovering,
    ParseError,
    SearchBudgetExceeded,
    TotalMismatch,
    TransitionNotIso,
)
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    _neighbours,
    _trusted_graph,
    canon_label,
    pair_label,
    require_morphism,
    search_shape,
    split_top,
)
from .perms import Perm

if TYPE_CHECKING:
    from .matrices import Matrix


# --- fiber voltages -------------------------------------------------------------

def is_fiber_automorphism(fiber: Graph, perm: Perm) -> bool:
    """True when perm, on fiber vertex indices, maps every edge to an edge:
    a bijection on a finite graph that does is an automorphism."""
    if perm.n != fiber.n:
        return False
    nbrs = fiber.neighbor_indices
    return all(perm[j] in nbrs[perm[i]] for i, j in fiber.ends)


class FiberVoltage:
    """Assignment of fiber automorphisms to the oriented edges of a base graph.

    What is stored is perms, one permutation of fiber vertex indices per
    base.ends entry: perms[k] is the voltage from the vertex at i to the one
    at j for base.ends[k] = (i, j), and the reverse orientation carries its
    inverse.  phi, the label view on both orientations, is derived on first
    read.  The constructor trusts its values to be fiber automorphisms:
    make_fiber_voltage and from_json are the entries for a voltage given by
    labels.
    """

    def __init__(self, base: Graph, fiber: Graph, perms: Iterable[Perm]) -> None:
        self.base, self.fiber, self.perms = base, fiber, tuple(perms)

    @cached_property
    def _oriented(self) -> dict[tuple[int, int], Perm]:
        """The voltage on both orientations of each base edge, keyed by
        positions, in base.ends order: (i, j) carries perms[k] for
        base.ends[k] = (i, j), and (j, i) its inverse, computed once per
        distinct value."""
        out: dict[tuple[int, int], Perm] = {}
        inverses: dict[Perm, Perm] = {}
        for (i, j), perm in zip(self.base.ends, self.perms):
            inverse = inverses.get(perm)
            if inverse is None:
                inverse = inverses[perm] = perm.inverse()
            out[i, j] = perm
            out[j, i] = inverse
        return out

    @cached_property
    def phi(self) -> dict[tuple[Label, Label], Perm]:
        """The label view: the voltage on both orientations of every base
        edge, keyed by vertex labels."""
        bvs = self.base.vertices
        return {(bvs[i], bvs[j]): perm for (i, j), perm in self._oriented.items()}

    def to_json(self) -> dict:
        """One "v,w" phi key per base edge: no label holds a top-level
        comma, so the keys are distinct and from_json reads each back."""
        bvs, fvs = self.base.vertices, self.fiber.vertices
        phi = {f"{bvs[i]},{bvs[j]}": [fvs[x] for x in perm] for (i, j), perm in zip(self.base.ends, self.perms)}
        return {"base": self.base.to_json(), "fiber": self.fiber.to_json(), "phi": phi}

    @staticmethod
    def from_json(data: Mapping) -> FiberVoltage:
        try:
            base = Graph.from_json(data["base"])
            fiber = Graph.from_json(data["fiber"])
            raw = data["phi"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad fiber voltage JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParseError(f"fiber voltage 'phi' must be an object, got {raw!r}")
        assignments = {}
        for key, images in raw.items():
            v, w = _edge_of_key(key)
            if not isinstance(images, list):
                raise ParseError(f"voltage on {key!r} must be a list of fiber vertices, got {images!r}")
            try:
                at = [fiber.index[canon_label(label)] for label in images]
            except KeyError as exc:
                raise ParseError(f"unknown fiber vertex in voltage: {exc}") from exc
            if len(at) != fiber.n or len(set(at)) != fiber.n:
                raise ParseError(f"voltage on {key!r} must list each of the {fiber.n} fiber vertices once, got {images!r}")
            assignments[(v, w)] = Perm(at)
        return make_fiber_voltage(base, fiber, assignments)


def _edge_of_key(key: str) -> tuple[Label, Label]:
    """The oriented edge (v, w) a "v,w" phi key names, split at its one
    top-level comma, else ParseError; make_fiber_voltage reports a stray edge."""
    parts = split_top(key, ",")
    if len(parts) != 2:
        raise ParseError(f"bad oriented edge key: {key!r}")
    return parts[0], parts[1]


def make_fiber_voltage(
    base: Graph, fiber: Graph, assignments: Mapping[tuple[Label, Label], Perm]
) -> FiberVoltage:
    """Build a voltage from one orientation per edge: each value lands on
    its base.ends entry, inverted, once per distinct value, when given
    against it.

    Validates once, raising ParseError: after the pass over the
    assignments (conflicting orientations), a missing edge, then an
    oriented edge off the base, then each distinct assigned value, in
    assignment order, against the fiber.  The inverse of an
    automorphism is one, so inverted values are not checked.
    """
    idx, ends = base.index, base.ends
    edge_at = {e: k for k, e in enumerate(ends)}
    perms: list[Optional[Perm]] = [None] * len(ends)
    # Oriented keys that are no base edge, kept for the conflict check.
    stray: dict[tuple[Label, Label], Perm] = {}
    inverses: dict[Perm, Perm] = {}
    first_edge: dict[Perm, tuple[Label, Label]] = {}
    for (v, w), perm in assignments.items():
        inverse = inverses.get(perm)
        if inverse is None:
            inverse = inverses[perm] = perm.inverse()
            first_edge[perm] = (v, w)
        i, j = idx.get(v), idx.get(w)
        k = None if i is None or j is None else edge_at.get((i, j) if i < j else (j, i))
        if k is None:
            if (w, v) in stray and stray[w, v] != inverse:
                raise ParseError(f"conflicting voltages on edge {{{v!r}, {w!r}}}")
            stray[v, w] = perm
            continue
        value = perm if i < j else inverse
        if perms[k] is not None and perms[k] != value:
            raise ParseError(f"conflicting voltages on edge {{{v!r}, {w!r}}}")
        perms[k] = value
    bvs = base.vertices
    for (a, b), perm in zip(ends, perms):
        if perm is None:
            raise ParseError(f"missing voltage for edge {{{bvs[a]!r}, {bvs[b]!r}}}")
    if stray:
        raise ParseError("voltage must cover exactly the oriented edges of the base")
    for perm, (v, w) in first_edge.items():
        if not is_fiber_automorphism(fiber, perm):
            raise ParseError(f"voltage on ({v!r}, {w!r}) is not a fiber automorphism")
    return FiberVoltage(base, fiber, perms)


def trivial_voltage(base: Graph, fiber: Graph) -> FiberVoltage:
    return FiberVoltage(base, fiber, [Perm.identity(fiber.n)] * len(base.ends))


def bundle_adjacency(fv: FiberVoltage) -> Matrix:
    """Adjacency matrix of the voltage total space, computed by the closed
    formula: the kernel reads the voltage on the base's oriented edges and
    the fiber."""
    from .matrices import voltage_adjacency

    return voltage_adjacency(fv.base.n, fv.fiber, fv._oriented.items())


# --- bundles -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GraphBundle:
    """A verified bundle: total space, projection, fiber, sigma (the fiber
    position of each total position) and the voltage.  The base is the
    projection's codomain.  The fields are trusted: a bundle comes from
    verify_bundle or voltage_bundle, as its subclasses do."""

    total: Graph
    projection: GraphMorphism
    fiber: Graph
    sigma: tuple[int, ...]
    voltage: FiberVoltage

    @property
    def base(self) -> Graph:
        return self.projection.codomain

    def __repr__(self) -> str:
        return f"GraphBundle(total {self.total.n} vertices, base {self.base.n}, fiber {self.fiber.n})"


def voltage_bundle(fv: FiberVoltage) -> GraphBundle:
    """Total space of a fiber voltage: vertices (v,f), cross edges twisted by
    the voltage, plus one copy of the fiber over each base vertex.  (v, f)
    sits at position v·|F| + f, and a base edge vw joins (v, f) to (w,
    φ(v, w)(f))."""
    base, fiber = fv.base, fv.fiber
    bvs, fvs, m = base.vertices, fiber.vertices, fiber.n
    labels = [pair_label(v, f) for v in bvs for f in fvs]
    ends = [(at + i, at + j) for at in [a * m for a in range(base.n)] for i, j in fiber.ends]
    for (a, w), perm in zip(base.ends, fv.perms):
        ends += zip(range(a * m, a * m + m), [w * m + x for x in perm])
    total = _trusted_graph(tuple(labels), ends)
    projection = GraphMorphism(total, base, [a for a in range(base.n) for _ in range(m)])
    return GraphBundle(total, projection, fiber, tuple(range(m)) * base.n, fv)


#: Per target position, the positions over it, increasing.
_Fibers = list[list[int]]
#: Per base vertex its fiber kind, the distinct (size, edges) the kinds
#: index, per base edge its edge kind, and the distinct (fiber kind over v,
#: fiber kind over w, cross edges) the edge kinds index.
_Buckets = tuple[list[int], list[tuple[int, list]], list[int], list[tuple[int, int, tuple[tuple[int, int], ...]]]]


def _positions_over(at: Sequence[int], n: int) -> tuple[_Fibers, list[int]]:
    """The fibers of a map given by at, the target position of each
    position, onto n targets: the positions over each target, increasing,
    and each position's rank among those over its target."""
    fibers: _Fibers = [[] for _ in range(n)]
    rank = []
    for x, t in enumerate(at):
        xs = fibers[t]
        rank.append(len(xs))
        xs.append(x)
    return fibers, rank


def _local_edges(p: GraphMorphism, fibers: _Fibers, rank: Sequence[int]) -> _Buckets:
    """One pass over the total's ends files each edge as the ranks of its
    ends in their fibers: a fiber edge under its base vertex and a cross
    edge under its base edge vw, the end over v first, each list sorted, so
    equal edge sets file equal lists whatever the total's order.  A fiber's key
    is its size and edges, a base edge's the kinds of its two fibers and
    its cross edges; each distinct key gets the next kind id.

    The same pass is the morphism check: an edge over two distinct
    non-adjacent base vertices makes it raise require_morphism's
    NotAMorphism."""
    base, over = p.codomain, p.position_map
    n = base.n
    # Each base edge under the code a·n + b of both its orientations.
    edge_at = {e: k for k, (a, b) in enumerate(base.ends) for e in (a * n + b, b * n + a)}
    inner: list[list[tuple[int, int]]] = [[] for _ in fibers]
    cross: list[list[tuple[int, int]]] = [[] for _ in base.ends]
    stray, flipped = False, set()
    for x, y in p.domain.ends:
        a, b = over[x], over[y]
        if a == b:
            inner[a].append((rank[x], rank[y]))
        elif (k := edge_at.get(a * n + b)) is None:
            stray = True
        elif a < b:
            cross[k].append((rank[x], rank[y]))
        else:
            cross[k].append((rank[y], rank[x]))
            flipped.add(k)
    if stray:
        require_morphism(p, "projection is not a morphism")
    for k in flipped:  # total.ends order sorts the lists no swapped pair went into
        cross[k].sort()
    ids: dict[tuple, int] = {}
    kinds = [ids.setdefault((len(xs), tuple(es)), len(ids)) for xs, es in zip(fibers, inner)]
    edge_ids: dict[tuple, int] = {}
    edge_kinds = [
        edge_ids.setdefault((kinds[a], kinds[b], tuple(es)), len(edge_ids)) for (a, b), es in zip(base.ends, cross)
    ]
    return kinds, list(ids), edge_kinds, list(edge_ids)


def _transition(
    size: int, between: Sequence[tuple[int, int]], inner: Sequence[tuple[int, int]], target: Sequence[tuple[int, int]]
) -> tuple[Optional[list[int]], Optional[tuple[int, int]], bool]:
    """The definition on one edge key, on ranks.  psi takes each of the
    size ranks over v to the rank of its one neighbour over w, by the cross
    edges between.  Returns psi when it exists and is one-to-one, else
    None; the least rank with none or two such neighbours and their count,
    else None; and whether psi maps each edge of inner, the fiber over v,
    onto one of target, the fiber over w."""
    ys: list[list[int]] = [[] for _ in range(size)]
    for r, s in between:
        ys[r].append(s)
    for r, found in enumerate(ys):
        if len(found) != 1:
            return None, (r, len(found)), False
    psi = [found[0] for found in ys]
    if len(set(psi)) != size:
        return None, None, False
    edges = set(target)
    return psi, None, all((psi[r], psi[s]) in edges or (psi[s], psi[r]) in edges for r, s in inner)


def _check_conditions(total: Graph, base: Graph, fibers: _Fibers, edges: _Buckets) -> list[list[int]]:
    """Covering, then transition isomorphisms, over fibers isomorphic to F,
    decided once per edge kind on ranks: psi_vw, x over v to its one
    neighbour over w, is returned by rank per edge kind once checked.  The
    covering is checked over every base edge, in base.ends order, raising
    NotACovering when some x has none or two or two x share one, before
    any transition.  One orientation per edge suffices: a bijection
    between fibers with as many edges as F that keeps the fiber edges (x, y
    adjacent and over one base vertex) is an isomorphism."""
    (_, shapes, edge_kinds, keys), xvs, bvs = edges, total.vertices, base.vertices
    decided = [_transition(shapes[ka][0], between, shapes[ka][1], shapes[kb][1]) for ka, kb, between in keys]
    for (a, b), kind in zip(base.ends, edge_kinds):
        psi, fault, _ = decided[kind]
        if fault is not None:
            r, count = fault
            raise NotACovering(f"vertex {xvs[fibers[a][r]]!r} over {bvs[a]!r} has {count} neighbours over {bvs[b]!r}")
        if psi is None:
            raise NotACovering(f"transition over base edge ({bvs[a]!r}, {bvs[b]!r}) is not one-to-one")
    for (a, b), kind in zip(base.ends, edge_kinds):
        if not decided[kind][2]:
            raise TransitionNotIso(f"transition over base edge ({bvs[a]!r}, {bvs[b]!r}) is not an isomorphism")
    return [psi for psi, _, _ in decided]


def _check_local_triviality(base: Graph, edges: _Buckets, fiber: Graph) -> None:
    """The preimage of each base edge vw is K2 □ F over the edge, not just up
    to isomorphism: the fiber over v goes onto copy 1 of F, the low |F|
    positions of K2 □ F, and that over w onto copy 2, the high ones.  The
    preimage is read on ranks, the fiber over v at positions 0, ..., |F| − 1
    and that over w at |F|, ..., 2|F| − 1, so the edge's kind fixes the
    shape the search reads and the sides are the same on every edge: one
    search per distinct shape, made when base.ends first reaches it, and
    one shape built per edge kind.  Kinds whose cross edges were filed in
    different orders share a shape."""
    m, bvs, budget = fiber.n, base.vertices, graphs.current_budget.get()
    (_, shapes, edge_kinds, keys), k2f, low = edges, fiber.box_k2_profile, (1 << m) - 1
    # Every fiber has m vertices here: FiberNotIsomorphic is raised first.
    within = [low] * m + [low << m] * m
    by_kind: dict[int, bool] = {}
    by_shape: dict[tuple[tuple[int, int], ...], bool] = {}
    for (a, b), kind in zip(base.ends, edge_kinds):
        boxed = by_kind.get(kind)
        if boxed is None:
            ka, kb, between = keys[kind]
            # Sorted, the edges of the preimage fix its shape.
            fiber_edges = [*shapes[ka][1], *[(m + r, m + s) for r, s in shapes[kb][1]]]
            pairs = tuple(sorted(fiber_edges + [(r, m + s) for r, s in between]))
            boxed = by_shape.get(pairs)
            if boxed is None:
                boxed = by_shape[pairs] = bool(search_shape(_neighbours(2 * m, pairs), k2f, budget, 1, within)[0])
            by_kind[kind] = boxed
        if not boxed:
            edge = f"({bvs[a]!r}, {bvs[b]!r})"
            raise LocalTrivialityFails(f"preimage of base edge {edge} is not a box product with the fiber")


def verify_bundle(total: Graph, p: GraphMorphism, fiber: Graph) -> GraphBundle:
    """Verify the bundle structure of (total, p, base) with the given fiber.

    Both the three-condition definition and the local-triviality
    characterization are evaluated; they must agree, and the first failing
    witness of the definition is raised when both reject.

    Each fiber is searched against F once per distinct kind, its size and
    edges: a fiber of an earlier kind takes that one's witness by position,
    which is the witness a fresh search would return.  The voltage is
    composed once per edge kind, from the witnesses of its two fiber kinds
    and the transition the definition check read, and shared by every
    base edge of that kind.

    Raises TotalMismatch, before any check, when p's domain is not total,
    then NotAMorphism, from the one pass over total.ends, when p is not a
    morphism.
    """
    if p.domain is not total and p.domain != total:
        raise TotalMismatch(f"the projection's domain {p.domain!r} is not the total space {total!r}")
    base, profile, budget = p.codomain, fiber.profile, graphs.current_budget.get()
    over = p.position_map
    fibers, rank = _positions_over(over, base.n)
    local = kinds, shapes, edge_kinds, keys = _local_edges(p, fibers, rank)
    # Per fiber kind, the position in F of each rank's image, or None.
    placed: dict[int, Optional[tuple[int, ...]]] = {}
    sigma = [0] * total.n
    for v, xs, kind in zip(base.vertices, fibers, kinds):
        if kind not in placed:
            found, _ = search_shape(_neighbours(*shapes[kind]), profile, budget, 1)
            placed[kind] = found[0] if found else None
        at = placed[kind]
        if at is None:
            raise FiberNotIsomorphic(f"fiber over {v!r} is not isomorphic to the fiber graph")
        for x, f in zip(xs, at):
            sigma[x] = f

    definition_error: Exception | None = None
    try:
        psis = _check_conditions(total, base, fibers, local)
    except (NotACovering, TransitionNotIso) as exc:
        definition_error = exc

    local_error: Exception | None = None
    try:
        _check_local_triviality(base, local, fiber)
    except LocalTrivialityFails as exc:
        local_error = exc

    if (definition_error is None) != (local_error is None):
        raise AssertionError(
            "internal error: bundle definition and local triviality disagree: "
            f"{definition_error or local_error}"
        )
    if definition_error is not None:
        raise definition_error
    values = []
    for (ka, kb, _), psi in zip(keys, psis):
        # sigma_w ∘ psi_vw ∘ sigma_v⁻¹ takes sigma(x) to sigma(psi_vw(x)),
        # and sigma is placed[kind] by rank.
        at, to, value = placed[ka], placed[kb], [0] * fiber.n
        for r, s in enumerate(psi):
            value[at[r]] = to[s]
        values.append(tuple.__new__(Perm, value))
    perms = [values[kind] for kind in edge_kinds]
    return GraphBundle(total, p, fiber, tuple(sigma), FiberVoltage(base, fiber, perms))


def bundle_to_voltage(b: GraphBundle) -> FiberVoltage:
    """The voltage sigma_w ∘ psi_vw ∘ sigma_v⁻¹ on every oriented edge."""
    return b.voltage


# --- equivalence -------------------------------------------------------------

def _forest_cycles(base: Graph) -> list[tuple[list[tuple[int, Optional[int]]], list[tuple[int, int]]]]:
    """Per component of the breadth-first spanning forest, rooted at its
    first position, with neighbours visited in increasing position: its
    positions in visit order, each with its tree parent (None at the root),
    and the edges (v, w) off the tree, v < w, in the visit order of v: one
    fundamental cycle each."""
    nbrs, seen, forest = base.neighbor_indices, [False] * base.n, []
    parent: list[Optional[int]] = [None] * base.n
    for root in range(base.n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for v in order:  # order grows as the walk reaches new positions
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
        cycles = [(v, w) for v in order for w in nbrs[v] if v < w and parent[v] != w and parent[w] != v]
        forest.append(([(v, parent[v]) for v in order], cycles))
    return forest


def _holonomies(
    fv: FiberVoltage, forest: Optional[list[tuple[list[tuple[int, Optional[int]]], list[tuple[int, int]]]]] = None
) -> tuple[list[Perm], list[tuple[list[int], list[Perm]]]]:
    """The transport t[v] of the voltage from the root of v's component
    along the spanning forest, by base position, and per component its
    positions in visit order and the holonomy t[w]⁻¹ ∘ φ(v, w) ∘ t[v] of
    each non-tree edge (v, w): the voltage carried around its fundamental
    cycle.  Each transport and holonomy is composed once per distinct
    operands, so a voltage with few values pays for few compositions.
    forest is _forest_cycles(fv.base), computed here when not given."""
    along, ident = fv._oriented, Perm.identity(fv.fiber.n)
    t = [ident] * fv.base.n
    moved: dict[tuple[Perm, Perm], Perm] = {}
    around: dict[tuple[Perm, Perm, Perm], Perm] = {}
    components = []
    for tree, cycles in _forest_cycles(fv.base) if forest is None else forest:
        for w, v in tree:
            if v is not None:
                key = along[v, w], t[v]
                if (tw := moved.get(key)) is None:
                    tw = moved[key] = key[0].compose(key[1])
                t[w] = tw
        holonomies = []
        for v, w in cycles:
            loop = t[w], along[v, w], t[v]
            if (h := around.get(loop)) is None:
                h = around[loop] = loop[0].inverse().compose(loop[1]).compose(loop[2])
            holonomies.append(h)
        components.append(([w for w, _ in tree], holonomies))
    return t, components


def _least_conjugator(
    fiber: Graph, h1: list[Perm], h2: list[Perm], order: list[tuple[int, list[int]]]
) -> Optional[Perm]:
    """The first fiber automorphism g with g ∘ h1[k] = h2[k] ∘ g for every k,
    placing the points of order in turn with their candidate images in the
    order given, or None.  Only the distinct pairs (h1[k], h2[k]) constrain
    g, so each is read once: for the cycle-type test, and for the images
    that placing a point forces.  Each candidate tried is one node of the
    budget in scope (graphs.node_budget).  j may go to k when every placed
    neighbour of j goes to a neighbour of k and k has no other used
    neighbour: O(deg) per placement, the same test as every placed point
    keeping adjacency to j."""
    pairs = list(dict.fromkeys(zip(h1, h2)))
    if any(a.cycle_type() != b.cycle_type() for a, b in pairs):
        return None
    adj = fiber.neighbor_indices
    nbrs = [set(nb) for nb in adj]
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
            placed = [g[i] for i in adj[j] if i in g]
            if any(y not in nbrs[k] for y in placed) or sum(y in used for y in adj[k]) != len(placed):
                return False
            g[j] = k
            used.add(k)
            todo.extend((a[j], b[k]) for a, b in pairs)
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
    return tuple.__new__(Perm, [g[i] for i in range(fiber.n)])


def bundles_equivalent(b1: GraphBundle, b2: GraphBundle) -> Optional[dict[Label, Label]]:
    """Search for an equivalence: a total-space isomorphism over the identity
    on the base.  Returns the lexicographically least witness, or None.

    With t1, t2 the tree transports of the two voltages, a vertex x of b1
    over v sits at the root point j = t1[v]⁻¹(σ1_v(x)) and goes to the
    vertex of b2 over v at t2[v](g(j)), so at π_v(σ1_v(x)) with π_v = t2[v]
    ∘ g ∘ t1[v]⁻¹, composed once per distinct (t2[v], t1[v]) in each
    component.  Each point's images are tried in the order of the b2 labels
    they give at its first vertex in b1.total.vertices, not of b2's
    positions, so the first g found is the least; those labels are read
    only at the vertices where a point is first reached.
    """
    if b1.base != b2.base:
        raise BaseMismatch("bundles have different base graphs")
    if b1.fiber != b2.fiber:
        raise FiberMismatch("bundles have different fiber graphs")
    n, s1, vs2 = b1.fiber.n, b1.sigma, b2.total.vertices
    over1 = b1.projection.position_map
    fibers1, _ = _positions_over(over1, b1.base.n)
    # sigma2_v⁻¹: the position of b2's total over each base vertex at each fiber position.
    at2 = [[0] * n for _ in fibers1]
    for y, (a, f) in enumerate(zip(b2.projection.position_map, b2.sigma)):
        at2[a][f] = y
    forest = _forest_cycles(b1.base)
    t1, components = _holonomies(b1.voltage, forest)
    t2, components2 = _holonomies(b2.voltage, forest)
    comp = {v: c for c, (vs, _) in enumerate(components) for v in vs}
    # Per component, the candidate images of each root point, in the order
    # the points are first reached; per base vertex, its candidate order.
    reach: list[dict[int, list[int]]] = [{} for _ in components]
    order: dict[int, list[int]] = {}
    for x, v in enumerate(over1):
        points = reach[comp[v]]
        if len(points) < n and (j := t1[v].index(s1[x])) not in points:
            if v not in order:
                order[v] = sorted(range(n), key=[vs2[at2[v][k]] for k in t2[v]].__getitem__)
            points[j] = order[v]
    pi: dict[int, Perm] = {}
    for (vs, h1), (_, h2), points in zip(components, components2, reach):
        g = _least_conjugator(b1.fiber, h1, h2, list(points.items()))
        if g is None:
            return None
        at_g: dict[tuple[Perm, Perm], Perm] = {}
        for v in vs:
            key = t2[v], t1[v]
            if (p := at_g.get(key)) is None:
                p = at_g[key] = key[0].compose(g).compose(key[1].inverse())
            pi[v] = p
    vs1 = b1.total.vertices
    return {vs1[x]: vs2[at2[v][pi[v][s1[x]]]] for v, xs in enumerate(fibers1) for x in xs}


def is_trivial(b: GraphBundle) -> bool:
    """True when the bundle is equivalent to the box product over the same
    base: exactly when every holonomy is the identity, since g ∘ h ∘ g⁻¹ is
    the identity only for h the identity."""
    return all(h.is_identity() for _, hs in _holonomies(b.voltage)[1] for h in hs)
