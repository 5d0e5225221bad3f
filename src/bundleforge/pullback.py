"""Pullbacks of graph bundles, the induced-voltage and adjacency theorems,
and the subdirect product of bundles over a common base.

Both constructions are instances of one typed fiber product, and both
return a PullbackBundle: vertices are compatible pairs, labeled "(v|x)" or
"(x,y)" with no check, and edges come in three kinds (fiber edges,
collapsed base edges, twisted diagonal edges).

Each adjacency formula states only its voltage, one value per oriented
edge it sums over, and its fiber graph, and hands both to the one kernel,
matrices.voltage_adjacency, as bundles.bundle_adjacency does; the kernel
alone groups the edges by value into the indicators.  The subdirect
formula's fiber is F1 □ F2, the paper's subdirect fiber, which
subdirect_product and subdirect_voltage also build.

The module imports neither numpy nor the matrix layer at load time: the
pullback and subdirect adjacency formulas import it when they run, so the
constructions load without numpy.  The paper's dense pullback blocks and
morphism matrix are stated only in the tests' dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .bundles import (
    FiberVoltage,
    GraphBundle,
    _positions_over,
    bundles_equivalent,
    verify_bundle,
)
from .errors import BaseMismatch, CompositeCollapses, CompositesDisagree
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    _trusted_graph,
    compose,
    make_morphism,
    pair_label,
    preserves_edges,
    pullback_vertex,
    require_morphism,
    validate_morphism,
)
from .perms import Perm, kron as perm_kron
from .products import cartesian_product

if TYPE_CHECKING:
    from .matrices import Matrix

EDGE_KIND_FIBER = "I"
EDGE_KIND_COLLAPSED = "II"
EDGE_KIND_DIAGONAL = "III"


def typed_edge_counts(kinds: Sequence[str]) -> dict[str, int]:
    counts = {EDGE_KIND_FIBER: 0, EDGE_KIND_COLLAPSED: 0, EDGE_KIND_DIAGONAL: 0}
    for kind in kinds:
        counts[kind] += 1
    return counts


def typed_edges_json(graph: Graph, kinds: Sequence[str]) -> dict:
    """Report shape: per-kind counts plus the tagged edge list, the kind of
    each edge of graph.ends with its end labels."""
    out: dict = dict(typed_edge_counts(kinds))
    vs = graph.vertices
    out["edges"] = [[vs[i], vs[j], kind] for (i, j), kind in zip(graph.ends, kinds)]
    return out


def _typed_fiber_product(
    left: Graph,
    left_at: Sequence[int],
    right: Graph,
    right_at: Sequence[int],
    target: Graph,
    label_fn: Callable[[Label, Label], Label],
) -> tuple[Graph, tuple[str, ...], list[int]]:
    """Fiber product on compatible pairs, left coordinate major, with the
    three-kind edge rule (kind II collapses on the left coordinate), from
    the target position of each left and right position.  Returns the
    graph, the kind of each edge of its ends, and the left position of each
    vertex's pair.

    The pair (a, b) sits at off[a] + rank[b], the pairs of the left
    positions before a plus the right positions before b over a's target.
    Walking a's neighbours in left and b's in right gives the typed edges
    in pair order: per pair, first the (a, b2), then the (a2, ...) by a2,
    which is the sorted order of the graph's ends.
    """
    lvs, rvs, lt, rt = left.vertices, right.vertices, left_at, right_at
    right_over, rank = _positions_over(rt, target.n)
    off, pairs = [], []
    for a, t in enumerate(lt):
        off.append(len(pairs))
        pairs += [(a, b) for b in right_over[t]]
    labels = [label_fn(lvs[a], rvs[b]) for a, b in pairs]
    lnb, rnb, tnb = left.neighbor_indices, right.neighbor_indices, target.neighbor_indices
    found: list[tuple[int, int, str]] = []
    for i, (a, b) in enumerate(pairs):
        t = lt[a]
        found += [(i, off[a] + rank[b2], EDGE_KIND_FIBER) for b2 in rnb[b] if b2 > b and rt[b2] == t]
        for a2 in lnb[a]:
            t2 = lt[a2]
            if a2 > a and t2 == t:
                found.append((i, off[a2] + rank[b], EDGE_KIND_COLLAPSED))
            elif a2 > a and t2 in tnb[t]:
                found += [(i, off[a2] + rank[b2], EDGE_KIND_DIAGONAL) for b2 in rnb[b] if rt[b2] == t2]
    graph = _trusted_graph(tuple(labels), [(i, j) for i, j, _ in found])
    return graph, tuple(kind for _, _, kind in found), [a for a, _ in pairs]


@dataclass(frozen=True, eq=False)
class PullbackBundle(GraphBundle):
    """A bundle built as a typed fiber product, with the kind of each edge
    of total.ends: pullback_bundle's pullback of a bundle along a base
    morphism, over the morphism's domain, and subdirect_product's pullback
    of b2 along b1's projection, read over the common base with the fiber
    F1 □ F2."""

    typed_edges: tuple[str, ...] = ()


def _check_pullback(f: GraphMorphism, base: Graph, what: str) -> None:
    """Raise unless f maps into base and is a morphism."""
    if f.codomain != base:
        raise BaseMismatch(f"codomain of the morphism must equal the {what} base")
    require_morphism(f)


def pullback_bundle(f: GraphMorphism, b: GraphBundle) -> PullbackBundle:
    """Pull a bundle back along f into a verified bundle over f's domain."""
    _check_pullback(f, b.base, "bundle")
    total, typed, lefts = _typed_fiber_product(
        f.domain, f.position_map, b.total, b.projection.position_map, b.base, pullback_vertex
    )
    verified = verify_bundle(total, GraphMorphism(total, f.domain, lefts), b.fiber)
    return PullbackBundle(total, verified.projection, b.fiber, verified.sigma, verified.voltage, typed)


def pullback_voltage(f: GraphMorphism, fv: FiberVoltage) -> FiberVoltage:
    """Induced voltage on f's domain: identity on collapsed edges, the
    original voltage of the image edge otherwise."""
    _check_pullback(f, fv.base, "voltage")
    ident, at, along = Perm.identity(fv.fiber.n), f.position_map, fv._oriented
    perms = [ident if at[i] == at[j] else along[at[i], at[j]] for i, j in f.domain.ends]
    return FiberVoltage(f.domain, fv.fiber, perms)


def pullback_adjacency(f: GraphMorphism, fv: FiberVoltage) -> Matrix:
    """Adjacency of the pullback total space, by the closed matrix formula.

    The sum runs over the voltage values used plus the identity, which the
    collapsed edges carry; the paper's term of ψ is the block A_D ∘ (Mᵀ(B_ψ
    + [ψ = id]·I)M), with M the 0/1 matrix of f and B_ψ the base indicator
    of ψ.  Mᵀ X M reads X at (f(i), f(j)), so on a domain edge (i, j)
    exactly one block is 1: that of the voltage on (f(i), f(j)), or of the
    identity when f(i) = f(j).  So that value is the voltage handed to the
    kernel on the domain's oriented edge (i, j), as the bundle formula
    hands it the base's: no morphism matrix, indicator or matrix product
    is built.
    Raises BaseMismatch when f does not map into the voltage's base and
    NotAMorphism when f is not a morphism."""
    from .matrices import voltage_adjacency

    _check_pullback(f, fv.base, "voltage")
    ident, at, along, ends = Perm.identity(fv.fiber.n), f.position_map, fv._oriented, f.domain.ends
    oriented = [*ends, *[(j, i) for i, j in ends]]
    # Since f is a morphism, an image pair that is no oriented base edge
    # is a collapsed edge (a, a).
    values = [along.get((at[i], at[j]), ident) for i, j in oriented]
    return voltage_adjacency(f.domain.n, fv.fiber, zip(oriented, values))


def canonical_map(f: GraphMorphism, b: GraphBundle) -> GraphMorphism:
    """The universal map from the pullback total into the original total,
    dropping the base coordinate.  The pullback total is left-major, each
    domain position a followed by the total positions over f(a) in
    increasing order, so the map reads those positions off in turn.  The
    projection square commutes pointwise."""
    pb = pullback_bundle(f, b)
    down = b.projection.position_map
    over, _ = _positions_over(down, b.base.n)
    univ = GraphMorphism(pb.total, b.total, [x for t in f.position_map for x in over[t]])
    require_morphism(univ, "universal map is not a morphism")
    at, across, up = univ.position_map, pb.projection.position_map, f.position_map
    if len(at) != pb.total.n or any(down[x] != up[a] for x, a in zip(at, across)):
        raise AssertionError("internal error: universal square does not commute")
    return univ


def compose_pullbacks_check(f: GraphMorphism, g: GraphMorphism, b: GraphBundle) -> bool:
    """Functoriality: pulling back along g then f agrees, up to equivalence,
    with pulling back along the composite g ∘ f."""
    twice = pullback_bundle(f, pullback_bundle(g, b))
    once = pullback_bundle(compose(g, f), b)
    return bundles_equivalent(twice, once) is not None


# --- subdirect product ---------------------------------------------------------

def subdirect_product(b1: GraphBundle, b2: GraphBundle) -> PullbackBundle:
    """Pull b2 back along b1's projection and read the result as a bundle
    over the common base, with vertex pairs (x, y) as first-class labels."""
    if b1.base != b2.base:
        raise BaseMismatch("subdirect product needs a common base graph")
    over = b1.projection.position_map
    total, typed, lefts = _typed_fiber_product(
        b1.total, over, b2.total, b2.projection.position_map, b1.base, pair_label
    )
    fiber = cartesian_product(b1.fiber, b2.fiber)
    verified = verify_bundle(total, GraphMorphism(total, b1.base, [over[a] for a in lefts]), fiber)
    return PullbackBundle(total, verified.projection, fiber, verified.sigma, verified.voltage, typed)


def subdirect_adjacency(fv1: FiberVoltage, fv2: FiberVoltage) -> Matrix:
    """Adjacency of the subdirect total space in (base, fiber1, fiber2)
    lexicographic order, by the closed double-sum formula over the pairs of
    voltage values used on a common oriented edge, each acting as the
    Kronecker product of its two permutations, computed once per distinct
    pair, on the fiber F1 □ F2."""
    from .matrices import voltage_adjacency

    if fv1.base != fv2.base:
        raise BaseMismatch("subdirect adjacency needs a common base graph")
    along2 = fv2._oriented
    pairs = [(psi1, along2[edge]) for edge, psi1 in fv1._oriented.items()]
    kron = {pair: perm_kron(*pair) for pair in set(pairs)}
    fiber = cartesian_product(fv1.fiber, fv2.fiber)
    return voltage_adjacency(fv1.base.n, fiber, zip(fv1._oriented, map(kron.__getitem__, pairs)))


def subdirect_voltage(fv1: FiberVoltage, fv2: FiberVoltage) -> FiberVoltage:
    """Voltage of the subdirect product on the box-product fiber, acting
    coordinatewise in lexicographic index order."""
    if fv1.base != fv2.base:
        raise BaseMismatch("subdirect voltage needs a common base graph")
    fiber = cartesian_product(fv1.fiber, fv2.fiber)
    return FiberVoltage(fv1.base, fiber, map(perm_kron, fv1.perms, fv2.perms))


def pair_morphism(
    alpha1: GraphMorphism,
    alpha2: GraphMorphism,
    b1: GraphBundle,
    b2: GraphBundle,
) -> GraphMorphism:
    """Pair two maps into the factors as a map into the subdirect product.

    Requires the two projected composites to agree pointwise and to
    preserve edges; a collapsing composite admits no pairing.
    """
    if alpha1.domain != alpha2.domain:
        raise CompositesDisagree("paired morphisms must share a domain")
    comp1 = compose(b1.projection, alpha1)
    comp2 = compose(b2.projection, alpha2)
    if comp1.map != comp2.map:
        raise CompositesDisagree("projected composites disagree on some vertex")
    if not preserves_edges(comp1):
        raise CompositeCollapses("projected composite collapses an edge")
    mapping = {y: pair_label(alpha1(y), alpha2(y)) for y in alpha1.domain.vertices}
    paired = make_morphism(alpha1.domain, subdirect_product(b1, b2).total, mapping)
    require_morphism(paired, "paired map is not a morphism")
    return paired


def is_section(beta: GraphMorphism, b: GraphBundle) -> bool:
    """True when beta is a bundle section: its domain is a subgraph of the
    base, it is a valid morphism into the total space, and projecting it
    back is the identity."""
    dom = beta.domain
    if beta.codomain != b.total:
        return False
    if not all(v in b.base.index for v in dom.vertices):
        return False
    if not all(b.base.has_edge(a, c) for a, c in dom.edge_list()):
        return False
    ok, _ = validate_morphism(beta)
    if not ok:
        return False
    return all(b.projection(beta(v)) == v for v in dom.vertices)


# --- mixed-base diagnostic -------------------------------------------------------

@dataclass(frozen=True)
class MixedBaseProduct:
    """Diagnostic fiber product of two bundles whose bases differ.

    The second bundle's projection is composed with a linking morphism into
    the first base; the result is reported as a plain graph with typed
    edges, not as a bundle over a common base.
    """

    graph: Graph
    typed_edges: tuple[str, ...]
    base_mismatch: bool


def mixed_base_subdirect(b1: GraphBundle, b2: GraphBundle, link: GraphMorphism) -> MixedBaseProduct:
    """Fiber product of b1's projection with link ∘ (b2's projection)."""
    if link.domain != b2.base or link.codomain != b1.base:
        raise BaseMismatch("link must map the second base onto the first base")
    composed = compose(link, b2.projection)
    graph, typed, _ = _typed_fiber_product(
        b1.total, b1.projection.position_map, b2.total, composed.position_map, b1.base, pair_label
    )
    return MixedBaseProduct(graph, typed, base_mismatch=b1.base != b2.base)
