"""Desk-scale network K-classes: enumerate equivalence classes of iterated
box-power fiber bundles over a base, the abelian monoid they form under the
subdirect product, bounded Grothendieck-group verdicts, and the induced
contravariant class maps.

Class enumeration canonicalizes voltages by gauge fixing: every voltage is
equivalent to one that is trivial on a spanning forest, and the residual
non-tree values are determined up to a constant fiber-automorphism
conjugation per component.  Two voltages are equivalent exactly when these
canonical forms coincide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .bundles import FiberVoltage, make_fiber_voltage
from .errors import BaseMismatch, EnumerationBoundExceeded
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    automorphisms,
    find_isomorphism,
    make_graph,
    spanning_forest,
)
from .perms import Perm, kron as perm_kron
from .products import cartesian_product
from .pullback import pullback_voltage

#: Default fiber-power bound.
DEFAULT_N_MAX = 3

#: Default caps on the exhaustive enumeration.
DEFAULT_MAX_BASE_VERTICES = 6
DEFAULT_MAX_ASSIGNMENTS = 10**6


def fiber_power(f: Graph, n: int) -> Graph:
    """n-fold box power; the zeroth power is a single vertex with no edges."""
    if n < 0:
        raise ValueError("fiber power needs n >= 0")
    if n == 0:
        return make_graph(["1"], [])
    g = f
    for _ in range(n - 1):
        g = cartesian_product(g, f)
    return g


@dataclass(frozen=True)
class _ForestGauge:
    """Spanning-forest data for canonicalizing voltages over one base graph.

    parent maps every base vertex, in breadth-first visit order, to its
    tree parent (None at a component root)."""

    base: Graph
    parent: Mapping[Label, Optional[Label]]
    component_of: Mapping[Label, int]
    non_tree_positions: tuple[int, ...]


def _forest_gauge(base: Graph) -> _ForestGauge:
    trees = spanning_forest(base)
    parent = {v: p for tree in trees for v, p in tree.items()}
    component_of = {v: cid for cid, tree in enumerate(trees) for v in tree}
    non_tree = tuple(
        pos
        for pos, (a, b) in enumerate(base.edge_list())
        if parent[a] != b and parent[b] != a
    )
    return _ForestGauge(base, parent, component_of, non_tree)


def _canonical_key(
    gauge: _ForestGauge,
    value_of: Callable[[Label, Label], Perm],
    auts: list[Perm],
    fiber_size: int,
) -> tuple:
    """Complete equivalence invariant of a voltage: the lexicographically
    least conjugate of its gauge-fixed non-tree values, per component."""
    base = gauge.base
    ident = Perm.identity(fiber_size)
    h: dict[Label, Perm] = {}
    for w, v in gauge.parent.items():
        h[w] = ident if v is None else h[v].compose(value_of(v, w).inverse())
    edge_list = base.edge_list()
    by_component: dict[int, list[tuple[int, Perm]]] = {}
    for pos in gauge.non_tree_positions:
        a, b = edge_list[pos]
        residual = h[b].compose(value_of(a, b)).compose(h[a].inverse())
        by_component.setdefault(gauge.component_of[a], []).append((pos, residual))
    parts: list[tuple[int, tuple[int, ...]]] = []
    for cid in sorted(by_component):
        entries = by_component[cid]
        best = min(
            tuple(val.conjugate(c).images for _, val in entries) for c in auts
        )
        parts.extend((pos, images) for (pos, _), images in zip(entries, best))
    parts.sort()
    return tuple(parts)


def voltage_class_key(fv: FiberVoltage, aut_bound: int = 10) -> tuple:
    """Equivalence-class invariant of a voltage bundle (same key, same class)."""
    gauge = _forest_gauge(fv.base)
    auts = automorphisms(fv.fiber, bound=aut_bound)
    return _canonical_key(gauge, lambda v, w: fv.phi[(v, w)], auts, fv.fiber.n)


@dataclass(frozen=True)
class BundleClass:
    """One equivalence class of fiber-power bundles over a base."""

    base: Graph
    n: int
    class_id: int
    representative: FiberVoltage
    key: tuple


@dataclass(frozen=True, eq=False)
class KClassMonoid:
    """Truncated abelian monoid of bundle classes under the subdirect product.

    add_table[(i, j)] is the class id of the sum, or None when the sum's
    fiber power exceeds the enumeration bound.
    """

    base: Graph
    fiber: Graph
    n_max: int
    classes: tuple[BundleClass, ...]
    add_table: Mapping[tuple[int, int], Optional[int]]
    _keys: Mapping[int, Mapping[tuple, int]] = field(default_factory=dict)
    _auts: Mapping[int, tuple[Perm, ...]] = field(default_factory=dict)

    def classes_at(self, n: int) -> tuple[BundleClass, ...]:
        return tuple(c for c in self.classes if c.n == n)

    def trivial_class(self, n: int) -> BundleClass:
        return self.classes_at(n)[0]

    def class_by_id(self, class_id: int) -> BundleClass:
        return self.classes[class_id]

    def classify(self, fv: FiberVoltage, n: int) -> int:
        """Class id of a voltage with fiber equal to the n-th fiber power."""
        gauge = _forest_gauge(self.base)
        key = _canonical_key(
            gauge, lambda v, w: fv.phi[(v, w)], list(self._auts[n]), fv.fiber.n
        )
        return self._keys[n][key]

    def add(self, i: int, j: int) -> Optional[int]:
        return self.add_table[(i, j)]


def enumerate_bundle_classes(
    base: Graph,
    fiber: Graph,
    n_max: int = DEFAULT_N_MAX,
    *,
    max_base_vertices: int = DEFAULT_MAX_BASE_VERTICES,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
    aut_bound: int = 10,
) -> KClassMonoid:
    """Exhaustively enumerate voltage assignments for every fiber power up to
    n_max, quotient them by equivalence, and fill the addition table."""
    if base.n > max_base_vertices:
        raise EnumerationBoundExceeded(
            f"base has {base.n} vertices, enumeration capped at {max_base_vertices}"
        )
    gauge = _forest_gauge(base)
    edges = base.edge_list()
    orient: dict[tuple[Label, Label], tuple[int, bool]] = {}
    for pos, (a, b) in enumerate(edges):
        orient[(a, b)] = (pos, False)
        orient[(b, a)] = (pos, True)

    powers: dict[int, Graph] = {}
    auts_by_n: dict[int, tuple[Perm, ...]] = {}
    keys_by_n: dict[int, dict[tuple, int]] = {}
    classes: list[BundleClass] = []

    for n in range(n_max + 1):
        fn = fiber_power(fiber, n)
        powers[n] = fn
        auts = automorphisms(fn, bound=aut_bound)
        auts_by_n[n] = tuple(auts)
        total = len(auts) ** len(edges)
        if total > max_assignments:
            raise EnumerationBoundExceeded(
                f"{total} voltage assignments at fiber power {n} exceed the cap {max_assignments}"
            )
        best_serial: dict[tuple, tuple] = {}
        for assignment in itertools.product(auts, repeat=len(edges)):
            def value_of(v: Label, w: Label, _a=assignment) -> Perm:
                pos, flip = orient[(v, w)]
                return _a[pos].inverse() if flip else _a[pos]

            key = _canonical_key(gauge, value_of, auts, fn.n)
            serial = tuple(p.images for p in assignment)
            if key not in best_serial or serial < best_serial[key]:
                best_serial[key] = serial
        keys_by_n[n] = {}
        for key in sorted(best_serial, key=best_serial.__getitem__):
            class_id = len(classes)
            serial = best_serial[key]
            rep = make_fiber_voltage(
                base,
                fn,
                {edges[pos]: Perm(serial[pos]) for pos in range(len(edges))},
            )
            classes.append(BundleClass(base, n, class_id, rep, key))
            keys_by_n[n][key] = class_id

    boxes: dict[tuple[int, int], tuple[Graph, Perm]] = {}

    def alignment(n1: int, n2: int) -> tuple[Graph, Perm]:
        if (n1, n2) not in boxes:
            box = cartesian_product(powers[n1], powers[n2])
            target = powers[n1 + n2]
            iso = find_isomorphism(box, target)
            assert iso is not None
            lam = Perm(tuple(target.index[iso[v]] for v in box.vertices))
            boxes[(n1, n2)] = (box, lam)
        return boxes[(n1, n2)]

    add_table: dict[tuple[int, int], Optional[int]] = {}
    for c1 in classes:
        for c2 in classes:
            if c1.n + c2.n > n_max:
                add_table[(c1.class_id, c2.class_id)] = None
                continue
            _, lam = alignment(c1.n, c2.n)
            n_sum = c1.n + c2.n
            fn = powers[n_sum]

            def value_of(v: Label, w: Label, _a=c1.representative, _b=c2.representative) -> Perm:
                combined = perm_kron(_a.phi[(v, w)], _b.phi[(v, w)])
                return combined.conjugate(lam)

            key = _canonical_key(gauge, value_of, list(auts_by_n[n_sum]), fn.n)
            add_table[(c1.class_id, c2.class_id)] = keys_by_n[n_sum][key]

    return KClassMonoid(
        base,
        fiber,
        n_max,
        tuple(classes),
        add_table,
        keys_by_n,
        auts_by_n,
    )


@dataclass(frozen=True)
class KGroupElement:
    """Formal difference of two enumerated classes."""

    positive: int
    negative: int


def _chain_add(m: KClassMonoid, ids: list[int]) -> Optional[int]:
    acc = ids[0]
    for nxt in ids[1:]:
        out = m.add(acc, nxt)
        if out is None:
            return None
        acc = out
    return acc


def grothendieck_equal(m: KClassMonoid, e1: KGroupElement, e2: KGroupElement) -> str:
    """Decide e1 = e2 in the group of differences, searching the enumerated
    classes for a balancing element.  Returns "true", "false", or "unknown"
    when only out-of-bound sums remain.
    """
    saw_out_of_bound = False
    for r in m.classes:
        lhs = _chain_add(m, [e1.positive, e2.negative, r.class_id])
        rhs = _chain_add(m, [e1.negative, e2.positive, r.class_id])
        if lhs is None or rhs is None:
            saw_out_of_bound = True
            continue
        if lhs == rhs:
            return "true"
    return "unknown" if saw_out_of_bound else "false"


def k0_map(
    f: GraphMorphism,
    m_codomain: KClassMonoid,
    m_domain: Optional[KClassMonoid] = None,
) -> dict[int, int]:
    """Contravariant class map induced by pulling representatives back along f."""
    if f.codomain != m_codomain.base:
        raise BaseMismatch("codomain of the morphism must equal the monoid base")
    if m_domain is None:
        m_domain = enumerate_bundle_classes(f.domain, m_codomain.fiber, m_codomain.n_max)
    mapping: dict[int, int] = {}
    for c in m_codomain.classes:
        pulled = pullback_voltage(f, c.representative)
        mapping[c.class_id] = m_domain.classify(pulled, c.n)
    return mapping
