"""Desk-scale network K-classes: enumerate equivalence classes of iterated
box-power fiber bundles over a base, the abelian monoid they form under the
subdirect product, bounded Grothendieck-group verdicts, and the induced
contravariant class maps.

Two voltages are equivalent when a gauge transform
φ'(v, w) = g_w ∘ φ(v, w) ∘ g_v⁻¹, with every g_v in Aut(F), takes one to
the other.  Every voltage is equivalent to one that is trivial on a
spanning forest (Gross and Tucker), so enumeration walks only the
|Aut(F^n)|^β values of the β non-tree edges.  Each class has one canonical
form, its lexicographically least serial over all gauge transforms,
computed greedily edge by edge; it is the class key, the representative and
the lookup of classify and of the addition table.  This form need not be
trivial on the spanning forest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .bundles import FiberVoltage
from .errors import BaseMismatch, EnumerationBoundExceeded, FiberMismatch
from .graphs import (
    Graph,
    GraphMorphism,
    automorphisms,
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


#: A permutation as its image tuple.  The canonicalization composes these
#: directly: a Perm is one more object per result, and a walk can make millions.
Images = tuple[int, ...]


def _compose(p: Images, q: Images) -> Images:
    """p after q, on image tuples."""
    return tuple(map(p.__getitem__, q))


def _invert(p: Images) -> Images:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _least_product(heads: Sequence[Images], tails: Sequence[Images]) -> Images:
    """The lexicographically least h ∘ t over h in heads and t in tails.

    Position by position, the pairs still least so far form blocks
    hs × ts; a block splits by the image j = t[i], keeping the heads with the
    least h[j].  The head sets of the blocks stay disjoint, so this costs
    O(deg² · |heads| + deg · |tails|), not |heads| · |tails| compositions."""
    blocks = [(heads, tails)]
    out: list[int] = []
    for i in range(len(heads[0])):
        best = len(heads[0])
        kept: list[tuple[Sequence[Images], Sequence[Images]]] = []
        for hs, ts in blocks:
            by_image: dict[int, list[Images]] = {}
            for t in ts:
                by_image.setdefault(t[i], []).append(t)
            for j, tj in by_image.items():
                low = min(h[j] for h in hs)
                if low < best:
                    best, kept = low, []
                if low == best:
                    kept.append(([h for h in hs if h[j] == low], tj))
        out.append(best)
        blocks = kept
    return tuple(out)


@dataclass(frozen=True)
class _Gauge:
    """Gauge transforms φ'(v, w) = g_w ∘ φ(v, w) ∘ g_v⁻¹, with every g_v in
    Aut(F), of the voltages over one base.

    ends holds the vertex indices of each base edge in position order, and
    inverse maps the image tuple of every automorphism to that of its
    inverse."""

    ends: tuple[tuple[int, int], ...]
    n_vertices: int
    auts: tuple[Images, ...]
    inverse: Mapping[Images, Images]
    identity: Images

    def least_serial(self, serial: Sequence[Images]) -> tuple[Images, ...]:
        """The lexicographically least serial over all gauge transforms of a
        voltage, given by its serial: the canonical form of its class.

        Edge values are fixed greedily in position order over a union-find
        of the partial components the fixed edges span.  A component keeps
        the gauges still allowed at its root; a member u has gauge
        left[u] ∘ x ∘ right[u], where x is the root's gauge."""
        inv = self.inverse
        whole = len(self.auts)
        root = list(range(self.n_vertices))
        members = [[v] for v in range(self.n_vertices)]
        left = [self.identity] * self.n_vertices
        right = [self.identity] * self.n_vertices
        allowed: list[Sequence[Images]] = [self.auts] * self.n_vertices
        out: list[Images] = []
        for (a, b), phi in zip(self.ends, serial):
            ra, rb = root[a], root[b]
            # The edge takes left[b] ∘ y ∘ m ∘ x⁻¹ ∘ left[a]⁻¹ for root gauges x, y.
            m = _compose(_compose(right[b], phi), inv[right[a]])
            qa = inv[left[a]]
            if ra == rb:
                values = [
                    (_compose(left[b], _compose(x, _compose(m, _compose(inv[x], qa)))), x)
                    for x in allowed[ra]
                ]
                best = min(value for value, _ in values)
                allowed[ra] = [x for value, x in values if value == best]
                out.append(best)
                continue
            if len(allowed[ra]) == whole or len(allowed[rb]) == whole:
                # A free side can absorb any value: the edge takes the identity.
                best = self.identity
            else:
                heads = [_compose(left[b], y) for y in allowed[rb]]
                tails = [_compose(m, _compose(inv[x], qa)) for x in allowed[ra]]
                best = _least_product(heads, tails)
            # b's root gauge is now inv[left[b]] ∘ best ∘ left[a] ∘ x ∘ m⁻¹.
            shift = _compose(_compose(inv[left[b]], best), left[a])
            m_inv = inv[m]
            if len(allowed[rb]) < whole:
                kept = set(allowed[rb])
                allowed[ra] = [
                    x for x in allowed[ra] if _compose(_compose(shift, x), m_inv) in kept
                ]
            for u in members[rb]:
                root[u] = ra
                left[u] = _compose(left[u], shift)
                right[u] = _compose(m_inv, right[u])
            members[ra].extend(members[rb])
            out.append(best)
        return tuple(out)


def _gauge(base: Graph, auts: Sequence[Perm]) -> _Gauge:
    idx = base.index
    ends = tuple((idx[a], idx[b]) for a, b in base.edge_list())
    images = tuple(p.images for p in auts)
    inverse = {p: _invert(p) for p in images}
    return _Gauge(ends, base.n, images, inverse, tuple(range(len(images[0]))))


def _cycle_positions(base: Graph) -> list[int]:
    """Positions of the base edges off the breadth-first spanning forest."""
    parent = {v: p for tree in spanning_forest(base) for v, p in tree.items()}
    return [pos for pos, (a, b) in enumerate(base.edge_list()) if parent[a] != b and parent[b] != a]


def voltage_class_key(fv: FiberVoltage) -> tuple:
    """Equivalence-class invariant of a voltage bundle (same key, same class)."""
    gauge = _gauge(fv.base, automorphisms(fv.fiber))
    return gauge.least_serial(fv.serialized())


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
    _gauges: Mapping[int, _Gauge] = field(default_factory=dict)

    def classes_at(self, n: int) -> tuple[BundleClass, ...]:
        return tuple(c for c in self.classes if c.n == n)

    def trivial_class(self, n: int) -> BundleClass:
        return self.classes_at(n)[0]

    def classify(self, fv: FiberVoltage, n: int) -> int:
        """Class id of a voltage with fiber equal to the n-th fiber power."""
        if fv.base != self.base:
            raise BaseMismatch("voltage is over a different base than the monoid")
        return self._keys[n][self._gauges[n].least_serial(fv.serialized())]

    def add(self, i: int, j: int) -> Optional[int]:
        return self.add_table[(i, j)]


def enumerate_bundle_classes(
    base: Graph,
    fiber: Graph,
    n_max: int = DEFAULT_N_MAX,
    *,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> KClassMonoid:
    """Enumerate the voltage classes for every fiber power up to n_max and
    fill the addition table.

    Only the voltages that are trivial on the spanning forest are walked,
    |Aut(F^n)|^β of them for cycle rank β.  max_assignments caps that walk
    times the |Aut(F^n)| gauges tried to canonicalize each voltage, and the
    addition table, one entry per ordered pair of classes.  Each class is
    keyed and represented by its least serial, and class ids follow the
    order of those serials."""
    if base.n > DEFAULT_MAX_BASE_VERTICES:
        raise EnumerationBoundExceeded(
            f"base has {base.n} vertices, enumeration capped at {DEFAULT_MAX_BASE_VERTICES}"
        )
    edges = base.edge_list()
    non_tree = _cycle_positions(base)

    gauges: dict[int, _Gauge] = {}
    keys_by_n: dict[int, dict[tuple, int]] = {}
    classes: list[BundleClass] = []

    for n in range(n_max + 1):
        fn = fiber_power(fiber, n)
        gauge = gauges[n] = _gauge(base, automorphisms(fn))
        k = len(gauge.auts)
        total = k ** len(non_tree)
        # Canonicalizing a voltage minimizes its first cycle edge over all k gauges.
        if total * (k if non_tree else 1) > max_assignments:
            raise EnumerationBoundExceeded(
                f"{total} voltage assignments at fiber power {n}, each canonicalized over "
                f"{k} gauges, exceed the cap {max_assignments}"
            )
        serial = [gauge.identity] * len(edges)
        least = set()
        for values in itertools.product(gauge.auts, repeat=len(non_tree)):
            for pos, value in zip(non_tree, values):
                serial[pos] = value
            least.add(gauge.least_serial(serial))
        keys_by_n[n] = {}
        for key in sorted(least):
            class_id = len(classes)
            rep = FiberVoltage._trusted(
                base, fn, {edge: Perm._trusted(images) for edge, images in zip(edges, key)}
            )
            classes.append(BundleClass(base, n, class_id, rep, key))
            keys_by_n[n][key] = class_id
        if len(classes) ** 2 > max_assignments:
            raise EnumerationBoundExceeded(
                f"{len(classes)} classes up to fiber power {n} need {len(classes) ** 2} "
                f"addition-table entries, over the cap {max_assignments}"
            )

    add_table: dict[tuple[int, int], Optional[int]] = {}
    for c1 in classes:
        for c2 in classes:
            if c1.n + c2.n > n_max:
                add_table[(c1.class_id, c2.class_id)] = None
                continue
            # F^a □ F^b lists its vertices in the index order of F^(a+b).
            n_sum = c1.n + c2.n
            serial = [perm_kron(c1.representative.phi[e], c2.representative.phi[e]).images for e in edges]
            add_table[(c1.class_id, c2.class_id)] = keys_by_n[n_sum][gauges[n_sum].least_serial(serial)]

    return KClassMonoid(
        base,
        fiber,
        n_max,
        tuple(classes),
        add_table,
        keys_by_n,
        gauges,
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
    """Contravariant class map induced by pulling representatives back along
    f; a given m_domain needs f's domain, the fiber and n_max of m_codomain."""
    if f.codomain != m_codomain.base:
        raise BaseMismatch("codomain of the morphism must equal the monoid base")
    if m_domain is None:
        m_domain = enumerate_bundle_classes(f.domain, m_codomain.fiber, m_codomain.n_max)
    elif m_domain.base != f.domain:
        raise BaseMismatch("domain monoid must be over the domain of the morphism")
    elif m_domain.fiber != m_codomain.fiber:
        raise FiberMismatch("domain and codomain monoids have different fibers")
    elif m_domain.n_max < m_codomain.n_max:
        raise EnumerationBoundExceeded(
            f"domain monoid stops at fiber power {m_domain.n_max}, below {m_codomain.n_max}"
        )
    mapping: dict[int, int] = {}
    for c in m_codomain.classes:
        pulled = pullback_voltage(f, c.representative)
        mapping[c.class_id] = m_domain.classify(pulled, c.n)
    return mapping
