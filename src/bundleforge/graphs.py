"""Finite simple graphs, weak morphisms, and exhaustive isomorphism search.

Vertices are opaque string labels with an explicit, persisted order; the
order fixes adjacency-matrix rows and makes every set-valued result
deterministic.  Morphisms are weak: an edge may map to an edge or collapse
to a single vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import (
    DuplicateVertex,
    EnumerationBoundExceeded,
    LoopEdge,
    NotAMorphism,
    ParseError,
    SearchBudgetExceeded,
    UnknownEndpoint,
    UnknownVertex,
)
from .perms import Perm

Label = str

#: Default node budget for backtracking isomorphism search.
DEFAULT_NODE_BUDGET = 10**7

#: Default vertex cap for full automorphism enumeration.
DEFAULT_AUT_BOUND = 10


def canon_label(x: object) -> Label:
    """Canonicalize a vertex label; integers become their decimal strings."""
    if isinstance(x, bool):
        raise ParseError(f"unsupported vertex label type: {x!r}")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    raise ParseError(f"unsupported vertex label type: {x!r}")


def pair_label(a: Label, b: Label) -> Label:
    """Composite label for product-style vertices."""
    return f"({a},{b})"


def split_composite(label: str, sep: str, what: str) -> tuple[Label, Label]:
    """Strip the outer parentheses of a composite label and split the rest
    at the first separator outside nested parentheses.

    Raises ParseError naming ``what`` when either step fails.
    """
    if label.startswith("(") and label.endswith(")"):
        body = label[1:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == sep and depth == 0:
                return body[:i], body[i + 1 :]
    raise ParseError(f"bad {what}: {label!r}")


def split_pair_label(label: Label) -> tuple[Label, Label]:
    """Invert :func:`pair_label`, splitting at the top-level comma."""
    return split_composite(label, ",", "pair label")


def split_edge_key(key: str) -> tuple[str, str]:
    """Split a "v,w" oriented-edge key at the top-level comma, respecting
    parenthesized composite labels."""
    return split_composite(f"({key})", ",", "oriented edge key")


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph with an ordered vertex sequence."""

    vertices: tuple[Label, ...]
    edges: frozenset[frozenset[Label]]

    @cached_property
    def index(self) -> dict[Label, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict[Label, tuple[Label, ...]]:
        """Neighbor lists, sorted by vertex order."""
        nbrs: dict[Label, list[Label]] = {v: [] for v in self.vertices}
        for e in self.edges:
            a, b = tuple(e)
            nbrs[a].append(b)
            nbrs[b].append(a)
        idx = self.index
        return {v: tuple(sorted(ns, key=idx.__getitem__)) for v, ns in nbrs.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    def has_edge(self, a: Label, b: Label) -> bool:
        return frozenset((a, b)) in self.edges

    def neighbors(self, v: Label) -> tuple[Label, ...]:
        if v not in self.index:
            raise UnknownVertex(f"vertex {v!r} not in graph")
        return self.adjacency[v]

    def degree(self, v: Label) -> int:
        return len(self.neighbors(v))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(self.adjacency[v]) for v in self.vertices))

    @cached_property
    def _edge_order(self) -> tuple[tuple[Label, Label], ...]:
        idx = self.index
        return tuple(
            (a, b) for a in self.vertices for b in self.adjacency[a] if idx[a] < idx[b]
        )

    def edge_list(self) -> list[tuple[Label, Label]]:
        """Edges with endpoints in vertex order, sorted by endpoint indices.

        A fresh list over an order computed once per graph.  This stays a
        method, not a property, so it can be rebound on the class.
        """
        return list(self._edge_order)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [[a, b] for a, b in self.edge_list()],
        }

    @staticmethod
    def from_json(data: Mapping) -> Graph:
        try:
            vertices = data["vertices"]
            edges = data["edges"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"graph JSON needs 'vertices' and 'edges': {exc}") from exc
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise ParseError("graph JSON 'vertices' and 'edges' must be lists")
        if not all(isinstance(e, list) for e in edges):
            raise ParseError("every graph JSON edge must be a list of two vertices")
        return make_graph(vertices, edges)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a, b in self.edge_list():
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {len(self.edges)} edges)"


def make_graph(vertices: Iterable[object], edges: Iterable[tuple[object, object]]) -> Graph:
    """Build a graph, canonicalizing labels and validating the data.

    Raises DuplicateVertex, LoopEdge, or UnknownEndpoint on bad input.
    """
    vs = tuple(canon_label(v) for v in vertices)
    seen: set[Label] = set()
    for v in vs:
        if v in seen:
            raise DuplicateVertex(f"duplicate vertex {v!r}")
        seen.add(v)
    es: set[frozenset[Label]] = set()
    for raw in edges:
        pair = tuple(raw)
        if len(pair) != 2:
            raise ParseError(f"edge must have two endpoints: {raw!r}")
        a, b = canon_label(pair[0]), canon_label(pair[1])
        if a == b:
            raise LoopEdge(f"loop edge at {a!r}")
        if a not in seen or b not in seen:
            raise UnknownEndpoint(f"edge endpoint not a vertex: {{{a!r}, {b!r}}}")
        es.add(frozenset((a, b)))
    return Graph(vs, frozenset(es))


# --- standard small graphs -------------------------------------------------

def complete_graph(n: int) -> Graph:
    vs = [str(i) for i in range(1, n + 1)]
    return make_graph(vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    vs = [str(i) for i in range(1, n + 1)]
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return make_graph(vs, edges)


def path_graph(n: int) -> Graph:
    vs = [str(i) for i in range(1, n + 1)]
    return make_graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    return make_graph([str(i) for i in range(1, n + 1)], [])


def star_graph(leaves: int) -> Graph:
    vs = [str(i) for i in range(1, leaves + 2)]
    return make_graph(vs, [(vs[0], v) for v in vs[1:]])


# --- morphisms --------------------------------------------------------------

@dataclass(frozen=True)
class GraphMorphism:
    """Total vertex map between graphs; edge conditions are checked separately."""

    domain: Graph
    codomain: Graph
    pairs: tuple[tuple[Label, Label], ...]

    @cached_property
    def map(self) -> dict[Label, Label]:
        return dict(self.pairs)

    @cached_property
    def preimages(self) -> dict[Label, tuple[Label, ...]]:
        """Domain vertices over each codomain vertex, in domain order."""
        out: dict[Label, list[Label]] = {v: [] for v in self.codomain.vertices}
        for x, v in self.pairs:
            out[v].append(x)
        return {v: tuple(xs) for v, xs in out.items()}

    def __call__(self, v: Label) -> Label:
        try:
            return self.map[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v!r} not in morphism domain") from None

    def is_surjective(self) -> bool:
        return set(self.map.values()) == set(self.codomain.vertices)

    def to_json(self) -> dict:
        return {"map": {a: b for a, b in self.pairs}}

    def __repr__(self) -> str:
        return f"GraphMorphism({self.domain!r} -> {self.codomain!r})"


def make_morphism(domain: Graph, codomain: Graph, mapping: Mapping[object, object]) -> GraphMorphism:
    """Build a morphism, checking totality and codomain membership only."""
    cmap = {canon_label(k): canon_label(v) for k, v in mapping.items()}
    for v in domain.vertices:
        if v not in cmap:
            raise UnknownVertex(f"morphism undefined on vertex {v!r}")
        if cmap[v] not in codomain.index:
            raise UnknownVertex(f"morphism value {cmap[v]!r} not in codomain")
    pairs = tuple((v, cmap[v]) for v in domain.vertices)
    return GraphMorphism(domain, codomain, pairs)


def identity_morphism(g: Graph) -> GraphMorphism:
    return make_morphism(g, g, {v: v for v in g.vertices})


def compose(g: GraphMorphism, f: GraphMorphism) -> GraphMorphism:
    """Return g ∘ f.  The codomain of f must equal the domain of g."""
    if f.codomain != g.domain:
        raise NotAMorphism("composition mismatch: codomain of f is not domain of g")
    return make_morphism(f.domain, g.codomain, {v: g(f(v)) for v in f.domain.vertices})


def validate_morphism(f: GraphMorphism) -> tuple[bool, list[tuple[Label, Label]]]:
    """Check the weak morphism condition on every domain edge.

    Returns (ok, violations) where each violation is a domain edge whose
    image is neither a codomain edge nor a single vertex.
    """
    bad = []
    for a, b in f.domain.edge_list():
        fa, fb = f(a), f(b)
        if fa != fb and not f.codomain.has_edge(fa, fb):
            bad.append((a, b))
    return (not bad, bad)


def preserves_edges(f: GraphMorphism) -> bool:
    """True when no domain edge collapses.  Requires a valid morphism."""
    ok, bad = validate_morphism(f)
    if not ok:
        raise NotAMorphism(f"not a morphism; violating edges: {bad}")
    return all(f(a) != f(b) for a, b in f.domain.edge_list())


def induced_subgraph(g: Graph, subset: Iterable[object]) -> Graph:
    """Subgraph on the given vertices with all edges among them, order inherited."""
    want = {canon_label(v) for v in subset}
    idx = g.index
    for v in want:
        if v not in idx:
            raise UnknownVertex(f"vertex {v!r} not in graph")
    vs = sorted(want, key=idx.__getitem__)
    es = [(a, b) for a in vs for b in g.adjacency[a] if b in want and idx[a] < idx[b]]
    return make_graph(vs, es)


def neighborhood(g: Graph, v: object) -> Graph:
    """Star graph on v and its neighbors: only the edges at v are kept."""
    v = canon_label(v)
    if v not in g.index:
        raise UnknownVertex(f"vertex {v!r} not in graph")
    nbrs = g.neighbors(v)
    keep = {v, *nbrs}
    vs = [u for u in g.vertices if u in keep]
    return make_graph(vs, [(v, w) for w in nbrs])


def fiber(f: GraphMorphism, v: object) -> Graph:
    """Induced subgraph of the domain on the preimage of v."""
    v = canon_label(v)
    if v not in f.codomain.index:
        raise UnknownVertex(f"vertex {v!r} not in codomain")
    return induced_subgraph(f.domain, f.preimages[v])


def spanning_forest(g: Graph) -> list[dict[Label, Optional[Label]]]:
    """Breadth-first spanning forest, one tree per connected component.

    Each tree is rooted at its component's first vertex in stored order and
    maps its vertices, in visit order, to their tree parent (None at the
    root).  Neighbors are visited in stored order, so the forest is stable.
    """
    trees: list[dict[Label, Optional[Label]]] = []
    seen: set[Label] = set()
    for root in g.vertices:
        if root in seen:
            continue
        tree: dict[Label, Optional[Label]] = {root: None}
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    tree[w] = v
                    queue.append(w)
        trees.append(tree)
    return trees


# --- isomorphism search ------------------------------------------------------

class _IsoSearch:
    """Backtracking vertex-map search with degree and neighbor-degree pruning."""

    def __init__(self, g: Graph, h: Graph, budget: int):
        self.g = g
        self.h = h
        self.budget = budget
        self.nodes = 0
        # Neighbor degree multisets are isomorphism invariants used for pruning.
        self.g_sig = {v: sorted(g.degree(u) for u in g.neighbors(v)) for v in g.vertices}
        self.h_sig = {v: sorted(h.degree(u) for u in h.neighbors(v)) for v in h.vertices}

    def run(self) -> Optional[dict[Label, Label]]:
        g, h = self.g, self.h
        if g.n != h.n or len(g.edges) != len(h.edges):
            return None
        if g.degree_sequence() != h.degree_sequence():
            return None
        mapping: dict[Label, Label] = {}
        used: set[Label] = set()
        if self._extend(0, mapping, used):
            return dict(mapping)
        return None

    def _extend(self, i: int, mapping: dict[Label, Label], used: set[Label]) -> bool:
        if i == self.g.n:
            return True
        v = self.g.vertices[i]
        for w in self.h.vertices:
            if w in used:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(f"isomorphism search exceeded {self.budget} nodes")
            if not self._feasible(v, w, mapping):
                continue
            mapping[v] = w
            used.add(w)
            if self._extend(i + 1, mapping, used):
                return True
            del mapping[v]
            used.discard(w)
        return False

    def _feasible(self, v: Label, w: Label, mapping: dict[Label, Label]) -> bool:
        if self.g.degree(v) != self.h.degree(w):
            return False
        if self.g_sig[v] != self.h_sig[w]:
            return False
        for u, wu in mapping.items():
            if self.g.has_edge(v, u) != self.h.has_edge(w, wu):
                return False
        return True


def find_isomorphism(g: Graph, h: Graph, budget: int | None = None) -> Optional[dict[Label, Label]]:
    """Find a graph isomorphism g -> h, or None.

    Deterministic: vertices of g are matched in stored order against
    candidates in h's stored order, so the first witness found is stable.
    Raises SearchBudgetExceeded (meaning "unknown") when the node budget
    runs out.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    return _IsoSearch(g, h, budget).run()


def is_isomorphism(mapping: Mapping[Label, Label], g: Graph, h: Graph) -> bool:
    """Validate a proposed vertex bijection as an isomorphism g -> h."""
    if set(mapping.keys()) != set(g.vertices):
        return False
    if sorted(mapping.values()) != sorted(h.vertices):
        return False
    if len(g.edges) != len(h.edges):
        return False
    return all(h.has_edge(mapping[a], mapping[b]) for a, b in g.edge_list())


def automorphisms(g: Graph) -> list[Perm]:
    """Enumerate all automorphisms as permutations of vertex indices.

    The list contains the identity, is closed under composition and
    inverse, and is sorted by image tuple for determinism.
    """
    if g.n > DEFAULT_AUT_BOUND:
        raise EnumerationBoundExceeded(
            f"automorphism enumeration capped at {DEFAULT_AUT_BOUND} vertices, graph has {g.n}"
        )
    search = _IsoSearch(g, g, DEFAULT_NODE_BUDGET)
    found: list[Perm] = []

    def extend(i: int, mapping: dict[Label, Label], used: set[Label]) -> None:
        if i == g.n:
            found.append(Perm(tuple(g.index[mapping[v]] for v in g.vertices)))
            return
        v = g.vertices[i]
        for w in g.vertices:
            if w in used:
                continue
            search.nodes += 1
            if search.nodes > search.budget:
                raise SearchBudgetExceeded(f"automorphism search exceeded {search.budget} nodes")
            if not search._feasible(v, w, mapping):
                continue
            mapping[v] = w
            used.add(w)
            extend(i + 1, mapping, used)
            del mapping[v]
            used.discard(w)

    extend(0, {}, set())
    return sorted(found)


def perm_label_map(g: Graph, perm: Perm) -> dict[Label, Label]:
    """Turn an index permutation into a label-to-label automorphism map."""
    return {g.vertices[i]: g.vertices[perm(i)] for i in range(g.n)}
