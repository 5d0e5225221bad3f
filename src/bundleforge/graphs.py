"""Finite simple graphs, weak morphisms, and exhaustive isomorphism search.

Vertices are string labels in the grammar of check_labels, with an
explicit, persisted order; the order fixes adjacency-matrix rows and makes
every set-valued result deterministic.  Morphisms are weak: an edge may
map to an edge or collapse to a single vertex.

A Graph stores its labels and its edges as sorted index pairs (i, j), i <
j, of vertex positions; the label views and the neighbour positions are
derived from those pairs on first use.  make_graph validates outside
input and builds the pairs through the label index it fills; generators
that hold positions hand _trusted_graph their pairs, with no per-edge
label work.  A GraphMorphism stores only its position map, the codomain
position of each domain position, and derives its label views when read;
its constructor trusts that map, and make_morphism is the entry for a map
given by labels, checking it total and into the codomain.

The isomorphism search is one kernel over vertex positions, search_shape:
it takes g as its shape (each position's neighbour positions, increasing,
as neighbor_indices holds them) and h as a SearchProfile (signature
classes and neighbours as bitmasks, the signature histogram and the edge
count), and returns image positions.  It places g's positions in
connectivity order, each next to those already placed where one is, so
the order a graph is stored in does not decide what the search costs;
the witness stays deterministic.  find_isomorphism and automorphisms each
read one call of it back in labels, and verify_bundle hands it the shapes
it builds from the total's filed edges; a Graph caches its own profile
and that of K2 □ itself, which local triviality searches against.  The
node budget in scope alone bounds every search.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    DuplicateVertex,
    LoopEdge,
    NotAMorphism,
    ParseError,
    SearchBudgetExceeded,
    UnknownEndpoint,
    UnknownVertex,
)
from .perms import Perm

Label = str

#: Node budget of every exhaustive search outside a node_budget block.
DEFAULT_NODE_BUDGET = 10**7

#: The node budget in scope; set it only through node_budget.
current_budget: ContextVar[int] = ContextVar("current_budget", default=DEFAULT_NODE_BUDGET)


def canon_label(x: object) -> Label:
    """Canonicalize a vertex label; integers become their decimal strings."""
    if isinstance(x, str):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    raise ParseError(f"unsupported vertex label type: {x!r}")


def check_labels(labels: Iterable[Label], what: str) -> None:
    """Raise ParseError, naming it, at the first label that breaks the label
    grammar: balanced parentheses, and no "," or "|" outside them.  Only
    make_graph and groups.make_group call it; pair_label and pullback_vertex
    are injective on the grammar, and split_top reads their parts back.

    Only a label's skeleton, its sequence of "(),|", decides, and labels
    share a handful of skeletons: one translate of the newline-joined
    labels' UTF-8 gives them all, since UTF-8 puts no ASCII byte inside a
    wider character, and each distinct skeleton is scanned once.  Labels
    with none of "(),|" are not scanned."""
    labels = tuple(labels)
    text = "\n".join(labels)
    if "(" not in text and ")" not in text and "," not in text and "|" not in text:
        return
    # Every byte but "(),|" and the newline: the identity table less those.
    others = bytes.maketrans(b"", b"").translate(None, b"(),|\n")
    skeletons = text.encode("utf-8", "surrogatepass").translate(None, others).split(b"\n")
    if len(skeletons) != len(labels):  # some label holds a newline
        skeletons = [label.encode("utf-8", "surrogatepass").translate(None, others + b"\n") for label in labels]
    broken = set()
    for skeleton in set(skeletons):
        depth = 0
        for ch in skeleton.decode():
            if ch == "(":
                depth += 1
            elif not depth:
                depth = -1
                break
            elif ch == ")":
                depth -= 1
        if depth:
            broken.add(skeleton)
    if broken:
        label = next(label for label, skeleton in zip(labels, skeletons) if skeleton in broken)
        raise ParseError(f"{what} {label!r} breaks the label grammar: balanced parentheses, no ',' or '|' outside them")


def pair_label(a: Label, b: Label) -> Label:
    """Composite label for product-style vertices."""
    return f"({a},{b})"


def pullback_vertex(v: Label, x: Label) -> Label:
    return f"({v}|{x})"


def split_top(text: str, sep: str) -> list[str]:
    """Split text at each separator outside nested parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def split_pair_label(label: Label) -> tuple[Label, Label]:
    """Invert pair_label: the parts of "(a,b)" at its one top-level comma,
    else ParseError."""
    parts = split_top(label[1:-1], ",") if label.startswith("(") and label.endswith(")") else []
    if len(parts) != 2:
        raise ParseError(f"bad pair label: {label!r}")
    return parts[0], parts[1]


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph with an ordered vertex sequence.

    What is stored is the vertex labels and ends, each edge once as the
    pair (i, j) of its endpoints' positions with i < j, the pairs sorted.
    The form is canonical, so == and hash compare graphs.  Everything else
    is derived from these on first use: the index of each label, each
    position's neighbour positions (neighbor_indices) and the label views
    edges and edge_list().
    """

    vertices: tuple[Label, ...]
    ends: tuple[tuple[int, int], ...]

    @cached_property
    def index(self) -> dict[Label, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def neighbor_indices(self) -> tuple[tuple[int, ...], ...]:
        """Each position's neighbour positions, increasing."""
        return _neighbours(len(self.vertices), self.ends)

    @cached_property
    def edges(self) -> frozenset[frozenset[Label]]:
        """The edges as a set of two-label sets."""
        vs = self.vertices
        return frozenset(frozenset((vs[i], vs[j])) for i, j in self.ends)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def has_edge(self, a: Label, b: Label) -> bool:
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and j in self.neighbor_indices[i]

    @cached_property
    def profile(self) -> SearchProfile:
        """What the isomorphism search reads of this graph as its target,
        computed once per graph."""
        return search_profile(self.neighbor_indices)

    @cached_property
    def box_k2_profile(self) -> SearchProfile:
        """The profile of K2 □ F, for this graph F, computed once per graph
        from its shape: copy i of f sits at position i·|F| + f, the vertex
        order of cartesian_product(complete_graph(2), F).  Local triviality
        searches each edge preimage against it."""
        n, shape = self.n, self.neighbor_indices
        return search_profile(
            [[i * n + j for j in nb] + [(1 - i) * n + f] for i in (0, 1) for f, nb in enumerate(shape)]
        )

    @cached_property
    def _edge_order(self) -> tuple[tuple[Label, Label], ...]:
        vs = self.vertices
        return tuple((vs[i], vs[j]) for i, j in self.ends)

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
        ids = [_dot_id(v) for v in self.vertices]
        lines = ["graph G {"]
        lines += [f"  {v};" for v in ids]
        lines += [f"  {ids[i]} -- {ids[j]};" for i, j in self.ends]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {len(self.ends)} edges)"


def _neighbours(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Each of n positions' neighbours, increasing, from sorted pairs (i, j), i < j."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return tuple(map(tuple, nbrs))


def _dot_id(label: Label) -> str:
    """label as a quoted DOT ID, its backslashes and double quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def make_graph(vertices: Iterable[object], edges: Iterable[tuple[object, object]]) -> Graph:
    """Build a graph, canonicalizing labels and validating the data: a
    label that is a str is kept as it is, and canon_label reads any other.

    Raises ParseError (see check_labels), DuplicateVertex, LoopEdge, or
    UnknownEndpoint on bad input.
    """
    vs = tuple(v if type(v) is str else canon_label(v) for v in vertices)
    check_labels(vs, "vertex")
    index: dict[Label, int] = {}
    for i, v in enumerate(vs):
        if v in index:
            raise DuplicateVertex(f"duplicate vertex {v!r}")
        index[v] = i
    ends: set[tuple[int, int]] = set()
    for raw in edges:
        pair = tuple(raw)
        if len(pair) != 2:
            raise ParseError(f"edge must have two endpoints: {raw!r}")
        a, b = pair
        if type(a) is not str:
            a = canon_label(a)
        if type(b) is not str:
            b = canon_label(b)
        if a == b:
            raise LoopEdge(f"loop edge at {a!r}")
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise UnknownEndpoint(f"edge endpoint not a vertex: {{{a!r}, {b!r}}}")
        ends.add((i, j) if i < j else (j, i))
    g = Graph(vs, tuple(sorted(ends)))
    g.__dict__["index"] = index
    return g


def _trusted_graph(vertices: tuple[Label, ...], ends: list[tuple[int, int]]) -> Graph:
    """A graph the library has just generated, from its distinct labels and
    its edges as index pairs (i, j), i < j, each once, in any order: the
    list is sorted in place, and nothing is checked."""
    ends.sort()
    return Graph(vertices, tuple(ends))


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

class GraphMorphism:
    """Total vertex map between graphs; edge conditions are checked separately.

    What is stored is position_map, the codomain position of each domain
    position; the label views pairs, map and preimages are derived when
    read.  The constructor trusts its map: make_morphism is the entry for
    a map given by labels.
    """

    def __init__(self, domain: Graph, codomain: Graph, position_map: Iterable[int]) -> None:
        self.domain, self.codomain, self.position_map = domain, codomain, tuple(position_map)

    @property
    def pairs(self) -> tuple[tuple[Label, Label], ...]:
        """The (x, f(x)) label pairs, in domain order."""
        cvs = self.codomain.vertices
        return tuple(zip(self.domain.vertices, map(cvs.__getitem__, self.position_map)))

    @cached_property
    def map(self) -> dict[Label, Label]:
        return dict(self.pairs)

    @cached_property
    def preimages(self) -> dict[Label, tuple[Label, ...]]:
        """Domain vertices over each codomain vertex, in domain order."""
        out: list[list[Label]] = [[] for _ in self.codomain.vertices]
        for x, a in zip(self.domain.vertices, self.position_map):
            out[a].append(x)
        return dict(zip(self.codomain.vertices, map(tuple, out)))

    def __call__(self, v: Label) -> Label:
        try:
            return self.map[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v!r} not in morphism domain") from None

    def to_json(self) -> dict:
        return {"map": {a: b for a, b in self.pairs}}

    def __repr__(self) -> str:
        return f"GraphMorphism({self.domain!r} -> {self.codomain!r})"


def make_morphism(domain: Graph, codomain: Graph, mapping: Mapping[object, object]) -> GraphMorphism:
    """Build a morphism, checking totality and codomain membership only, in
    one pass over the domain: raises UnknownVertex at the first domain
    vertex, in domain order, that has no image or one off the codomain."""
    cmap = {canon_label(k): canon_label(v) for k, v in mapping.items()}
    cidx, at = codomain.index, []
    for x in domain.vertices:
        y = cmap.get(x)
        if y is None:
            raise UnknownVertex(f"morphism undefined on vertex {x!r}")
        a = cidx.get(y)
        if a is None:
            raise UnknownVertex(f"morphism value {y!r} not in codomain")
        at.append(a)
    return GraphMorphism(domain, codomain, at)


def compose(g: GraphMorphism, f: GraphMorphism) -> GraphMorphism:
    """Return g ∘ f.  The codomain of f must equal the domain of g."""
    if f.codomain != g.domain:
        raise NotAMorphism("composition mismatch: codomain of f is not domain of g")
    return GraphMorphism(f.domain, g.codomain, [g.position_map[a] for a in f.position_map])


def validate_morphism(f: GraphMorphism) -> tuple[bool, list[tuple[Label, Label]]]:
    """Check the weak morphism condition on every domain edge.

    Returns (ok, violations) where each violation is a domain edge whose
    image is neither a codomain edge nor a single vertex, in edge_list
    order, read off the position map in one pass over domain.ends.
    """
    at, nbrs, vs = f.position_map, f.codomain.neighbor_indices, f.domain.vertices
    bad = [(vs[i], vs[j]) for i, j in f.domain.ends if (a := at[i]) != (b := at[j]) and b not in nbrs[a]]
    return (not bad, bad)


def require_morphism(f: GraphMorphism, what: str = "not a morphism") -> None:
    """Raise NotAMorphism, with what as the message prefix, naming the
    violating edges when f is not a morphism."""
    ok, bad = validate_morphism(f)
    if not ok:
        raise NotAMorphism(f"{what}; violating edges: {bad}")


def preserves_edges(f: GraphMorphism) -> bool:
    """True when no domain edge collapses.  Requires a valid morphism."""
    require_morphism(f)
    at = f.position_map
    return all(at[i] != at[j] for i, j in f.domain.ends)


def induced_subgraph(g: Graph, subset: Iterable[object]) -> Graph:
    """Subgraph on the given vertices with all edges among them, order inherited."""
    want = {canon_label(v) for v in subset}
    idx = g.index
    for v in want:
        if v not in idx:
            raise UnknownVertex(f"vertex {v!r} not in graph")
    at = sorted(map(idx.__getitem__, want))
    pos, nbrs = {i: k for k, i in enumerate(at)}, g.neighbor_indices
    ends = [(k, pos[j]) for k, i in enumerate(at) for j in nbrs[i] if j > i and j in pos]
    return _trusted_graph(tuple(g.vertices[i] for i in at), ends)


# --- isomorphism search ------------------------------------------------------

@contextmanager
def node_budget(budget: int) -> Iterator[None]:
    """Give every search started in the block this node budget; the
    enclosing budget is back when the block ends, also by an exception."""
    token = current_budget.set(budget)
    try:
        yield
    finally:
        current_budget.reset(token)


class SearchProfile(NamedTuple):
    """What the search reads of its target, by vertex position: the
    positions of each signature (degree and sorted neighbour degrees) as a
    bitmask, each position's neighbours as a bitmask, how many positions
    have each signature, and the number of edges."""

    classes: dict[tuple[int, ...], int]
    neighbors: tuple[int, ...]
    histogram: dict[tuple[int, ...], int]
    edges: int


def _signatures(shape: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each position's sorted neighbour degrees, an isomorphism invariant
    whose length is the position's degree."""
    deg = [len(nb) for nb in shape]
    return [tuple(sorted(map(deg.__getitem__, nb))) for nb in shape]


def _histogram(sigs: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """How many times each signature occurs.  A plain loop: on the handful
    of positions of a fiber, dict(Counter(...)) costs about four times as
    much."""
    counts: dict[tuple[int, ...], int] = {}
    for s in sigs:
        counts[s] = counts.get(s, 0) + 1
    return counts


def search_profile(shape: Sequence[Sequence[int]]) -> SearchProfile:
    """The profile of the graph whose shape, each position's neighbour
    positions, is given."""
    sigs = _signatures(shape)
    classes: dict[tuple[int, ...], int] = {}
    neighbors = []
    for i, (s, nb) in enumerate(zip(sigs, shape)):
        classes[s] = classes.get(s, 0) | 1 << i
        mask = 0
        for j in nb:
            mask |= 1 << j
        neighbors.append(mask)
    return SearchProfile(classes, tuple(neighbors), _histogram(sigs), sum(map(len, shape)) // 2)


def _connectivity_order(shape: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """The order in which search_shape places g's positions: next the lowest
    unplaced position with a placed neighbour, else the lowest unplaced one.
    None when that is the stored order, found in one pass: each position
    has an earlier neighbour, or no earlier position has a neighbour past
    it."""
    reach = -1  # the highest neighbour of a position before k
    for k, nb in enumerate(shape):
        if reach > k and (not nb or nb[0] > k):
            break
        if nb and nb[-1] > reach:
            reach = nb[-1]
    else:
        return None
    order: list[int] = []
    placed, frontier, low = [False] * len(shape), [], 0
    while len(order) < len(shape):
        if frontier:
            k = heapq.heappop(frontier)
            if placed[k]:
                continue
        else:
            while placed[low]:
                low += 1
            k = low
        placed[k] = True
        order.append(k)
        for j in shape[k]:
            if not placed[j]:
                heapq.heappush(frontier, j)
    return order


def search_shape(
    shape: Sequence[Sequence[int]],
    profile: SearchProfile,
    budget: int,
    limit: Optional[int] = None,
    within: Optional[Sequence[int]] = None,
) -> tuple[list[tuple[int, ...]], int]:
    """The isomorphism search, the one kernel behind find_isomorphism,
    automorphisms and verify_bundle: forward checking in the VF2 order
    (Cordella et al., IEEE TPAMI 26(10), 2004), on an explicit stack.

    g is given by its shape, each position's neighbour positions (as
    neighbor_indices holds them), and h by its profile.  Returns the
    first limit isomorphisms in search order, or all of them when limit is
    None, each as the tuple of h-positions of g's positions 0, 1, ..., and
    the number of nodes spent.

    The positions of g are matched in connectivity order: next the lowest
    unplaced position with a placed neighbour, else the lowest unplaced
    one, so each position but the first of its component is placed next
    to a placed one (the VF2 order).  Where every position has an earlier
    neighbour or no earlier position reaches past it, that is the stored
    order, checked in one pass; otherwise g and within are permuted into
    it, and the images are still returned by g's stored positions.

    Each position i keeps a candidate domain, a bitmask over h's positions
    that starts as the positions with its signature, cut to within[i] when
    within is given.  Placing i -> w cuts the domain of each later
    neighbour of i down to N(w), and a trail puts the domains back on
    backtrack; the placement is undone at once when one of those domains
    has no unused position left.  w is accepted only when as many used
    positions are adjacent to w as i has earlier neighbours (the VF2 rule,
    one popcount).  Candidates are tried in increasing position and only
    maps with no completion are pruned, so the matches come in the order
    of a plain backtracking search placing in the same order.  Graphs
    with different sizes, edge counts or signature histograms are rejected
    before any node is spent.  A node is one unused candidate tried from a
    domain; the node after the budget-th raises SearchBudgetExceeded.  The
    shape and the profile are trusted: nothing here checks that they
    describe simple graphs.
    """
    found: list[tuple[int, ...]] = []
    n = len(shape)
    if n != len(profile.neighbors) or sum(map(len, shape)) != 2 * profile.edges:
        return found, 0
    sigs = _signatures(shape)
    if _histogram(sigs) != profile.histogram:
        return found, 0
    if n == 0:
        return [()], 0
    order = _connectivity_order(shape)
    if order is not None:
        # Search the relabelled g whose position k is g's position order[k].
        at = [0] * n
        for k, x in enumerate(order):
            at[x] = k
        shape = [sorted(map(at.__getitem__, shape[x])) for x in order]
        sigs = list(map(sigs.__getitem__, order))
        if within is not None:
            within = list(map(within.__getitem__, order))
    classes, nbr = profile.classes, profile.neighbors
    dom = [classes[s] for s in sigs]
    if within is not None:
        dom = [d & m for d, m in zip(dom, within)]
    later = [[j for j in nb if j > i] for i, nb in enumerate(shape)]
    earlier = [len(nb) - len(lt) for nb, lt in zip(shape, later)]
    full = (1 << n) - 1
    # One frame per placed position: its untried candidates, its image and
    # the trail length before its forward check.
    stack: list[tuple[int, int, int]] = []
    trail: list[tuple[int, int]] = []
    used = nodes = i = 0
    cand = dom[0]
    while True:
        if not cand:
            if not i:
                break
            # Level i is exhausted: undo the placement below it.
            cand, w, mark = stack.pop()
            i -= 1
            used ^= 1 << w
            while len(trail) > mark:
                u, d = trail.pop()
                dom[u] = d
            continue
        bit = cand & -cand
        cand ^= bit
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"isomorphism search exceeded {budget} nodes")
        w = bit.bit_length() - 1
        nw = nbr[w]
        if (nw & used).bit_count() != earlier[i]:
            continue
        free = full ^ used ^ bit
        mark = len(trail)
        for u in later[i]:
            d = dom[u]
            nd = d & nw
            if nd != d:
                trail.append((u, d))
                dom[u] = nd
            if not nd & free:
                break
        else:
            if i + 1 < n:
                stack.append((cand, w, mark))
                used |= bit
                i += 1
                cand = dom[i] & free
                continue
            found.append(tuple(frame[1] for frame in stack) + (w,))
            if len(found) == limit:
                break
        while len(trail) > mark:
            u, d = trail.pop()
            dom[u] = d
    if order is not None:
        found = [tuple(map(image.__getitem__, at)) for image in found]
    return found, nodes


def find_isomorphism(g: Graph, h: Graph) -> Optional[dict[Label, Label]]:
    """Find a graph isomorphism g -> h, or None: one search_shape call on
    g's shape against h's cached profile, read back in labels.

    Deterministic: vertices of g are matched in search_shape's
    connectivity order against the vertices of h with the same signature,
    in h's stored order, so the first witness found is stable.  Raises
    SearchBudgetExceeded (meaning "unknown") when the node budget in scope
    (see node_budget) runs out; a node is one candidate tried from a
    vertex's domain.
    """
    found, _ = search_shape(g.neighbor_indices, h.profile, current_budget.get(), 1)
    return dict(zip(g.vertices, map(h.vertices.__getitem__, found[0]))) if found else None


def automorphisms(g: Graph) -> list[Perm]:
    """Enumerate all automorphisms as permutations of vertex indices,
    bounded by the node budget in scope alone, whatever the vertex count.

    The list contains the identity, is closed under composition and
    inverse, and is sorted by image tuple for determinism.
    """
    images, _ = search_shape(g.neighbor_indices, g.profile, current_budget.get())
    return [tuple.__new__(Perm, p) for p in sorted(images)]
