from collections import deque

import pytest
from hypothesis import settings

from bundleforge import (
    Perm,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_fiber_voltage,
    make_graph,
    make_morphism,
    path_graph,
    verify_bundle,
)
from bundleforge.named import (
    CASES,
    hexagonal_prism,
    mobius_ladder_3,
    mod3_projection,
    twisted_hexagonal_ladder,
    twisted_ladder_voltage,
)

# Every hypothesis test draws the same examples on every run; each keeps its
# own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def identity_bundle(base):
    """The base over itself with a one-vertex fiber; neutral for the
    subdirect product."""
    point = make_graph(["1"], [])
    return verify_bundle(base, identity_morphism(base), point)


def m62_bundle():
    """The twisted hexagonal ladder over the hexagon, as the bundle-verify
    case m62 reads it."""
    return verify_bundle(*CASES["bundle-verify"]["m62"]())


def with_fiber(b, new_fiber):
    """Re-express a bundle with an isomorphic replacement fiber graph, by
    verifying it again against that fiber.

    Any fiber identification works: the residual ambiguity is a constant
    automorphism twist, which bundle equivalence absorbs.
    """
    if b.fiber == new_fiber:
        return b
    return verify_bundle(b.total, b.projection, new_fiber)


def spanning_forest(g):
    """Breadth-first spanning forest by labels, one tree per connected
    component: each tree is rooted at its component's first vertex in
    stored order and maps its vertices, in visit order, to their tree parent
    (None at the root), with neighbours visited in stored order.  The label
    reference of the forest that bundles._forest_cycles walks on positions."""
    trees = []
    seen = set()
    for root in g.vertices:
        if root in seen:
            continue
        tree = {root: None}
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in neighbors(g, v):
                if w not in seen:
                    seen.add(w)
                    tree[w] = v
                    queue.append(w)
        trees.append(tree)
    return trees


def neighbors(g, v):
    """The neighbours of v in g, in vertex order."""
    return tuple(map(g.vertices.__getitem__, g.neighbor_indices[g.index[v]]))


def adjacency(g):
    """The label view of g's neighbour lists: each vertex's neighbours, in
    vertex order."""
    return {v: neighbors(g, v) for v in g.vertices}


def induced_adjacency(g, at):
    """The shape of the positions at in g: each one's neighbour positions
    within at, in increasing order when at is.  Two sets of positions have
    the same shape exactly when k -> k is an isomorphism of their induced
    subgraphs that keeps the order."""
    nbrs = g.neighbor_indices
    pos = {i: k for k, i in enumerate(at)}
    return tuple(tuple(k for k in map(pos.get, nbrs[i]) if k is not None) for i in at)


def degree(g, v):
    return len(g.neighbor_indices[g.index[v]])


def degree_sequence(g):
    return tuple(sorted(map(len, g.neighbor_indices)))


def conjugate(a, g):
    """g ∘ a ∘ g⁻¹."""
    return g.compose(a).compose(g.inverse())


def identity_morphism(g):
    return make_morphism(g, g, {v: v for v in g.vertices})


def is_isomorphism(mapping, g, h):
    """Validate a proposed vertex bijection as an isomorphism g -> h."""
    if set(mapping.keys()) != set(g.vertices):
        return False
    if sorted(mapping.values()) != sorted(h.vertices):
        return False
    if len(g.ends) != len(h.ends):
        return False
    at = [h.index[mapping[v]] for v in g.vertices]
    nbrs = h.neighbor_indices
    return all(at[j] in nbrs[at[i]] for i, j in g.ends)


def is_equivalence_witness(b1, b2, mapping):
    """Validate a proposed total-space map as a bundle equivalence."""
    if not is_isomorphism(dict(mapping), b1.total, b2.total):
        return False
    return all(b2.projection(mapping[x]) == b1.projection(x) for x in b1.total.vertices)


# --- group label helpers ----------------------------------------------------------
#
# A FiniteGroup stores its table by position; these read it by labels, as
# the tests state the group axioms and the paper's identities.


def table(g):
    """The Cayley table as a dict from label pairs to labels, in row order."""
    es = g.elements
    return {(x, y): es[k] for x, row in zip(es, g.rows) for y, k in zip(es, row)}


def mul(g, x, y):
    return g.elements[g.rows[g.index[x]][g.index[y]]]


def identity(g):
    return g.elements[g.identity]


def inv(g, x):
    return g.elements[g.inverse[g.index[x]]]


def inverses(g):
    """Each element's inverse, by labels, in element order."""
    return {x: g.elements[k] for x, k in zip(g.elements, g.inverse)}


def element_order(g, x):
    acc, k = x, 1
    while acc != identity(g):
        acc = mul(g, acc, x)
        k += 1
    return k


def generated_subgroup(g, gens):
    """Closure of a generating set, in ambient element order."""
    gens = list(gens)
    seen, frontier = {identity(g)}, [identity(g)]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = mul(g, x, s)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(e for e in g.elements if e in seen)


def is_normal(g, members):
    want = set(members)
    return all(mul(g, mul(g, a, x), inv(g, a)) in want for a in g.elements for x in want)


@pytest.fixture
def k2():
    return complete_graph(2)


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def c3():
    return cycle_graph(3)


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def two_k1():
    return empty_graph(2)


@pytest.fixture
def m3():
    return mobius_ladder_3()


@pytest.fixture
def m62():
    return twisted_hexagonal_ladder()


@pytest.fixture
def c6k2():
    return hexagonal_prism()


@pytest.fixture
def p_c6_c3(c6):
    """Double-cover projection of the hexagon onto the triangle."""
    return mod3_projection(c6)


@pytest.fixture
def q_m3_c3(m3):
    return mod3_projection(m3)


@pytest.fixture
def m3_voltage():
    return twisted_ladder_voltage()


@pytest.fixture
def c9_rotation_voltage(c6):
    """Rotations of a 9-cycle fiber over the hexagon: four distinct values,
    on a fiber too large for automorphism enumeration."""
    rotation = Perm(tuple((i + 1) % 9 for i in range(9)))
    ident = Perm.identity(9)
    values = [rotation, rotation.compose(rotation), ident, rotation.inverse(), rotation, ident]
    return make_fiber_voltage(c6, cycle_graph(9), dict(zip(c6.edge_list(), values)))
