"""Known answers computed without the library under test.

Everything here uses the standard library only and works on plain data:
graphs are (vertices, edges) with vertices numbered 0..n-1 where noted,
permutations are image tuples (i maps to p[i]).  The benchmark judges each
verdict against these answers, never against the library alone.
"""

from __future__ import annotations

import math
from itertools import product


# --- permutations --------------------------------------------------------------

def compose(p: tuple, q: tuple) -> tuple:
    """p after q: i maps to p[q[i]]."""
    return tuple(p[i] for i in q)


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conjugate(h: tuple, g: tuple) -> tuple:
    """g h g^-1."""
    return compose(compose(g, h), inverse(g))


def identity(n: int) -> tuple:
    return tuple(range(n))


# --- graphs on indices -----------------------------------------------------------

def index_graph(vertices: list, edges: list) -> tuple[int, set]:
    """Relabel a plain graph to indices 0..n-1 in vertex order."""
    idx = {v: i for i, v in enumerate(vertices)}
    return len(vertices), {frozenset((idx[a], idx[b])) for a, b in edges}


def automorphisms(n: int, edges: set) -> list[tuple]:
    """All vertex permutations preserving the edge set, by backtracking over
    images in index order with adjacency checks against assigned vertices."""
    adj = [[False] * n for _ in range(n)]
    for e in edges:
        a, b = tuple(e)
        adj[a][b] = adj[b][a] = True
    deg = [sum(row) for row in adj]
    found: list[tuple] = []
    image = [0] * n
    used = [False] * n

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(image))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[i]:
                continue
            if any(adj[i][j] != adj[w][image[j]] for j in range(i)):
                continue
            image[i] = w
            used[w] = True
            extend(i + 1)
            used[w] = False

    extend(0)
    return found


def box_product(g1: tuple[int, set], g2: tuple[int, set]) -> tuple[int, set]:
    """Cartesian product on indices i*n2 + j."""
    n1, e1 = g1
    n2, e2 = g2
    edges = set()
    for e in e1:
        a, b = tuple(e)
        for j in range(n2):
            edges.add(frozenset((a * n2 + j, b * n2 + j)))
    for i in range(n1):
        for e in e2:
            a, b = tuple(e)
            edges.add(frozenset((i * n2 + a, i * n2 + b)))
    return n1 * n2, edges


def box_power(g: tuple[int, set], k: int) -> tuple[int, set]:
    out: tuple[int, set] = (1, set())
    for _ in range(k):
        out = box_product(out, g)
    return out


# --- bundle classes ------------------------------------------------------------------

def burnside_classes(group: list[tuple], beta: int) -> int:
    """Orbits of group^beta under simultaneous conjugation:
    (1/|G|) * sum over g of |C_G(g)|^beta.  For beta = 0 this is 1."""
    total = 0
    for g in group:
        centralizer = sum(1 for h in group if compose(g, h) == compose(h, g))
        total += centralizer ** beta
    count, rem = divmod(total, len(group))
    if rem:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return count


def cycle_rank(n_vertices: int, n_edges: int) -> int:
    """First Betti number of a connected graph."""
    return n_edges - n_vertices + 1


def holonomy(cycle: list, phi: dict) -> tuple:
    """Product of voltages around the closed walk cycle[0] -> ... -> cycle[0].

    phi maps oriented edges (v, w) to image tuples; only one orientation
    needs to be present.
    """
    def value(v, w):
        if (v, w) in phi:
            return phi[(v, w)]
        return inverse(phi[(w, v)])

    n = len(cycle)
    h = identity(len(next(iter(phi.values()))))
    for i in range(n):
        h = compose(value(cycle[i], cycle[(i + 1) % n]), h)
    return h


def are_conjugate(h1: tuple, h2: tuple, group: list[tuple]) -> bool:
    return any(conjugate(h1, g) == h2 for g in group)


# --- voltage totals --------------------------------------------------------------------

def voltage_total_edges(
    n_base: int,
    base_edges: list[tuple[int, int]],
    fiber: tuple[int, set],
    phi: list[tuple],
) -> set:
    """Edges of the voltage total on indices v*m + f: one fiber copy per base
    vertex, and (a, f) ~ (b, phi_e(f)) for the oriented base edge e = (a, b)."""
    m, fiber_edges = fiber
    edges = set()
    for v in range(n_base):
        for e in fiber_edges:
            a, b = tuple(e)
            edges.add(frozenset((v * m + a, v * m + b)))
    for (a, b), perm in zip(base_edges, phi):
        for f in range(m):
            edges.add(frozenset((a * m + f, b * m + perm[f])))
    return edges


def matrix_matches(data, n: int, edges: set) -> bool:
    """True when a dense 0/1 array holds exactly the given undirected edges."""
    if tuple(data.shape) != (n, n):
        return False
    for e in edges:
        a, b = tuple(e)
        if data[a, b] != 1.0 or data[b, a] != 1.0:
            return False
    return float(data.min()) >= 0.0 and float(data.sum()) == 2.0 * len(edges)


# --- closed-form spectra --------------------------------------------------------------------

def cycle_spectrum(k: int) -> list[float]:
    return [2.0 * math.cos(2.0 * math.pi * j / k) for j in range(k)]


def path_spectrum(k: int) -> list[float]:
    return [2.0 * math.cos(math.pi * j / (k + 1)) for j in range(1, k + 1)]


def complete_spectrum(k: int) -> list[float]:
    return [float(k - 1)] + [-1.0] * (k - 1)


def box_spectrum(s1: list[float], s2: list[float]) -> list[float]:
    return [a + b for a in s1 for b in s2]


def strong_spectrum(s1: list[float], s2: list[float]) -> list[float]:
    return [a + b + a * b for a in s1 for b in s2]


def spectra_close(got, want, tol: float = 1e-8) -> bool:
    got, want = sorted(got), sorted(want)
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


# --- finite abelian groups ---------------------------------------------------------------------

def abelian_elements(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    return list(product(*(range(m) for m in moduli)))


def abelian_order(x: tuple[int, ...], moduli: tuple[int, ...]) -> int:
    return math.lcm(*(m // math.gcd(m, xi) if xi else 1 for xi, m in zip(x, moduli)))


def surjection_count(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Surjective homomorphisms Z_a1 x ... -> Z_b1 x ...: choices of generator
    images whose orders divide the generator orders and that generate b."""
    elems = abelian_elements(b)

    def generated(gens):
        seen = {tuple(0 for _ in b)}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple((xi + gi) % m for xi, gi, m in zip(x, g, b))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen)

    candidates = [[y for y in elems if m % abelian_order(y, b) == 0] for m in a]
    return sum(1 for images in product(*candidates) if generated(images) == len(elems))
