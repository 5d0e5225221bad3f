"""Workload formula-check: the closed adjacency formulas against the
constructed totals, and product spectra against closed forms.

Each round holds four ops for each of bundle_adjacency, pullback_adjacency
(two along double covers, two along random walks), subdirect_adjacency and
covering_adjacency, three spectra of box or strong products (15%), and one
bundle_adjacency over a 9-vertex fiber (5%), which the seed refuses.
Totals come from voltage_bundle of the induced voltage, never from
verify_bundle, and both the formula and the construction are compared with
an edge set the benchmark derives itself.
"""

from __future__ import annotations

import random

import bundleforge as bf

import oracles
from common import (
    FIBERS,
    AutCache,
    Op,
    base_of_size,
    complete,
    cycle,
    edge_index_list,
    path,
    facets,
    log_size,
    random_voltage,
    stratified,
)

FORMULA_FIBERS = ("K2", "K3", "K4", "K5", "C4", "C5", "C6", "C7", "C8", "Q3", "K13")
SUBDIRECT_FIBERS = ("K2", "K3", "C4", "P3", "K13")
FAMILIES = ("cycle", "prism", "grid")
ROUND = (("bundle", 4), ("pullback", 4), ("subdirect", 4), ("covering", 4), ("spectrum", 3), ("c9", 1))
NINE_VERTEX_CASE = "formula-c9-fiber"


def _value(phi: dict, v: str, w: str) -> tuple:
    return phi[(v, w)] if (v, w) in phi else oracles.inverse(phi[(w, v)])


def _voltage(base, fiber, phi):
    return bf.make_fiber_voltage(
        bf.make_graph(*base), bf.make_graph(*fiber), {e: bf.Perm(p) for e, p in phi.items()}
    )


def _matrices_op(kind: str, run, n: int, edges: set, case=None) -> Op:
    """run() returns (formula matrix, construction matrix); both must hold
    exactly the edges the benchmark derived."""

    def check(result) -> bool:
        formula, direct = result
        return oracles.matrix_matches(formula.data, n, edges) and oracles.matrix_matches(direct.data, n, edges)

    return Op(kind, run, check, case)


class FormulaCheck:
    #: Fewest ops in one round.
    ROUND_OPS = 20
    #: Seconds one round takes on the seed code; a run is round(seconds / this) rounds.
    ROUND_SECONDS = 0.35

    def __init__(self, rng: random.Random, tiny: bool, rounds: int):
        self.rng = rng
        self.hi = 48 if tiny else 320
        self.auts = AutCache()
        # Per kind, one (stratum, position) per op of the run: the position
        # fixes the size and, through facets, the stratum fixes the fibers
        # and base family.
        self.plan = {kind: stratified(rng, count * rounds) for kind, count in ROUND}

    def _fiber(self, name: str):
        return FIBERS[name], self.auts.of(FIBERS[name])

    def _base(self, n: int, family: int):
        return base_of_size(n, FAMILIES[family])

    def bundle(self, j: int, total: int) -> Op:
        i, fam = facets(j, len(FORMULA_FIBERS), len(FAMILIES))
        fiber, auts = self._fiber(FORMULA_FIBERS[i])
        base = self._base(max(3, round(total / len(fiber[0]))), fam)
        return self._bundle_op(base, fiber, random_voltage(self.rng, base, auts))

    def _bundle_op(self, base, fiber, phi, case=None) -> Op:
        edges = oracles.voltage_total_edges(
            len(base[0]), edge_index_list(base), oracles.index_graph(*fiber), [phi[e] for e in base[1]]
        )

        def run():
            fv = _voltage(base, fiber, phi)
            return bf.bundle_adjacency(fv), bf.adjacency_matrix(bf.voltage_bundle(fv).total)

        return _matrices_op("bundle" if case is None else "c9", run, len(base[0]) * len(fiber[0]), edges, case)

    def nine_vertex(self, total: int) -> Op:
        """C9 fiber with rotation voltages over a cycle: the formula needs
        only the used values, but the seed enumerates all of Aut(C9) and
        refuses."""
        base = cycle(max(3, round(min(total, 72) / 9)))
        phi = {}
        for e in base[1]:
            shift = self.rng.randint(1, 8)
            phi[e] = tuple((i + shift) % 9 for i in range(9))
        return self._bundle_op(base, FIBERS["C9"], phi, NINE_VERTEX_CASE)

    def pullback(self, j: int, total: int) -> Op:
        rng = self.rng
        cover, i, fam = facets(j, 2, len(FORMULA_FIBERS), len(FAMILIES))
        fiber, auts = self._fiber(FORMULA_FIBERS[i])
        m = len(fiber[0])
        if cover:
            n = max(3, round(total / (2 * m)))
            base = cycle(n)
            domain = cycle(2 * n, "u")
            fmap = {f"u{i}": f"v{i % n}" for i in range(2 * n)}
        else:
            k = max(3, round(total / m))
            base = self._base(max(3, k // 2), fam)
            nbrs: dict = {v: [] for v in base[0]}
            for a, b in base[1]:
                nbrs[a].append(b)
                nbrs[b].append(a)
            walk = [rng.choice(base[0])]
            for _ in range(k - 1):
                here = walk[-1]
                walk.append(here if rng.random() < 0.25 else rng.choice(nbrs[here]))
            domain = path(k, "u")
            fmap = {f"u{i}": w for i, w in enumerate(walk)}
        phi = random_voltage(rng, base, auts)
        ident = oracles.identity(m)
        pulled = [
            ident if fmap[a] == fmap[b] else _value(phi, fmap[a], fmap[b]) for a, b in domain[1]
        ]
        edges = oracles.voltage_total_edges(
            len(domain[0]), edge_index_list(domain), oracles.index_graph(*fiber), pulled
        )

        def run():
            fv = _voltage(base, fiber, phi)
            f = bf.make_morphism(bf.make_graph(*domain), fv.base, fmap)
            formula = bf.pullback_adjacency(f, fv)
            return formula, bf.adjacency_matrix(bf.voltage_bundle(bf.pullback_voltage(f, fv)).total)

        return _matrices_op("pullback", run, len(domain[0]) * m, edges)

    def subdirect(self, j: int, total: int) -> Op:
        i1, i2, fam = facets(j, len(SUBDIRECT_FIBERS), len(SUBDIRECT_FIBERS), len(FAMILIES))
        (f1, a1), (f2, a2) = self._fiber(SUBDIRECT_FIBERS[i1]), self._fiber(SUBDIRECT_FIBERS[i2])
        m1, m2 = len(f1[0]), len(f2[0])
        base = self._base(max(3, round(total / (m1 * m2))), fam)
        phi1, phi2 = random_voltage(self.rng, base, a1), random_voltage(self.rng, base, a2)
        kron = [
            tuple(p1[i] * m2 + p2[j] for i in range(m1) for j in range(m2))
            for p1, p2 in ((phi1[e], phi2[e]) for e in base[1])
        ]
        box = oracles.box_product(oracles.index_graph(*f1), oracles.index_graph(*f2))
        edges = oracles.voltage_total_edges(len(base[0]), edge_index_list(base), box, kron)

        def run():
            fv1, fv2 = _voltage(base, f1, phi1), _voltage(base, f2, phi2)
            formula = bf.subdirect_adjacency(fv1, fv2)
            return formula, bf.adjacency_matrix(bf.voltage_bundle(bf.pullback.subdirect_voltage(fv1, fv2)).total)

        return _matrices_op("subdirect", run, len(base[0]) * m1 * m2, edges)

    def covering(self, j: int, total: int) -> Op:
        rng = self.rng
        i, fam = facets(j, 5, len(FAMILIES))
        k = 2 + i
        base = self._base(max(3, round(total / k)), fam)
        sigma = {}
        for e in base[1]:
            images = list(range(k))
            rng.shuffle(images)
            sigma[e] = tuple(images)
        edges = oracles.voltage_total_edges(
            len(base[0]), edge_index_list(base), (k, set()), [sigma[e] for e in base[1]]
        )
        points = [str(i + 1) for i in range(k)]

        def run():
            g = bf.make_graph(*base)
            perms = {e: bf.Perm(p) for e, p in sigma.items()}
            formula = bf.covering_adjacency(g, bf.products.make_covering_voltage(g, k, perms))
            fv = bf.make_fiber_voltage(g, bf.make_graph(points, []), perms)
            return formula, bf.adjacency_matrix(bf.voltage_bundle(fv).total)

        return _matrices_op("covering", run, len(base[0]) * k, edges)

    def spectrum(self, j: int, total: int) -> Op:
        rng = self.rng
        families = (
            (3, cycle, oracles.cycle_spectrum),
            (2, path, oracles.path_spectrum),
            (2, lambda k: complete(k, "k"), oracles.complete_spectrum),
        )
        i1, i2, strong = facets(j, 3, 3, 2)
        (lo1, g1, s1), (lo2, g2, s2) = families[i1], families[i2]
        size = min(48, max(12, total))
        while True:
            k1 = rng.randint(lo1, max(lo1, size // lo2))
            k2 = max(lo2, round(size / k1))
            if 12 <= k1 * k2 <= 48:
                break
        want = (oracles.strong_spectrum if strong else oracles.box_spectrum)(s1(k1), s2(k2))
        d1, d2 = g1(k1), g2(k2)

        def run():
            product = bf.strong_product if strong else bf.cartesian_product
            g = product(bf.make_graph(*d1), bf.make_graph(*d2))
            return bf.spectrum(bf.adjacency_matrix(g)).eigenvalues

        return Op("spectrum", run, lambda got: oracles.spectra_close(got, want))

    def make(self, kind: str, j: int, u: float) -> Op:
        """The op of a kind in stratum j at size position u."""
        total = log_size(u, 16, self.hi)
        if kind == "c9":
            return self.nine_vertex(total)
        return getattr(self, kind)(j, total)

    def round(self, index: int) -> list[Op]:
        ops = []
        for kind, count in ROUND:
            ops.extend(self.make(kind, *self.plan[kind][k]) for k in range(index * count, (index + 1) * count))
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [self.make(kind, 0, 0.0) for kind, _ in ROUND if kind != "c9"]
