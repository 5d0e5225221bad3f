"""Workload bundle-scale: build, verify, compare and multiply bundles whose
totals span about 32 to 600 vertices.

Each round holds six gauge-equivalence ops, two inequivalence ops on cycle
bases, four subdirect products and four verifications of a mutated total
(one op in four is a reject).  A run plans each kind's sizes by strata
(common.stratified), and the stratum also fixes the fibers and base family
(common.facets), so every run holds the same mix whatever the seed.
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
    chordable,
    edge_index_list,
    facets,
    log_size,
    random_voltage,
    stratified,
)

FIBER_CHOICES = ("K2", "K3", "C4", "P3")
FAMILIES = ("cycle", "prism", "grid")
ROUND = (("equivalent", 6), ("inequivalent", 2), ("subdirect", 4), ("mutated", 4))


def _label(v: str, f: str) -> str:
    return f"({v},{f})"


def _total_label_edges(base, fiber, phi) -> set:
    """Edge set of the voltage total in the library's (v,f) labels."""
    fvs, fes = fiber
    edges = set()
    for v in base[0]:
        for a, b in fes:
            edges.add(frozenset((_label(v, a), _label(v, b))))
    for (a, b), perm in phi.items():
        for i, f in enumerate(fvs):
            edges.add(frozenset((_label(a, f), _label(b, fvs[perm[i]]))))
    return edges


def _library_voltage(base, fiber, phi):
    b = bf.make_graph(*base)
    f = bf.make_graph(*fiber)
    return bf.make_fiber_voltage(b, f, {e: bf.Perm(p) for e, p in phi.items()})


def _equivalence_op(base, fiber, phi, phi2, expect_equivalent: bool) -> Op:
    def run():
        fv = _library_voltage(base, fiber, phi)
        b = bf.voltage_bundle(fv)
        verified = bf.verify_bundle(b.total, b.projection, fv.fiber)
        other = bf.voltage_bundle(_library_voltage(base, fiber, phi2))
        return bf.bundles_equivalent(verified, other)

    def check(witness) -> bool:
        if not expect_equivalent:
            return witness is None
        if witness is None:
            return False
        e1 = _total_label_edges(base, fiber, phi)
        e2 = _total_label_edges(base, fiber, phi2)
        labels = {_label(v, f) for v in base[0] for f in fiber[0]}
        if set(witness) != labels or set(witness.values()) != labels:
            return False
        if any(x.split(",", 1)[0] != y.split(",", 1)[0] for x, y in witness.items()):
            return False
        return all(frozenset(witness[x] for x in e) in e2 for e in e1)

    return Op("equivalent" if expect_equivalent else "inequivalent", run, check)


def _subdirect_op(base, f1, phi1, f2, phi2) -> Op:
    n, nb_edges = len(base[0]), len(base[1])
    m1, e1 = len(f1[0]), len(f1[1])
    m2, e2 = len(f2[0]), len(f2[1])
    want_v = n * m1 * m2
    want_e = n * (e1 * m2 + m1 * e2) + nb_edges * m1 * m2

    def run():
        b1 = bf.voltage_bundle(_library_voltage(base, f1, phi1))
        b2 = bf.voltage_bundle(_library_voltage(base, f2, phi2))
        return bf.subdirect_product(b1, b2)

    def check(sp) -> bool:
        return sp.total.n == want_v and len(sp.total.edges) == want_e

    return Op("subdirect", run, check)


def _mutated_op(base, fiber, total_vs, total_es, pmap) -> Op:
    def run():
        total = bf.make_graph(total_vs, total_es)
        p = bf.make_morphism(total, bf.make_graph(*base), pmap)
        try:
            bf.verify_bundle(total, p, bf.make_graph(*fiber))
        except bf.errors.BundleForgeError:
            return "rejected"
        return "accepted"

    return Op("mutated", run, lambda verdict: verdict == "rejected")


class BundleScale:
    #: Fewest ops in one round.
    ROUND_OPS = 16
    #: Seconds one round takes on the seed code; a run is round(seconds / this) rounds.
    ROUND_SECONDS = 3.0

    def __init__(self, rng: random.Random, tiny: bool, rounds: int):
        self.rng = rng
        self.hi = 64 if tiny else 600
        self.auts = AutCache()
        # Per kind, one (stratum, position) per op of the run, and the place
        # of each mutation, also by strata.
        self.plan = {kind: stratified(rng, count * rounds) for kind, count in ROUND}
        self.places = [u for _, u in stratified(rng, dict(ROUND)["mutated"] * rounds)]

    def _fiber(self, name: str):
        return FIBERS[name], self.auts.of(FIBERS[name])

    def make(self, kind: str, j: int, u: float, place: float = 0.5) -> Op:
        """The op of a kind in stratum j at size position u."""
        rng = self.rng
        total = log_size(u, 32, self.hi)
        if kind == "subdirect":
            i1, i2, fam = facets(j, 4, 4, 3)
            (f1, a1), (f2, a2) = self._fiber(FIBER_CHOICES[i1]), self._fiber(FIBER_CHOICES[i2])
            base = base_of_size(max(3, round(total / (len(f1[0]) * len(f2[0])))), FAMILIES[fam])
            return _subdirect_op(base, f1, random_voltage(rng, base, a1), f2, random_voltage(rng, base, a2))
        style, i, fam = facets(j, 2, 4, 3)
        chord = kind == "mutated" and style == 1
        fiber, auts = self._fiber(("C4", "P3")[i % 2] if chord else FIBER_CHOICES[i])
        n = max(3, round(total / len(fiber[0])))
        base = base_of_size(n, "cycle" if kind == "inequivalent" else FAMILIES[fam])
        phi = random_voltage(rng, base, auts)
        if kind == "equivalent":
            gauge = {v: rng.choice(auts) for v in base[0]}
            phi2 = {
                (a, b): oracles.compose(oracles.compose(gauge[b], p), oracles.inverse(gauge[a]))
                for (a, b), p in phi.items()
            }
            return _equivalence_op(base, fiber, phi, phi2, True)
        if kind == "inequivalent":
            return _equivalence_op(base, fiber, phi, self._off_class(base, phi, auts), False)
        return self._mutated(base, fiber, phi, chord, place)

    def _off_class(self, base, phi, auts) -> dict:
        """Copy of a cycle voltage whose holonomy is not conjugate to the
        original's, made by changing the voltage of the closing edge."""
        ring = base[0]
        h = oracles.holonomy(ring, phi)
        target = self.rng.choice([t for t in auts if not oracles.are_conjugate(h, t, auts)])
        last = base[1][-1]
        rest = oracles.compose(oracles.inverse(phi[last]), h)
        out = dict(phi)
        out[last] = oracles.compose(target, oracles.inverse(rest))
        if oracles.are_conjugate(oracles.holonomy(ring, out), h, auts):
            raise RuntimeError("inequivalent copy has a conjugate holonomy")
        return out

    def _mutated(self, base, fiber, phi, chord: bool, place: float) -> Op:
        """Add a chord inside the fiber over one base vertex, or remove one
        cross edge over one base edge; place picks which, as a share of the
        base, since the seed's checks stop at the first broken part."""
        rng = self.rng
        fvs = fiber[0]
        total_vs = [_label(v, f) for v in base[0] for f in fvs]
        n_fiber, fes = oracles.index_graph(*fiber)
        edges = oracles.voltage_total_edges(
            len(base[0]), edge_index_list(base), (n_fiber, fes), [phi[e] for e in base[1]]
        )
        as_labels = {frozenset(total_vs[i] for i in e) for e in edges}
        if chord:
            v = base[0][int(place * len(base[0]))]
            a, b = rng.choice(chordable(fiber))
            as_labels.add(frozenset((_label(v, a), _label(v, b))))
        else:
            a, b = base[1][int(place * len(base[1]))]
            f = rng.choice(fvs)
            g = fvs[phi[(a, b)][fvs.index(f)]]
            as_labels.remove(frozenset((_label(a, f), _label(b, g))))
        total_es = sorted(tuple(sorted(e)) for e in as_labels)
        pmap = {_label(v, f): v for v in base[0] for f in fvs}
        return _mutated_op(base, fiber, total_vs, total_es, pmap)

    def round(self, index: int) -> list[Op]:
        ops = []
        for kind, count in ROUND:
            for k in range(index * count, (index + 1) * count):
                j, u = self.plan[kind][k]
                place = self.places[k] if kind == "mutated" else 0.5
                ops.append(self.make(kind, j, u, place))
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [self.make(kind, 0, 0.0) for kind, _ in ROUND]
