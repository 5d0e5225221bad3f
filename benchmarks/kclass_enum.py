"""Workload kclass-enum: exhaustive bundle-class enumeration over small
bases, checked against Burnside counts.

Bases are connected, have at most 6 vertices and cycle rank at most 3;
fibers are K2, K3, C4 and P3.  The seed's enumeration walks every voltage
assignment, so its cost is predicted from the assignment count and each
round takes a fixed number of cases from each cost band, at positions
planned by strata over the whole run.  Four ops per round
also pull the classes back along a path into the base (k0_map) and ask
grothendieck_equal questions whose answers follow from the fiber-power
grading.  One op per round is a case the seed refuses by cap.
"""

from __future__ import annotations

import math
import random

import bundleforge as bf

import oracles
from common import FIBERS, Op, cycle, path, stratified

FIBER_CHOICES = ("K2", "K3", "C4", "P3")
#: Largest fiber power the seed's automorphism enumeration accepts (10 vertices).
MAX_POWER = {"K2": 3, "K3": 2, "C4": 1, "P3": 2}
#: Cost bands in predicted seconds, with the number of plain enumerations
#: drawn from each per round.
BANDS = ((0.0, 0.003, 5), (0.003, 0.03, 4), (0.03, 0.3, 4), (0.3, 1.0, 2))
K0_OPS = 4
#: The seed refuses these by cap; their class counts are known all the same.
REFUSED = (("kclass-refused-c4-k2-n3", "C4", 3), ("kclass-refused-p7-k2", "P7", 2))


def predicted_seconds(sizes: list[int], n_edges: int, beta: int) -> float:
    """Rough cost of the seed's walk: per assignment a fixed part, a part per
    base edge, and a conjugation per automorphism and non-tree edge."""
    return sum(a ** n_edges * (20 + 5 * n_edges + 9 * a * beta) for a in sizes) * 1e-6


class KclassEnum:
    #: Fewest ops in one round.
    ROUND_OPS = 14
    #: Seconds one round takes on the seed code; a run is round(seconds / this) rounds.
    ROUND_SECONDS = 1.6

    def __init__(self, rng: random.Random, tiny: bool, rounds: int):
        self.rng = rng
        self.bands = BANDS[:2] if tiny else BANDS
        self.groups = {
            name: [
                oracles.automorphisms(*oracles.box_power(oracles.index_graph(*FIBERS[name]), n))
                for n in range(MAX_POWER[name] + 1)
            ]
            for name in FIBER_CHOICES
        }
        self._counts: dict = {}
        self._combos: dict = {}
        # Per band, and for the k0 ops, one position per op of the run.
        self.plan = [[u for _, u in stratified(rng, count * rounds)] for _, _, count in self.bands]
        self.k0_plan = [u for _, u in stratified(rng, K0_OPS * rounds)]

    def class_counts(self, fiber: str, n_max: int, beta: int) -> list[int]:
        key = (fiber, n_max, beta)
        if key not in self._counts:
            groups = self.groups[fiber]
            self._counts[key] = [oracles.burnside_classes(groups[n], beta) for n in range(n_max + 1)]
        return self._counts[key]

    def random_base(self, k: int, beta: int) -> tuple[list[str], list[tuple[str, str]]]:
        rng = self.rng
        vs = [f"b{i}" for i in range(k)]
        edges = {frozenset((vs[i], vs[rng.randrange(i)])) for i in range(1, k)}
        free = [frozenset((a, b)) for i, a in enumerate(vs) for b in vs[i + 1:]]
        free = [e for e in free if e not in edges]
        edges |= set(rng.sample(free, beta))
        es = [tuple(sorted(e)) for e in edges]
        rng.shuffle(vs)
        rng.shuffle(es)
        return vs, es

    def combos(self, lo: float, hi: float) -> list[tuple[float, int, int, str, int]]:
        """Every (predicted seconds, vertices, cycle rank, fiber, n_max) of a
        connected base with at most 6 vertices and cycle rank at most 3
        whose predicted cost lies in [lo, hi), cheapest first."""
        out = []
        for k in range(2, 7):
            for beta in range(0, min(3, (k - 1) * (k - 2) // 2) + 1):
                for fiber in FIBER_CHOICES:
                    for n_max in range(1, MAX_POWER[fiber] + 1):
                        sizes = [len(g) for g in self.groups[fiber][: n_max + 1]]
                        cost = predicted_seconds(sizes, k - 1 + beta, beta)
                        if lo <= cost < hi:
                            out.append((cost, k, beta, fiber, n_max))
        return sorted(out)

    def draw(self, band: tuple[float, float], u: float):
        """The case of a band whose predicted cost is nearest, on a log
        scale, to position u of the band; the base graph is random."""
        lo, hi = band
        if band not in self._combos:
            self._combos[band] = self.combos(lo, hi)
        choices = self._combos[band]
        target = math.log(max(lo, 1e-4)) + u * (math.log(hi) - math.log(max(lo, 1e-4)))
        gap = min(abs(math.log(c[0]) - target) for c in choices)
        nearest = [c for c in choices if abs(math.log(c[0]) - target) <= gap + 1e-9]
        _, k, beta, fiber, n_max = self.rng.choice(nearest)
        return self.random_base(k, beta), fiber, n_max, beta

    def enumeration_op(self, base, fiber: str, n_max: int, beta: int, k0: bool = False, case=None) -> Op:
        want = self.class_counts(fiber, n_max, beta)
        rng = self.rng
        fold = None
        if k0:
            u, w = rng.choice(base[1])
            fold = {"d0": u, "d1": w, "d2": u} if rng.random() < 0.5 else {"d0": u, "d1": u, "d2": w}
            pick = rng.randrange(sum(want))
        domain = path(3, "d")

        def run():
            b = bf.make_graph(*base)
            monoid = bf.enumerate_bundle_classes(b, bf.make_graph(*FIBERS[fiber]), n_max)
            if fold is None:
                return monoid, None, None
            f = bf.make_morphism(bf.make_graph(*domain), b, fold)
            images = bf.k0_map(f, monoid)
            some = monoid.classes[pick]
            lifted = next(c for c in monoid.classes if c.n >= 1)
            verdicts = (
                bf.grothendieck_equal(monoid, bf.KGroupElement(some.class_id, some.class_id), bf.KGroupElement(0, 0)),
                bf.grothendieck_equal(monoid, bf.KGroupElement(some.class_id, 0), bf.KGroupElement(some.class_id, 0)),
                bf.grothendieck_equal(monoid, bf.KGroupElement(lifted.class_id, 0), bf.KGroupElement(0, 0)),
            )
            return monoid, images, verdicts

        def check(result) -> bool:
            monoid, images, verdicts = result
            if [len(monoid.classes_at(n)) for n in range(n_max + 1)] != want:
                return False
            if images is None:
                return True
            # A path is a tree: one class per fiber power, with ids 0..n_max.
            if any(images[c.class_id] != c.n for c in monoid.classes):
                return False
            return verdicts[0] == "true" and verdicts[1] == "true" and verdicts[2] != "true"

        return Op("k0" if k0 else "enumerate", run, check, case)

    def refused_op(self, index: int) -> Op:
        case, base_name, n_max = REFUSED[index % len(REFUSED)]
        if base_name == "C4":
            vs, es = cycle(4, "b")
        else:
            vs, es = path(7, "b")
        perm = vs[:]
        self.rng.shuffle(perm)
        rename = dict(zip(vs, perm))
        base = ([rename[v] for v in vs], [(rename[a], rename[b]) for a, b in es])
        beta = oracles.cycle_rank(len(vs), len(es))
        return self.enumeration_op(base, "K2", n_max, beta, case=case)

    def round(self, index: int) -> list[Op]:
        ops = []
        for (lo, hi, count), plan in zip(self.bands, self.plan):
            for u in plan[index * count:(index + 1) * count]:
                ops.append(self.enumeration_op(*self.draw((lo, hi), u)))
        for u in self.k0_plan[index * K0_OPS:(index + 1) * K0_OPS]:
            base, fiber, n_max, beta = self.draw(self.bands[1][:2], u)
            ops.append(self.enumeration_op(base, fiber, n_max, beta, k0=True))
        ops.append(self.refused_op(index))
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        base, fiber, n_max, beta = self.draw(self.bands[0][:2], 0.0)
        return [
            self.enumeration_op(base, fiber, n_max, beta),
            self.enumeration_op(base, fiber, n_max, beta, k0=True),
        ]
