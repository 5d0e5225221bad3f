"""Shared pieces of the workloads: the op record, plain-data graph families,
and the stratified plan of sizes and choices.

A graph in plain data is a pair (vertices, edges) of string labels, the
form a JSON-fed user would hand to the library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import oracles

PlainGraph = tuple[list[str], list[tuple[str, str]]]


@dataclass
class Op:
    """One timed operation.

    run() is the timed region: it builds the library objects from plain data
    and calls the library.  check(result) runs after the timer stops and
    compares the verdict with an answer known independently.  case names an
    expected failure listed in expected_failures.json, or is None.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    case: Optional[str] = None


# --- plain-data graphs -------------------------------------------------------------

def complete(k: int, prefix: str = "") -> PlainGraph:
    vs = [f"{prefix}{i}" for i in range(k)]
    return vs, [(vs[i], vs[j]) for i in range(k) for j in range(i + 1, k)]


def cycle(k: int, prefix: str = "v") -> PlainGraph:
    vs = [f"{prefix}{i}" for i in range(k)]
    return vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)]


def path(k: int, prefix: str = "v") -> PlainGraph:
    vs = [f"{prefix}{i}" for i in range(k)]
    return vs, [(vs[i], vs[i + 1]) for i in range(k - 1)]


def prism(k: int) -> PlainGraph:
    """C_k box K2."""
    vs = [f"p{i}s{s}" for i in range(k) for s in range(2)]
    es = [(f"p{i}s{s}", f"p{(i + 1) % k}s{s}") for i in range(k) for s in range(2)]
    es += [(f"p{i}s0", f"p{i}s1") for i in range(k)]
    return vs, es


def grid(a: int, b: int) -> PlainGraph:
    """P_a box P_b."""
    vs = [f"g{i}x{j}" for i in range(a) for j in range(b)]
    es = [(f"g{i}x{j}", f"g{i + 1}x{j}") for i in range(a - 1) for j in range(b)]
    es += [(f"g{i}x{j}", f"g{i}x{j + 1}") for i in range(a) for j in range(b - 1)]
    return vs, es


def star(leaves: int) -> PlainGraph:
    vs = [str(i) for i in range(leaves + 1)]
    return vs, [(vs[0], v) for v in vs[1:]]


def cube() -> PlainGraph:
    vs = [format(i, "03b") for i in range(8)]
    es = [(vs[i], vs[i ^ (1 << k)]) for i in range(8) for k in range(3) if i < i ^ (1 << k)]
    return vs, es


FIBERS: dict[str, PlainGraph] = {
    "K2": complete(2, "f"),
    "K3": complete(3, "f"),
    "K4": complete(4, "f"),
    "K5": complete(5, "f"),
    "C4": cycle(4, "f"),
    "C5": cycle(5, "f"),
    "C6": cycle(6, "f"),
    "C7": cycle(7, "f"),
    "C8": cycle(8, "f"),
    "C9": cycle(9, "f"),
    "P3": path(3, "f"),
    "Q3": cube(),
    "K13": star(3),
}


def chordable(g: PlainGraph) -> list[tuple[str, str]]:
    """Non-edges of a graph, the places a chord can be added."""
    vs, es = g
    have = {frozenset(e) for e in es}
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if frozenset((a, b)) not in have]


class AutCache:
    """Brute-force automorphism groups of plain graphs, computed once."""

    def __init__(self) -> None:
        self._auts: dict = {}

    def of(self, g: PlainGraph) -> list[tuple]:
        key = (tuple(g[0]), tuple(sorted(tuple(e) for e in g[1])))
        if key not in self._auts:
            self._auts[key] = oracles.automorphisms(*oracles.index_graph(*g))
        return self._auts[key]


def base_of_size(n: int, family: str) -> PlainGraph:
    """A base graph from one family with about n vertices; grids are as
    square as n allows."""
    if family == "cycle":
        return cycle(max(3, n))
    if family == "prism":
        return prism(max(3, round(n / 2)))
    a = max(2, math.isqrt(n))
    return grid(a, max(2, round(n / a)))


def stratified(rng: random.Random, n: int) -> list[tuple[int, float]]:
    """n positions in [0, 1), one drawn uniformly inside each of n equal
    strata, as (stratum, position) pairs in random order.

    Every run of a workload takes each kind's sizes this way, so any two
    runs cover the size range alike and differ only inside strata: a run's
    cost and percentiles then hardly depend on the seed, while the seed
    still picks every instance.
    """
    out = [(j, (j + rng.random()) / n) for j in range(n)]
    rng.shuffle(out)
    return out


def log_size(u: float, lo: float, hi: float) -> int:
    """The size at position u of a log-uniform range [lo, hi]."""
    return round(lo * (hi / lo) ** u)


#: Stride through the combinations; coprime to every product of radices used.
_STRIDE = 7


def facets(j: int, *radices: int) -> list[int]:
    """Mixed-radix digits (fiber, base family, ...) of stratum j.

    Consecutive strata step through the combinations with a fixed stride, so
    each combination meets every part of the size range and the multiset of
    (size, fiber, family) is the same in every run of the same length.
    """
    total = math.prod(radices)
    if math.gcd(_STRIDE, total) != 1:
        raise ValueError(f"stride {_STRIDE} must be coprime to {total}")
    k = (j * _STRIDE) % total
    digits = []
    for r in radices:
        digits.append(k % r)
        k //= r
    return digits


def random_voltage(rng: random.Random, base: PlainGraph, auts: list[tuple]) -> dict:
    return {e: rng.choice(auts) for e in base[1]}


def edge_index_list(base: PlainGraph) -> list[tuple[int, int]]:
    idx = {v: i for i, v in enumerate(base[0])}
    return [(idx[a], idx[b]) for a, b in base[1]]
