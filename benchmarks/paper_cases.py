"""Workload paper-cases: the paper's worked examples through the CLI, and
the exhaustive Cayley-bundle and invariance sweeps through the library.

Each round runs every CLI case once in-process, one cayley_bundle sweep per
pair of groups in the family whose orders allow a surjection, and its share
of the 144 invariance pairs: a run covers all of them once, in a
seed-shuffled order.  File inputs are
generated JSON written under the run's work directory.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

import bundleforge as bf
import bundleforge.cli as cli

import oracles
from common import FIBERS, AutCache, Op, cycle, path, star

VARIANTS = 4
CRASH_SHORT_ROW = "cli-cayley-short-row"
CRASH_PARTIAL_PROJ = "cli-verify-partial-proj"

#: The group family of the paper's sweep, as cyclic factor moduli.
GROUP_FAMILY = {"z2": (2,), "z3": (3,), "z4": (4,), "z6": (6,), "z2xz2": (2, 2), "z2xz3": (2, 3)}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process with captured output.

    The CLI writes its --budget into the module global
    graphs.DEFAULT_NODE_BUDGET, so the global is saved and restored around
    every call; otherwise one budget case would change every later op.
    Exceptions escaping cli.main propagate and fail the op.
    """
    saved = bf.graphs.DEFAULT_NODE_BUDGET
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        bf.graphs.DEFAULT_NODE_BUDGET = saved
    return code, out.getvalue(), err.getvalue()


def _graph_json(g) -> dict:
    return {"vertices": list(g[0]), "edges": [list(e) for e in g[1]]}


def _group_data(moduli: tuple[int, ...]) -> tuple[list[str], dict]:
    """Elements and table of a product of cyclic groups, labeled as the
    library labels cyclic groups ("3") and their direct products ("(1,2)")."""
    elems = oracles.abelian_elements(moduli)

    def label(x):
        return str(x[0]) if len(x) == 1 else f"({x[0]},{x[1]})"

    table = {
        (label(x), label(y)): label(tuple((a + b) % m for a, b, m in zip(x, y, moduli)))
        for x in elems
        for y in elems
    }
    return [label(x) for x in elems], table


def _json_check(code_want: int, **fields):
    """Check an exit code and a --json report's fields; floats in lists
    compare with a tolerance."""

    def check(result) -> bool:
        code, out, _ = result
        if code != code_want:
            return False
        if not fields:
            return True
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return False
        for key, want in fields.items():
            got = report.get(key)
            if callable(want):
                if not want(got):
                    return False
            elif got != want:
                return False
        return True

    return check


def _code_check(code_want: int):
    return lambda result: result[0] == code_want


class PaperCases:
    #: Fewest ops in one round.
    ROUND_OPS = 50
    #: Seconds one round takes on the seed code; a run is round(seconds / this) rounds.
    ROUND_SECONDS = 0.7

    def __init__(self, rng: random.Random, tiny: bool, rounds: int, workdir: str):
        self.rng = rng
        self.rounds = rounds
        self.workdir = workdir
        self.auts = AutCache()
        self.variants = [self._write_variant(v) for v in range(VARIANTS)]
        self.fixed = self._fixed_cases()
        self.sweeps = self._sweep_ops()
        self.invariance = self._invariance_data()
        rng.shuffle(self.invariance)
        if tiny:
            self.invariance = self.invariance[:rounds]

    # --- files --------------------------------------------------------------------

    def _write(self, name: str, payload) -> str:
        p = os.path.join(self.workdir, name)
        with open(p, "w") as fh:
            json.dump(payload, fh)
        return p

    def _voltage_json(self, base, fiber, phi) -> dict:
        fvs = fiber[0]
        return {
            "base": _graph_json(base),
            "fiber": _graph_json(fiber),
            "phi": {f"{a},{b}": [fvs[i] for i in perm] for (a, b), perm in phi.items()},
        }

    def _write_variant(self, v: int) -> list[tuple[list[str], object, str]]:
        """File-input CLI cases for one variant: (argv, check, kind)."""
        rng = self.rng
        cases = []

        def w(name: str, payload) -> str:
            return self._write(f"{name}-{v}.json", payload)

        k = rng.randint(5, 16)
        cases.append((["spectrum", "--graph", w("ring", _graph_json(cycle(k))), "--json"],
                      _json_check(0, eigenvalues=lambda got: oracles.spectra_close(got, oracles.cycle_spectrum(k), 1e-6)),
                      "spectrum-file"))

        g1 = cycle(rng.randint(3, 7), "a") if rng.random() < 0.5 else path(rng.randint(2, 7), "a")
        g2 = cycle(rng.randint(3, 7), "b") if rng.random() < 0.5 else path(rng.randint(2, 7), "b")
        n1, e1, n2, e2 = len(g1[0]), len(g1[1]), len(g2[0]), len(g2[1])
        box_edges = n1 * e2 + n2 * e1
        f1, f2 = w("g1", _graph_json(g1)), w("g2", _graph_json(g2))
        for op, edges in (("cartesian", box_edges), ("strong", box_edges + 2 * e1 * e2)):
            out = os.path.join(self.workdir, f"prod-{op}-{v}.json")
            cases.append((["product", "--op", op, "--g1", f1, "--g2", f2, "--out", out, "--json"],
                          _json_check(0, vertices=n1 * n2, edges=edges), "product-file"))

        n = rng.randint(3, 8)
        fname = rng.choice(("K2", "C4", "P3"))
        fiber, auts = FIBERS[fname], self.auts.of(FIBERS[fname])
        base = cycle(n)
        phi = {e: rng.choice(auts) for e in base[1]}
        m, fe = len(fiber[0]), len(fiber[1])
        trivial = oracles.holonomy(base[0], phi) == oracles.identity(m)
        vfile = w("voltage", self._voltage_json(base, fiber, phi))
        cases.append((["bundle-build", "--voltage", vfile, "--json"],
                      _json_check(0, total_vertices=n * m, total_edges=n * fe + n * m,
                                  formula_matches_construction=True, trivial=trivial),
                      "bundle-build-file"))

        total_vs = [f"({x},{f})" for x in base[0] for f in fiber[0]]
        edges = oracles.voltage_total_edges(
            n, [(i, (i + 1) % n) for i in range(n)], oracles.index_graph(*fiber), [phi[e] for e in base[1]]
        )
        total = (total_vs, [tuple(total_vs[i] for i in sorted(e)) for e in edges])
        proj = {"map": {f"({x},{f})": x for x in base[0] for f in fiber[0]}}
        cases.append((["bundle-verify", "--total", w("total", _graph_json(total)), "--proj", w("proj", proj),
                       "--fiber", w("fiber", _graph_json(fiber)), "--json"],
                      _json_check(0, valid=True, base_vertices=n, fiber_vertices=m, total_vertices=n * m),
                      "bundle-verify-file"))

        domain = cycle(2 * n, "u")
        morphism = {"map": {f"u{i}": f"v{i % n}" for i in range(2 * n)}}
        cases.append((["pullback", "--voltage", vfile, "--morphism", w("cover", morphism),
                       "--domain", w("domain", _graph_json(domain)), "--json"],
                      _json_check(0, total_vertices=2 * n * m, formula_matches_construction=True,
                                  typed_edges=lambda t: (t["I"], t["II"], t["III"]) == (2 * n * fe, 0, 2 * n * m)),
                      "pullback-file"))

        fname2 = rng.choice(("K2", "K3", "P3"))
        fiber2, auts2 = FIBERS[fname2], self.auts.of(FIBERS[fname2])
        phi2 = {e: rng.choice(auts2) for e in base[1]}
        m2, fe2 = len(fiber2[0]), len(fiber2[1])
        cases.append((["subdirect", "--v1", vfile, "--v2", w("voltage2", self._voltage_json(base, fiber2, phi2)), "--json"],
                      _json_check(0, total_vertices=n * m * m2, total_edges=n * (fe * m2 + m * fe2) + n * m * m2,
                                  fiber_vertices=m * m2, formula_matches_construction=True),
                      "subdirect-file"))

        # Bases the seed enumerates in at most about 0.2 s at n_max = 2.
        kbase = rng.choice([cycle(3, "b"), path(rng.randint(2, 5), "b"), star(3)])
        k2_groups = [oracles.automorphisms(*oracles.box_power(oracles.index_graph(*FIBERS["K2"]), p)) for p in range(3)]
        beta = oracles.cycle_rank(len(kbase[0]), len(kbase[1]))
        counts = [oracles.burnside_classes(g, beta) for g in k2_groups]
        cases.append((["ktheory", "--base", w("kbase", _graph_json(kbase)), "--fiber", w("k2", _graph_json(FIBERS["K2"])),
                       "--n-max", "2", "--json"],
                      _json_check(0, class_counts=counts), "ktheory-file"))

        a, b, c = rng.choice(((4, 6, 2), (6, 6, 3), (6, 4, 2), (6, 3, 3), (4, 4, 2), (2, 6, 2)))
        files = []
        for mod in (a, b, c):
            elems, table = _group_data((mod,))
            files.append(w(f"z{mod}", {"elements": elems, "table": [[table[(x, y)] for y in elems] for x in elems]}))
        eps = [w(f"eps{i}", {"map": {str(x): str(x % c) for x in range(mod)}}) for i, mod in enumerate((a, b))]
        cases.append((["subdirect-group", "--group-a", files[0], "--group-b", files[1], "--group-c", files[2],
                       "--eps-a", eps[0], "--eps-b", eps[1], "--json"],
                      _json_check(0, order=a * b // c, amalgam_order=c, kernel_delta_a=b // c, kernel_delta_b=a // c),
                      "subdirect-group-file"))
        return cases

    def _fixed_cases(self) -> list[tuple[list[str], object, str, object]]:
        """README verbs on the named cases, error inputs, and the two inputs
        that crash the seed: (argv, check, kind, expected-failure case)."""
        w = self._write
        m3 = _graph_json(([str(i) for i in range(1, 7)],
                          [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("6", "1"),
                           ("1", "4"), ("2", "5"), ("3", "6")]))
        m3_file, k2_file = w("m3.json", m3), w("k2.json", {"vertices": ["1", "2"], "edges": [["1", "2"]]})
        q_file = w("q.json", {"map": {str(x): str(x % 3 + 1) for x in range(1, 7)}})
        c6_file = w("c6.json", _graph_json(cycle(6, "")))
        c6_proj = w("c6-proj.json", {"map": {str(x): str(x % 3) for x in range(6)}})
        loop_file = w("loop.json", {"vertices": ["1", "2"], "edges": [["1", "1"]]})
        z6, z6_table = _group_data((6,))
        z6_file = w("z6.json", {"elements": z6, "table": [[z6_table[(x, y)] for y in z6] for x in z6]})
        short_file = w("short-row.json", {"elements": ["0", "1", "2"], "table": [["0", "1", "2"], ["1", "2"], ["2", "0", "1"]]})
        partial_file = w("partial-proj.json", {"map": {"1": "1", "2": "2"}})
        dot_out = os.path.join(self.workdir, "m62.dot")

        def dot_file_ok(result) -> bool:
            if not _json_check(0, vertices=12, edges=18)(result):
                return False
            with open(dot_out) as fh:
                return sum(" -- " in line for line in fh) == 18

        k2_groups = [oracles.automorphisms(*oracles.box_power(oracles.index_graph(*FIBERS["K2"]), p)) for p in range(3)]
        return [
            (["spectrum", "--case", "k3", "--json"],
             _json_check(0, eigenvalues=lambda got: oracles.spectra_close(got, oracles.complete_spectrum(3), 1e-6)),
             "spectrum", None),
            (["bundle-build", "--case", "m3", "--json"],
             _json_check(0, total_vertices=6, total_edges=9, formula_matches_construction=True, trivial=False),
             "bundle-build", None),
            (["bundle-build", "--case", "prism", "--json"],
             _json_check(0, total_vertices=6, total_edges=9, formula_matches_construction=True, trivial=True),
             "bundle-build", None),
            (["bundle-verify", "--case", "m3", "--json"],
             _json_check(0, valid=True, base_vertices=3, fiber_vertices=2, total_vertices=6), "bundle-verify", None),
            (["bundle-verify", "--case", "m62", "--json"],
             _json_check(0, valid=True, base_vertices=6, fiber_vertices=2, total_vertices=12), "bundle-verify", None),
            (["bundle-verify", "--case", "prism", "--json"],
             _json_check(0, valid=True, base_vertices=6, fiber_vertices=2, total_vertices=12), "bundle-verify", None),
            (["bundle-verify", "--case", "c6-c3-covering", "--json"],
             _json_check(0, valid=True, base_vertices=3, fiber_vertices=2, total_vertices=6), "bundle-verify", None),
            (["bundle-verify", "--total", m3_file, "--proj", q_file, "--fiber", k2_file, "--json"],
             _json_check(0, valid=True, base_vertices=3, fiber_vertices=2, total_vertices=6), "bundle-verify-file", None),
            (["bundle-verify", "--total", c6_file, "--proj", c6_proj, "--fiber", k2_file, "--json"],
             _json_check(1, valid=False), "non-bundle", None),
            (["pullback", "--case", "c6-m3", "--json"],
             _json_check(0, total_vertices=12, formula_matches_construction=True,
                         typed_edges=lambda t: (t["I"], t["II"], t["III"]) == (6, 0, 12)),
             "pullback", None),
            (["subdirect", "--case", "prism-m3", "--json"],
             _json_check(0, total_vertices=12, total_edges=24, fiber_vertices=4, formula_matches_construction=True),
             "subdirect", None),
            (["subdirect", "--case", "mixed-m3-c6k2", "--json"],
             _json_check(0, vertices=24, edges=48, base_mismatch=True, matches_reference_figure=True),
             "mixed-base", None),
            (["cayley", "--case", "z4-c4", "--json"], _json_check(0, vertices=4, edges=4), "cayley", None),
            (["cayley", "--case", "z4-k4", "--json"], _json_check(0, vertices=4, edges=6), "cayley", None),
            (["cayley", "--case", "z6-m3", "--json"], _json_check(0, vertices=6, edges=9), "cayley", None),
            (["cayley", "--group", z6_file, "--gens", "1,3", "--json"],
             _json_check(0, vertices=6, edges=9, symmetrized_added=["5"]), "cayley-file", None),
            (["subdirect-group", "--case", "z2z3-z6", "--json"],
             _json_check(0, order=12, amalgam_order=3, kernel_delta_a=2, kernel_delta_b=2), "subdirect-group", None),
            (["ktheory", "--case", "c3-k2", "--n-max", "2", "--json"],
             _json_check(0, class_counts=[oracles.burnside_classes(g, 1) for g in k2_groups]), "ktheory", None),
            (["ktheory", "--case", "p3-k2", "--n-max", "2", "--json"],
             _json_check(0, class_counts=[1, 1, 1]), "ktheory", None),
            (["invariance-check", "--case", "z2z3-z6", "--json"], _json_check(0, holds=True), "invariance-check", None),
            (["export", "--case", "m62", "--format", "dot", "--out", dot_out, "--json"], dot_file_ok, "export", None),
            (["spectrum", "--graph", loop_file], _code_check(2), "error-loop-edge", None),
            (["spectrum", "--case", "nope"], _code_check(2), "error-unknown-case", None),
            (["--budget", "1", "bundle-verify", "--case", "m62"], _code_check(3), "error-budget", None),
            (["cayley", "--group", short_file, "--gens", "1"], _code_check(2), "crash-short-row", CRASH_SHORT_ROW),
            (["bundle-verify", "--total", m3_file, "--proj", partial_file, "--fiber", k2_file], _code_check(2),
             "crash-partial-proj", CRASH_PARTIAL_PROJ),
        ]

    # --- library sweeps -------------------------------------------------------------

    def _sweep_ops(self) -> list[Op]:
        ops = []
        for (an, am), (bn, bm) in itertools.product(GROUP_FAMILY.items(), repeat=2):
            order_a, order_b = len(oracles.abelian_elements(am)), len(oracles.abelian_elements(bm))
            if order_a % order_b:
                continue
            ops.append(self._sweep_op(am, bm, order_a, order_b))
        return ops

    def _sweep_op(self, am, bm, order_a: int, order_b: int) -> Op:
        a_data, b_data = _group_data(am), _group_data(bm)
        want_homs = oracles.surjection_count(am, bm)

        def run():
            a, b = bf.make_group(*a_data), bf.make_group(*b_data)
            homs = bf.surjective_homs(a, b)
            shapes = []
            for phi in homs:
                for s0 in bf.admissible_generating_sets(bf.kernel(phi), a):
                    for s1 in bf.symmetric_generating_sets(b):
                        try:
                            section = bf.transversal_section(phi, s1)
                        except bf.errors.NoTransversalSection:
                            continue
                        bundle = bf.cayley_bundle(phi, s1, s0, section)
                        shapes.append((bundle.total.n, len(bundle.total.edges), bundle.fiber.n,
                                       bundle.base.n, len(s0), len(s1)))
            return len(homs), shapes

        def check(result) -> bool:
            count, shapes = result
            # A Cayley graph on a symmetric set S has |G||S|/2 edges; the
            # induced set is the kernel set plus one lift per base generator.
            return count == want_homs and all(
                (n, e, f, b) == (order_a, order_a * (s0 + s1) // 2, order_a // order_b, order_b)
                for n, e, f, b, s0, s1 in shapes
            )

        return Op("cayley-sweep", run, check)

    def _invariance_data(self) -> list[dict]:
        """The 144 invariance pairs of the paper's sweep, as plain data:
        group tables, homomorphism maps, generator sets and sections."""
        family = {name: _group_data(m) for name, m in GROUP_FAMILY.items()}
        groups = {name: bf.make_group(*data) for name, data in family.items()}
        out = []
        for bname, b in groups.items():
            s1_options = bf.symmetric_generating_sets(b)
            if not s1_options:
                continue
            s1 = s1_options[0]
            usable = []
            for aname, a in groups.items():
                for phi in bf.surjective_homs(a, b):
                    try:
                        section = bf.transversal_section(phi, s1)
                    except bf.errors.NoTransversalSection:
                        continue
                    s0 = bf.admissible_generating_sets(bf.kernel(phi), a)[0]
                    usable.append((aname, dict(phi.mapping), list(s0.members), section))
            for left, right in itertools.product(usable, repeat=2):
                out.append({"b": bname, "s1": list(s1.members), "left": left, "right": right,
                            "tables": family})
        return out

    def _invariance_op(self, item: dict) -> Op:
        def run():
            tables = item["tables"]
            b = bf.make_group(*tables[item["b"]])
            s1 = bf.generator_system(b, item["s1"])
            parts = []
            for aname, mapping, s0, section in (item["left"], item["right"]):
                phi = bf.hom(bf.make_group(*tables[aname]), b, mapping)
                parts.append((phi, bf.generator_system(bf.kernel(phi), s0), section))
            (h1, s01, sec1), (h2, s02, sec2) = parts
            return bf.verify_invariance(h1, h2, s1, s01, s02, sec1, sec2)

        # The invariance theorem: the identity holds for every pair.
        return Op("invariance", run, lambda verdict: verdict is True)

    # --- rounds -----------------------------------------------------------------------

    def round(self, index: int) -> list[Op]:
        ops = [Op(kind, lambda a=argv: run_cli(a), check, case) for argv, check, kind, case in self.fixed]
        for argv, check, kind in self.variants[index % VARIANTS]:
            ops.append(Op(kind, lambda a=argv: run_cli(a), check))
        ops.extend(self.sweeps)
        total = len(self.invariance)
        for item in self.invariance[index * total // self.rounds:(index + 1) * total // self.rounds]:
            ops.append(self._invariance_op(item))
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return self.round(0)[:8]
