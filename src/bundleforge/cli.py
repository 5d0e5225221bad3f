"""Command-line interface.

Exit codes: 0 success or true verdict, 1 false verdict (invalid bundle,
failed equivalence, failed invariance), 2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import graphs as graphs_mod
from .bundles import (
    FiberVoltage,
    bundle_adjacency,
    is_trivial,
    verify_bundle,
    voltage_bundle,
)
from .errors import (
    BundleForgeError,
    EnumerationBoundExceeded,
    ParseError,
    SearchBudgetExceeded,
)
from .graphs import Graph, Label, canon_label, find_isomorphism, make_morphism
from .groups import (
    FiniteGroup,
    cayley_graph,
    generator_system,
    kernel,
    subdirect_group,
    symmetric_closure,
    verify_invariance,
)
from .ktheory import enumerate_bundle_classes
from .matrices import adjacency_matrix, graph_spectrum
from .named import (
    CAYLEY_CASES,
    c6_c3_covering_bundle,
    c6k2_bundle,
    invariance_case_z2z3_z6,
    m3_bundle,
    m62_bundle,
    mixed_base_figure_24,
    mod3_projection,
    named_graph,
    prism_voltage,
    twisted_ladder_voltage,
)
from .products import cartesian_product, strong_product
from .pullback import (
    mixed_base_subdirect,
    pullback_adjacency,
    pullback_bundle,
    pullback_voltage,
    subdirect_adjacency,
    subdirect_product,
    typed_edge_counts,
    typed_edges_json,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc


def _load_map(path: str) -> tuple[dict[Label, Label], dict]:
    """Read a JSON object whose "map" is an object of labels; returns the
    map, with its labels canonicalized, and the whole object."""
    data = _load_json(path)
    raw = data.get("map") if isinstance(data, dict) else None
    if not isinstance(raw, dict):
        raise ParseError(f"{path} needs a 'map' object")
    return {canon_label(k): canon_label(v) for k, v in raw.items()}, data


def _load_graph(path: Optional[str], case: Optional[str]) -> Graph:
    if case:
        return named_graph(case)
    if not path:
        raise ParseError("a graph file or --case is required")
    return Graph.from_json(_load_json(path))


def _emit(report: dict, args: argparse.Namespace, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _write_out(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)


def cmd_product(args) -> int:
    g1 = _load_graph(args.g1, None)
    g2 = _load_graph(args.g2, None)
    result = cartesian_product(g1, g2) if args.op == "cartesian" else strong_product(g1, g2)
    report = {
        "verb": "product",
        "op": args.op,
        "vertices": result.n,
        "edges": len(result.edges),
        "graph": result.to_json(),
    }
    _emit(report, args, [f"{args.op} product: {result.n} vertices, {len(result.edges)} edges"])
    _write_out(args, json.dumps(result.to_json(), indent=2))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph, args.case)
    eig = graph_spectrum(g)
    grouped: list[list] = []
    for x in eig.eigenvalues:
        if grouped and abs(grouped[-1][0] - x) <= args.tolerance:
            grouped[-1][1] += 1
        else:
            grouped.append([x, 1])
    report = {
        "verb": "spectrum",
        "eigenvalues": [round(x, 9) for x in eig.eigenvalues],
        "multiplicities": [[round(v, 9), m] for v, m in grouped],
    }
    _emit(report, args, [str(eig)])
    return EXIT_OK


def _voltage_from_args(args) -> FiberVoltage:
    if args.case == "m3":
        return twisted_ladder_voltage()
    if args.case == "prism":
        return prism_voltage()
    if args.case:
        raise ParseError(f"unknown voltage case {args.case!r}; choices: m3, prism")
    if not args.voltage:
        raise ParseError("a voltage file or --case is required")
    return FiberVoltage.from_json(_load_json(args.voltage))


def cmd_bundle_build(args) -> int:
    fv = _voltage_from_args(args)
    b = voltage_bundle(fv)
    formula = bundle_adjacency(fv)
    direct = adjacency_matrix(b.total)
    report = {
        "verb": "bundle-build",
        "total_vertices": b.total.n,
        "total_edges": len(b.total.edges),
        "formula_matches_construction": formula == direct,
        "trivial": is_trivial(b),
        "graph": b.total.to_json(),
    }
    _emit(
        report,
        args,
        [
            f"total space: {b.total.n} vertices, {len(b.total.edges)} edges",
            f"adjacency formula matches construction: {report['formula_matches_construction']}",
            f"trivial: {report['trivial']}",
        ],
    )
    _write_out(args, json.dumps(b.total.to_json(), indent=2))
    return EXIT_OK if report["formula_matches_construction"] else EXIT_FALSE


def cmd_bundle_verify(args) -> int:
    if args.case:
        builders = {
            "m3": m3_bundle,
            "m62": m62_bundle,
            "prism": c6k2_bundle,
            "c6-c3-covering": c6_c3_covering_bundle,
        }
        if args.case not in builders:
            raise ParseError(f"unknown bundle case {args.case!r}; choices: {sorted(builders)}")
        try:
            b = builders[args.case]()
        except (SearchBudgetExceeded, EnumerationBoundExceeded):
            raise
        except BundleForgeError as exc:
            _emit({"verb": "bundle-verify", "valid": False, "reason": str(exc)}, args, [f"invalid: {exc}"])
            return EXIT_FALSE
    else:
        total = _load_graph(args.total, None)
        fiber_graph = _load_graph(args.fiber, None)
        mapping, proj_data = _load_map(args.proj)
        if args.base:
            base = _load_graph(args.base, None)
        elif "base" in proj_data:
            base = Graph.from_json(proj_data["base"])
        else:
            # Infer the base as the image graph of a surjective projection.
            missing = [v for v in total.vertices if v not in mapping]
            if missing:
                raise ParseError(f"projection map undefined on total vertices {missing}")
            base_vs, seen = [], set()
            for v in total.vertices:
                w = mapping[v]
                if w not in seen:
                    base_vs.append(w)
                    seen.add(w)
            base_es = {
                (mapping[a], mapping[b])
                for a, b in total.edge_list()
                if mapping[a] != mapping[b]
            }
            base = graphs_mod.make_graph(base_vs, base_es)
        p = make_morphism(total, base, mapping)
        try:
            b = verify_bundle(total, p, fiber_graph)
        except (SearchBudgetExceeded, EnumerationBoundExceeded):
            raise
        except BundleForgeError as exc:
            _emit({"verb": "bundle-verify", "valid": False, "reason": str(exc)}, args, [f"invalid: {exc}"])
            return EXIT_FALSE
    report = {
        "verb": "bundle-verify",
        "valid": True,
        "base_vertices": b.base.n,
        "fiber_vertices": b.fiber.n,
        "total_vertices": b.total.n,
    }
    _emit(
        report,
        args,
        [f"valid bundle: {b.fiber.n}-vertex fiber over {b.base.n}-vertex base, total {b.total.n}"],
    )
    return EXIT_OK


def cmd_pullback(args) -> int:
    if args.case:
        if args.case != "c6-m3":
            raise ParseError(f"unknown pullback case {args.case!r}; choices: c6-m3")
        fv = twisted_ladder_voltage()
        f = mod3_projection(named_graph("c6"))
    else:
        if not (args.voltage and args.morphism and args.domain):
            raise ParseError("pullback needs --voltage, --morphism, and --domain (or --case)")
        fv = FiberVoltage.from_json(_load_json(args.voltage))
        domain = _load_graph(args.domain, None)
        f = make_morphism(domain, fv.base, _load_map(args.morphism)[0])
    pulled = pullback_voltage(f, fv)
    pb = pullback_bundle(f, voltage_bundle(fv))
    formula = pullback_adjacency(f, fv)
    direct = adjacency_matrix(pb.total)
    counts = typed_edge_counts(pb.typed_edges)
    report = {
        "verb": "pullback",
        "typed_edges": typed_edges_json(pb.typed_edges),
        "total_vertices": pb.total.n,
        "formula_matches_construction": formula == direct,
        "pulled_voltage": pulled.to_json()["phi"],
    }
    _emit(
        report,
        args,
        [
            f"pullback total: {pb.total.n} vertices",
            f"typed edges: I={counts['I']} II={counts['II']} III={counts['III']}",
            f"adjacency formula matches construction: {report['formula_matches_construction']}",
        ],
    )
    return EXIT_OK if report["formula_matches_construction"] else EXIT_FALSE


def cmd_subdirect(args) -> int:
    if args.case == "mixed-m3-c6k2":
        b1, b2 = m3_bundle(), c6k2_bundle()
        link = mod3_projection(named_graph("c6"))
        mixed = mixed_base_subdirect(b1, b2, link)
        counts = typed_edge_counts(mixed.typed_edges)
        matches = find_isomorphism(mixed.graph, mixed_base_figure_24()) is not None
        report = {
            "verb": "subdirect",
            "case": args.case,
            "base_mismatch": mixed.base_mismatch,
            "vertices": mixed.graph.n,
            "edges": len(mixed.graph.edges),
            "typed_edges": typed_edges_json(mixed.typed_edges),
            "matches_reference_figure": matches,
        }
        _emit(
            report,
            args,
            [
                "warning: factors live over different bases; result is a plain graph, not a bundle",
                f"diagnostic product: {mixed.graph.n} vertices, {len(mixed.graph.edges)} edges",
                f"matches reference figure: {matches}",
            ],
        )
        return EXIT_OK if matches else EXIT_FALSE
    if args.case == "prism-m3":
        fv1, fv2 = prism_voltage(), twisted_ladder_voltage()
    elif args.case:
        raise ParseError(f"unknown subdirect case {args.case!r}; choices: prism-m3, mixed-m3-c6k2")
    else:
        if not (args.v1 and args.v2):
            raise ParseError("subdirect needs --v1 and --v2 voltage files (or --case)")
        fv1 = FiberVoltage.from_json(_load_json(args.v1))
        fv2 = FiberVoltage.from_json(_load_json(args.v2))
    sp = subdirect_product(voltage_bundle(fv1), voltage_bundle(fv2))
    formula = subdirect_adjacency(fv1, fv2)
    direct = adjacency_matrix(sp.total)
    counts = typed_edge_counts(sp.typed_edges)
    report = {
        "verb": "subdirect",
        "total_vertices": sp.total.n,
        "total_edges": len(sp.total.edges),
        "typed_edges": typed_edges_json(sp.typed_edges),
        "fiber_vertices": sp.fiber.n,
        "formula_matches_construction": formula == direct,
    }
    _emit(
        report,
        args,
        [
            f"subdirect total: {sp.total.n} vertices, {len(sp.total.edges)} edges",
            f"typed edges: I={counts['I']} II={counts['II']} III={counts['III']}",
            f"adjacency formula matches construction: {report['formula_matches_construction']}",
        ],
    )
    _write_out(args, json.dumps(sp.total.to_json(), indent=2))
    return EXIT_OK if report["formula_matches_construction"] else EXIT_FALSE


def cmd_cayley(args) -> int:
    if args.case:
        if args.case not in CAYLEY_CASES:
            raise ParseError(f"unknown cayley case {args.case!r}; choices: {sorted(CAYLEY_CASES)}")
        builder, gens = CAYLEY_CASES[args.case]
        group = builder()
    else:
        if not (args.group and args.gens):
            raise ParseError("cayley needs --group and --gens (or --case)")
        group = FiniteGroup.from_json(_load_json(args.group))
        gens = [s.strip() for s in args.gens.split(",") if s.strip()]
    closed, added = symmetric_closure(group, gens)
    s = generator_system(group, closed)
    g = cayley_graph(group, s)
    report = {
        "verb": "cayley",
        "group_order": group.order,
        "generators": list(s.members),
        "symmetrized_added": list(added),
        "vertices": g.n,
        "edges": len(g.edges),
        "graph": g.to_json(),
    }
    lines = [f"Cayley graph: {g.n} vertices, {len(g.edges)} edges"]
    if added:
        lines.insert(0, f"note: generating set symmetrized, added {list(added)}")
    _emit(report, args, lines)
    _write_out(args, json.dumps(g.to_json(), indent=2))
    return EXIT_OK


def cmd_subdirect_group(args) -> int:
    if args.case:
        if args.case != "z2z3-z6":
            raise ParseError(f"unknown group case {args.case!r}; choices: z2z3-z6")
        data = invariance_case_z2z3_z6()
        sd = subdirect_group(data["phi1"], data["phi2"])
    else:
        if not (args.group_a and args.group_b and args.group_c and args.eps_a and args.eps_b):
            raise ParseError("subdirect-group needs the two groups, the amalgam, and both maps")
        from .groups import hom as make_hom

        a = FiniteGroup.from_json(_load_json(args.group_a))
        b = FiniteGroup.from_json(_load_json(args.group_b))
        c = FiniteGroup.from_json(_load_json(args.group_c))
        eps_a = make_hom(a, c, _load_map(args.eps_a)[0])
        eps_b = make_hom(b, c, _load_map(args.eps_b)[0])
        sd = subdirect_group(eps_a, eps_b)
    report = {
        "verb": "subdirect-group",
        "order": sd.E.order,
        "amalgam_order": sd.amalgam.order,
        "kernel_delta_a": kernel(sd.delta_A).order,
        "kernel_delta_b": kernel(sd.delta_B).order,
    }
    _emit(
        report,
        args,
        [f"subdirect product group of order {sd.E.order} over amalgam of order {sd.amalgam.order}"],
    )
    return EXIT_OK


def cmd_ktheory(args) -> int:
    if args.case:
        cases = {"c3-k2": ("c3", "k2"), "p3-k2": ("p3", "k2")}
        if args.case not in cases:
            raise ParseError(f"unknown ktheory case {args.case!r}; choices: {sorted(cases)}")
        base = named_graph(cases[args.case][0])
        fiber_graph = named_graph(cases[args.case][1])
    else:
        base = _load_graph(args.base, None)
        fiber_graph = _load_graph(args.fiber, None)
    monoid = enumerate_bundle_classes(base, fiber_graph, args.n_max)
    rows = []
    for n in range(args.n_max + 1):
        for c in monoid.classes_at(n):
            digest = ";".join(
                ",".join(map(str, images)) for images in c.representative.serialized()
            )
            rows.append({"n": n, "class_id": c.class_id, "voltage": digest})
    add_table = {f"{i},{j}": v for (i, j), v in monoid.add_table.items()}
    report = {
        "verb": "ktheory",
        "n_max": args.n_max,
        "class_counts": [len(monoid.classes_at(n)) for n in range(args.n_max + 1)],
        "classes": rows,
        "add_table": add_table,
    }
    lines = [f"n={n}: {len(monoid.classes_at(n))} classes" for n in range(args.n_max + 1)]
    _emit(report, args, lines)
    _write_out(args, json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_invariance_check(args) -> int:
    if args.case != "z2z3-z6":
        raise ParseError(f"unknown invariance case {args.case!r}; choices: z2z3-z6")
    data = invariance_case_z2z3_z6()
    verdict = verify_invariance(
        data["phi1"], data["phi2"], data["s1"], data["s01"], data["s02"]
    )
    report = {"verb": "invariance-check", "case": args.case, "holds": verdict}
    _emit(report, args, [f"invariance holds: {verdict}"])
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_export(args) -> int:
    g = _load_graph(args.graph, args.case)
    text = g.to_dot() if args.format == "dot" else json.dumps(g.to_json(), indent=2)
    report = {"verb": "export", "format": args.format, "vertices": g.n, "edges": len(g.edges)}
    if args.out:
        _write_out(args, text)
        _emit(report, args, [f"wrote {args.format} to {args.out}"])
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundleforge",
        description="Graph bundles: products, pullbacks, subdirect products, "
        "spectra, bundle classes, and Cayley constructions.",
    )
    parser.add_argument("--budget", type=int, default=None, help="isomorphism search node budget")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, out=True):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if out:
            p.add_argument("--out", help="write the main artifact to this path")

    p = sub.add_parser("product", help="cartesian or strong product of two graphs")
    p.add_argument("--op", choices=["cartesian", "strong"], default="cartesian")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("spectrum", help="adjacency eigenvalues of a graph")
    p.add_argument("--graph")
    p.add_argument("--case")
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p, out=False)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bundle-build", help="build a total space from a voltage")
    p.add_argument("--voltage")
    p.add_argument("--case")
    common(p)
    p.set_defaults(func=cmd_bundle_build)

    p = sub.add_parser("bundle-verify", help="verify a bundle structure")
    p.add_argument("--total")
    p.add_argument("--proj")
    p.add_argument("--fiber")
    p.add_argument("--base")
    p.add_argument("--case")
    common(p, out=False)
    p.set_defaults(func=cmd_bundle_verify)

    p = sub.add_parser("pullback", help="pull a voltage bundle back along a morphism")
    p.add_argument("--voltage")
    p.add_argument("--morphism")
    p.add_argument("--domain")
    p.add_argument("--case")
    common(p, out=False)
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("subdirect", help="subdirect product of two voltage bundles")
    p.add_argument("--v1")
    p.add_argument("--v2")
    p.add_argument("--case")
    common(p)
    p.set_defaults(func=cmd_subdirect)

    p = sub.add_parser("cayley", help="Cayley graph of a finite group")
    p.add_argument("--group")
    p.add_argument("--gens")
    p.add_argument("--case")
    common(p)
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("subdirect-group", help="subdirect product of two group epimorphisms")
    p.add_argument("--group-a")
    p.add_argument("--group-b")
    p.add_argument("--group-c")
    p.add_argument("--eps-a")
    p.add_argument("--eps-b")
    p.add_argument("--case")
    common(p, out=False)
    p.set_defaults(func=cmd_subdirect_group)

    p = sub.add_parser("ktheory", help="enumerate bundle classes over a base")
    p.add_argument("--base")
    p.add_argument("--fiber")
    p.add_argument("--case")
    p.add_argument("--n-max", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_ktheory)

    p = sub.add_parser("invariance-check", help="Cayley subdirect invariance on a named case")
    p.add_argument("--case", required=True)
    common(p, out=False)
    p.set_defaults(func=cmd_invariance_check)

    p = sub.add_parser("export", help="export a graph as DOT or JSON")
    p.add_argument("--graph")
    p.add_argument("--case")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    common(p)
    p.set_defaults(func=cmd_export)

    return parser


def _apply_limits(args) -> None:
    """Validate the node budget and --n-max, then install the budget for
    this run; main puts the previous budget back when the verb returns.

    Raises ParseError for a negative value or a non-integer environment
    budget.
    """
    budget, source = args.budget, "--budget"
    env = os.environ.get("BUNDLEFORGE_BUDGET")
    if budget is None and env:
        source = "BUNDLEFORGE_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise ParseError(f"bad BUNDLEFORGE_BUDGET: {env!r}") from None
    if budget is not None and budget < 0:
        raise ParseError(f"{source} must not be negative, got {budget}")
    if getattr(args, "n_max", 0) < 0:
        raise ParseError(f"--n-max must not be negative, got {args.n_max}")
    if budget is not None:
        graphs_mod.DEFAULT_NODE_BUDGET = budget


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved_budget = graphs_mod.DEFAULT_NODE_BUDGET
    try:
        _apply_limits(args)
        return args.func(args)
    except (SearchBudgetExceeded, EnumerationBoundExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BundleForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        graphs_mod.DEFAULT_NODE_BUDGET = saved_budget


if __name__ == "__main__":
    sys.exit(main())
