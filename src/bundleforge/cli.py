"""Command-line interface.

Exit codes: 0 success or true verdict, 1 false verdict (invalid bundle,
failed equivalence, failed invariance), 2 input error, 3 budget exceeded,
4 internal error (an unexpected exception, reported without a traceback).

Every verb has one input path.  A named case (--case) is one lookup in
named.CASES, in any letter case, which builds the objects the verb's files
would give, and the verb then runs the same code for a case as for files;
an input option given with --case is an input error that names it.
--budget is the one setting of the node budget.  A verb run without --case
needs each of its input options; a missing one is an input error of one
form, "<verb> needs <options> (or --case)".

Each verb returns an Outcome and prints, writes and exits nothing itself:
main writes the artifact to --out before anything prints, then prints the
report (--json) or the text lines, and exits 0 or 1 on the verdict.

Only the verbs that print a formula check or a spectrum (spectrum,
bundle-build, pullback and subdirect on voltages) import the matrix layer,
and with it numpy; every other verb runs without it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple, Optional

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
from .graphs import Graph, Label, canon_label, find_isomorphism, make_morphism, split_top
from .groups import (
    FiniteGroup,
    cayley_graph,
    generator_system,
    hom,
    kernel,
    subdirect_group,
    symmetric_closure,
    verify_invariance,
)
from .ktheory import enumerate_bundle_classes
from .named import CASES, mixed_base_figure_24
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
EXIT_INTERNAL = 4


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc


def _load_map(path: str, domain: Graph | FiniteGroup) -> tuple[dict[Label, Label], dict]:
    """Read a JSON object whose "map" is an object of labels; returns the
    map, with its labels canonicalized, and the whole object.  A key that
    is not a vertex or element of the domain is refused, where
    make_morphism and hom would drop it."""
    data = _load_json(path)
    raw = data.get("map") if isinstance(data, dict) else None
    if not isinstance(raw, dict):
        raise ParseError(f"{path} needs a 'map' object")
    mapping = {canon_label(k): canon_label(v) for k, v in raw.items()}
    stray = [k for k in mapping if k not in domain.index]
    if stray:
        raise ParseError(f"{path} maps labels that are not in its domain: {stray}")
    return mapping, data


def _load_graph(path: str) -> Graph:
    return Graph.from_json(_load_json(path))


def _option(args: argparse.Namespace, option: str):
    """The value of an option, by its command-line name."""
    return getattr(args, option[2:].replace("-", "_"))


def _given(args: argparse.Namespace, *options: str) -> list[str]:
    """The values of the input options a verb reads when run without
    --case; one not given (None: "" is a value) is an input error naming it."""
    values = [_option(args, option) for option in options]
    missing = [option for option, value in zip(options, values) if value is None]
    if missing:
        raise ParseError(f"{args.verb} needs {', '.join(missing)} (or --case)")
    return values


def _case(args: argparse.Namespace, *options: str):
    """The inputs of the named case args.case of args.verb: the objects the
    verb would otherwise read from its input options, in any letter case.
    One of those options given too is an input error that names it."""
    given = [option for option in options if _option(args, option) is not None]
    if given:
        raise ParseError(f"{args.verb} --case gives every input; drop {', '.join(given)}")
    cases, name = CASES[args.verb], args.case.lower()
    if name not in cases:
        raise ParseError(f"unknown {args.verb} case {args.case!r}; choices: {sorted(cases)}")
    return cases[name]()


def _formula_matches(formula, total: Graph) -> bool:
    """A closed adjacency formula against the adjacency matrix of the
    constructed total space; the matrix layer loads here, on first use."""
    from .matrices import adjacency_matrix

    return formula == adjacency_matrix(total)


class Outcome(NamedTuple):
    """What a verb found: its --json report, its text lines, whether its
    verdict holds (exit 0, else 1), and the artifact --out writes, rendered
    only when --out is given.  A report of None makes the artifact itself
    the output (export without --out)."""

    report: Optional[dict]
    lines: list[str]
    holds: bool = True
    artifact: Optional[str] = None


def _artifact(args, doc, sort_keys: bool = False) -> Optional[str]:
    """doc as the indented JSON that --out writes, or None without --out:
    json.dumps with indent runs the pure-Python encoder."""
    return json.dumps(doc, indent=2, sort_keys=sort_keys) if args.out else None


def cmd_product(args) -> Outcome:
    g1 = _load_graph(args.g1)
    g2 = _load_graph(args.g2)
    result = cartesian_product(g1, g2) if args.op == "cartesian" else strong_product(g1, g2)
    report = {
        "verb": "product",
        "op": args.op,
        "vertices": result.n,
        "edges": len(result.ends),
        "graph": result.to_json(),
    }
    lines = [f"{args.op} product: {result.n} vertices, {len(result.ends)} edges"]
    return Outcome(report, lines, artifact=_artifact(args, report["graph"]))


def cmd_spectrum(args) -> Outcome:
    from .matrices import graph_spectrum

    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ParseError(f"--tolerance must be finite and not negative, got {args.tolerance}")
    g = _case(args, "--graph") if args.case else _load_graph(*_given(args, "--graph"))
    eig = graph_spectrum(g)
    grouped: list[list] = []
    for x in eig.eigenvalues:
        if grouped and abs(grouped[-1][0] - x) <= args.tolerance:
            grouped[-1][1] += 1
        else:
            grouped.append([x, 1])
    # Adding 0.0 turns a rounded -0.0 into 0.0, whatever the sign of the noise.
    report = {
        "verb": "spectrum",
        "eigenvalues": [round(x, 9) + 0.0 for x in eig.eigenvalues],
        "multiplicities": [[round(v, 9) + 0.0, m] for v, m in grouped],
    }
    return Outcome(report, [str(eig)])


def cmd_bundle_build(args) -> Outcome:
    fv = _case(args, "--voltage") if args.case else FiberVoltage.from_json(_load_json(*_given(args, "--voltage")))
    b = voltage_bundle(fv)
    matches = _formula_matches(bundle_adjacency(fv), b.total)
    report = {
        "verb": "bundle-build",
        "total_vertices": b.total.n,
        "total_edges": len(b.total.ends),
        "formula_matches_construction": matches,
        "trivial": is_trivial(b),
        "graph": b.total.to_json(),
    }
    lines = [
        f"total space: {b.total.n} vertices, {len(b.total.ends)} edges",
        f"adjacency formula matches construction: {matches}",
        f"trivial: {report['trivial']}",
    ]
    return Outcome(report, lines, matches, _artifact(args, report["graph"]))


def cmd_bundle_verify(args) -> Outcome:
    if args.case:
        total, projection, fiber_graph = _case(args, "--total", "--proj", "--fiber", "--base")
    else:
        total_path, proj_path, fiber_path = _given(args, "--total", "--proj", "--fiber")
        total = _load_graph(total_path)
        fiber_graph = _load_graph(fiber_path)
        mapping, proj_data = _load_map(proj_path, total)
        if args.base is not None and "base" in proj_data:
            raise ParseError(f"bundle-verify reads one base: --base {args.base} and the 'base' in {proj_path} both give one")
        if args.base is not None:
            base = _load_graph(args.base)
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
        projection = make_morphism(total, base, mapping)
    try:
        b = verify_bundle(total, projection, fiber_graph)
    except (SearchBudgetExceeded, EnumerationBoundExceeded):
        raise
    except BundleForgeError as exc:
        return Outcome({"verb": "bundle-verify", "valid": False, "reason": str(exc)}, [f"invalid: {exc}"], False)
    report = {
        "verb": "bundle-verify",
        "valid": True,
        "base_vertices": b.base.n,
        "fiber_vertices": b.fiber.n,
        "total_vertices": b.total.n,
    }
    return Outcome(
        report, [f"valid bundle: {b.fiber.n}-vertex fiber over {b.base.n}-vertex base, total {b.total.n}"]
    )


def cmd_pullback(args) -> Outcome:
    if args.case:
        f, fv = _case(args, "--voltage", "--morphism", "--domain")
    else:
        voltage_path, morphism_path, domain_path = _given(args, "--voltage", "--morphism", "--domain")
        fv = FiberVoltage.from_json(_load_json(voltage_path))
        domain = _load_graph(domain_path)
        f = make_morphism(domain, fv.base, _load_map(morphism_path, domain)[0])
    pulled = pullback_voltage(f, fv)
    pb = pullback_bundle(f, voltage_bundle(fv))
    counts = typed_edge_counts(pb.typed_edges)
    matches = _formula_matches(pullback_adjacency(f, fv), pb.total)
    report = {
        "verb": "pullback",
        "typed_edges": typed_edges_json(pb.total, pb.typed_edges),
        "total_vertices": pb.total.n,
        "formula_matches_construction": matches,
        "pulled_voltage": pulled.to_json()["phi"],
    }
    lines = [
        f"pullback total: {pb.total.n} vertices",
        f"typed edges: I={counts['I']} II={counts['II']} III={counts['III']}",
        f"adjacency formula matches construction: {matches}",
    ]
    return Outcome(report, lines, matches)


def _mixed_subdirect(args, b1, b2, link) -> Outcome:
    """The diagnostic report on two bundles over different bases, linked
    by a morphism of the bases; the artifact is the diagnostic graph."""
    mixed = mixed_base_subdirect(b1, b2, link)
    matches = find_isomorphism(mixed.graph, mixed_base_figure_24()) is not None
    report = {
        "verb": "subdirect",
        "case": args.case,
        "base_mismatch": mixed.base_mismatch,
        "vertices": mixed.graph.n,
        "edges": len(mixed.graph.ends),
        "typed_edges": typed_edges_json(mixed.graph, mixed.typed_edges),
        "matches_reference_figure": matches,
    }
    lines = [
        "warning: factors live over different bases; result is a plain graph, not a bundle",
        f"diagnostic product: {mixed.graph.n} vertices, {len(mixed.graph.ends)} edges",
        f"matches reference figure: {matches}",
    ]
    return Outcome(report, lines, matches, _artifact(args, mixed.graph.to_json()))


def cmd_subdirect(args) -> Outcome:
    if args.case:
        inputs = _case(args, "--v1", "--v2")
        if len(inputs) == 3:  # two bundles and the link of their bases
            return _mixed_subdirect(args, *inputs)
        fv1, fv2 = inputs
    else:
        fv1, fv2 = (FiberVoltage.from_json(_load_json(p)) for p in _given(args, "--v1", "--v2"))
    sp = subdirect_product(voltage_bundle(fv1), voltage_bundle(fv2))
    counts = typed_edge_counts(sp.typed_edges)
    matches = _formula_matches(subdirect_adjacency(fv1, fv2), sp.total)
    report = {
        "verb": "subdirect",
        "total_vertices": sp.total.n,
        "total_edges": len(sp.total.ends),
        "typed_edges": typed_edges_json(sp.total, sp.typed_edges),
        "fiber_vertices": sp.fiber.n,
        "formula_matches_construction": matches,
    }
    lines = [
        f"subdirect total: {sp.total.n} vertices, {len(sp.total.ends)} edges",
        f"typed edges: I={counts['I']} II={counts['II']} III={counts['III']}",
        f"adjacency formula matches construction: {matches}",
    ]
    return Outcome(report, lines, matches, _artifact(args, sp.total.to_json()))


def cmd_cayley(args) -> Outcome:
    if args.case:
        group, gens = _case(args, "--group", "--gens")
    else:
        group_path, gens_list = _given(args, "--group", "--gens")
        group = FiniteGroup.from_json(_load_json(group_path))
        # Split at the top-level commas, so "(1,0),(0,1)" names two
        # direct-product elements.
        gens = [s.strip() for s in split_top(gens_list, ",") if s.strip()]
        unknown = [s for s in gens if s not in group.index]
        if unknown:
            raise ParseError(f"--gens labels are not group elements: {unknown}")
    closed, added = symmetric_closure(group, gens)
    s = generator_system(group, closed)
    g = cayley_graph(group, s)
    report = {
        "verb": "cayley",
        "group_order": group.order,
        "generators": list(s.members),
        "symmetrized_added": list(added),
        "vertices": g.n,
        "edges": len(g.ends),
        "graph": g.to_json(),
    }
    lines = [f"Cayley graph: {g.n} vertices, {len(g.ends)} edges"]
    if added:
        lines.insert(0, f"note: generating set symmetrized, added {list(added)}")
    return Outcome(report, lines, artifact=_artifact(args, report["graph"]))


def cmd_subdirect_group(args) -> Outcome:
    if args.case:
        eps_a, eps_b = _case(args, "--group-a", "--group-b", "--group-c", "--eps-a", "--eps-b")
    else:
        *groups, map_a, map_b = _given(args, "--group-a", "--group-b", "--group-c", "--eps-a", "--eps-b")
        a, b, c = (FiniteGroup.from_json(_load_json(p)) for p in groups)
        eps_a = hom(a, c, _load_map(map_a, a)[0])
        eps_b = hom(b, c, _load_map(map_b, b)[0])
    sd = subdirect_group(eps_a, eps_b)
    report = {
        "verb": "subdirect-group",
        "order": sd.E.order,
        "amalgam_order": sd.amalgam.order,
        "kernel_delta_a": kernel(sd.delta_A).order,
        "kernel_delta_b": kernel(sd.delta_B).order,
    }
    return Outcome(
        report, [f"subdirect product group of order {sd.E.order} over amalgam of order {sd.amalgam.order}"]
    )


def cmd_ktheory(args) -> Outcome:
    if args.case:
        base, fiber_graph = _case(args, "--base", "--fiber")
    else:
        base, fiber_graph = (_load_graph(p) for p in _given(args, "--base", "--fiber"))
    monoid = enumerate_bundle_classes(base, fiber_graph, args.n_max)
    by_n = [monoid.classes_at(n) for n in range(args.n_max + 1)]
    rows = []
    for n, cs in enumerate(by_n):
        for c in cs:
            digest = ";".join(",".join(map(str, images)) for images in c.representative.perms)
            rows.append({"n": n, "class_id": c.class_id, "voltage": digest})
    # The sums within the bound alone, by pairs of powers a + b <= n_max.
    pairs = ((c, d) for a, cs in enumerate(by_n) for ds in by_n[: args.n_max + 1 - a] for c in cs for d in ds)
    report = {
        "verb": "ktheory",
        "n_max": args.n_max,
        "class_counts": [len(cs) for cs in by_n],
        "classes": rows,
        "add_table": {f"{c.class_id},{d.class_id}": monoid.add(c.class_id, d.class_id) for c, d in pairs},
    }
    lines = [f"n={n}: {len(cs)} classes" for n, cs in enumerate(by_n)]
    return Outcome(report, lines, artifact=_artifact(args, report, sort_keys=True))


def cmd_invariance_check(args) -> Outcome:
    verdict = verify_invariance(*_case(args))
    report = {"verb": "invariance-check", "case": args.case, "holds": verdict}
    return Outcome(report, [f"invariance holds: {verdict}"], verdict)


def cmd_export(args) -> Outcome:
    if args.json and not args.out:
        raise ParseError("export --json reports on the file written to --out; give --out, or drop --json")
    g = _case(args, "--graph") if args.case else _load_graph(*_given(args, "--graph"))
    text = g.to_dot() if args.format == "dot" else json.dumps(g.to_json(), indent=2)
    if not args.out:
        return Outcome(None, [], artifact=text)
    report = {"verb": "export", "format": args.format, "vertices": g.n, "edges": len(g.ends)}
    return Outcome(report, [f"wrote {args.format} to {args.out}"], artifact=text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every main call starts from the same tree."""
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


def _apply_limits(args) -> int:
    """Validate --n-max and return the node budget for this run: --budget,
    else the budget already in scope.

    Raises ParseError for a negative value.
    """
    budget = args.budget
    if budget is not None and budget < 0:
        raise ParseError(f"--budget must not be negative, got {budget}")
    if getattr(args, "n_max", 0) < 0:
        raise ParseError(f"--n-max must not be negative, got {args.n_max}")
    return graphs_mod.current_budget.get() if budget is None else budget


def main(argv: Optional[list[str]] = None) -> int:
    """Run one verb: write its artifact to --out before anything prints,
    so a path that cannot be written is an input error with nothing on
    stdout, then print its report or lines and exit on its verdict."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with graphs_mod.node_budget(_apply_limits(args)):
            found = args.func(args)
        out = getattr(args, "out", None)
        if out and found.artifact is not None:
            try:
                with open(out, "w") as fh:
                    fh.write(found.artifact)
            except OSError as exc:
                raise ParseError(f"cannot write {out}: {exc}") from exc
        if found.report is None:
            print(found.artifact, end="")
        elif args.json:
            print(json.dumps(found.report, indent=2, sort_keys=True))
        else:
            for line in found.lines:
                print(line)
        return EXIT_OK if found.holds else EXIT_FALSE
    except (SearchBudgetExceeded, EnumerationBoundExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BundleForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
