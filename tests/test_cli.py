import argparse
import json
import math

import pytest

from bundleforge import Graph, cartesian_product, cli, cycle_graph, complete_graph, matrices, path_graph
from bundleforge.cli import main
from bundleforge.graphs import split_pair_label
from bundleforge.groups import cyclic
from bundleforge.named import CASES, NAMED_GRAPHS, m3_bundle, mobius_ladder_3


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: Each verb that reads a named case: one of its cases and the input
#: options the case stands in for.
CASE_INPUTS = {
    "spectrum": ("k3", ["--graph"]),
    "bundle-build": ("m3", ["--voltage"]),
    "bundle-verify": ("m3", ["--total", "--proj", "--fiber", "--base"]),
    "pullback": ("c6-m3", ["--voltage", "--morphism", "--domain"]),
    "subdirect": ("prism-m3", ["--v1", "--v2"]),
    "cayley": ("z4-c4", ["--group", "--gens"]),
    "subdirect-group": ("z2z3-z6", ["--group-a", "--group-b", "--group-c", "--eps-a", "--eps-b"]),
    "ktheory": ("c3-k2", ["--base", "--fiber"]),
    "export": ("k2", ["--graph"]),
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSpectrumCommand:
    def test_k3_plain_line(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--case", "k3")
        assert code == 0
        assert out.strip() == "2.000000, -1.000000, -1.000000"

    def test_file_input(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", cycle_graph(4).to_json())
        code, out, _ = run(capsys, "spectrum", "--graph", path)
        assert code == 0
        assert out.strip() == "2.000000, 0.000000, 0.000000, -2.000000"

    def test_json_report_keys(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--case", "k2", "--json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"verb", "eigenvalues", "multiplicities"}
        assert report["multiplicities"] == [[1.0, 1], [-1.0, 1]]

    def test_multiplicity_grouping(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--case", "k3", "--json")
        report = json.loads(out)
        assert report["multiplicities"] == [[2.0, 1], [-1.0, 2]]

    @pytest.mark.parametrize("tolerance", ["-1", "-1e-12", "nan", "inf", "-inf"])
    def test_bad_tolerance_is_input_error(self, capsys, tolerance):
        # Before, -1 and nan split K3's double eigenvalue -1 into two groups.
        code, out, err = run(capsys, "spectrum", "--case", "k3", f"--tolerance={tolerance}", "--json")
        assert code == 2
        assert out == ""
        assert "--tolerance must be finite and not negative" in err

    def test_zero_tolerance_is_accepted(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--case", "k2", "--tolerance", "0", "--json")
        assert code == 0
        assert json.loads(out)["multiplicities"] == [[1.0, 1], [-1.0, 1]]

    @pytest.mark.parametrize("case", ["p3", "c4", "m3", "s3", "c6k2", "fig24"])
    def test_json_zero_is_unsigned(self, capsys, case):
        # Rounding noise of either sign must not print as -0.0.
        code, out, _ = run(capsys, "spectrum", "--case", case, "--json")
        assert code == 0
        report = json.loads(out)
        values = report["eigenvalues"] + [v for v, _ in report["multiplicities"]]
        assert 0.0 in values
        assert all(math.copysign(1.0, v) > 0 for v in values if v == 0.0)


class TestProductCommand:
    def test_cartesian(self, capsys, tmp_path):
        g1 = write_json(tmp_path, "a.json", complete_graph(2).to_json())
        g2 = write_json(tmp_path, "b.json", complete_graph(3).to_json())
        code, out, _ = run(capsys, "product", "--op", "cartesian", "--g1", g1, "--g2", g2)
        assert code == 0
        assert "6 vertices, 9 edges" in out

    @pytest.mark.parametrize("op", ["cartesian", "strong"])
    def test_pair_label_collision_exits_2(self, capsys, tmp_path, op):
        g1 = write_json(tmp_path, "a.json", {"vertices": ["1", "1,a"], "edges": [["1", "1,a"]]})
        g2 = write_json(tmp_path, "b.json", {"vertices": ["a,b", "b"], "edges": [["a,b", "b"]]})
        code, out, err = run(capsys, "product", "--op", op, "--g1", g1, "--g2", g2)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: vertex '1,a' breaks the label grammar")

    def test_strong_json_schema(self, capsys, tmp_path):
        g1 = write_json(tmp_path, "a.json", complete_graph(2).to_json())
        g2 = write_json(tmp_path, "b.json", complete_graph(3).to_json())
        code, out, _ = run(capsys, "product", "--op", "strong", "--g1", g1, "--g2", g2, "--json")
        report = json.loads(out)
        assert set(report) == {"verb", "op", "vertices", "edges", "graph"}
        assert report["edges"] == 15


class TestBundleCommands:
    def test_build_named_case(self, capsys):
        code, out, _ = run(capsys, "bundle-build", "--case", "m3")
        assert code == 0
        assert "6 vertices, 9 edges" in out
        assert "trivial: False" in out

    def test_build_from_voltage_file(self, capsys, tmp_path):
        from bundleforge.named import twisted_ladder_voltage

        path = write_json(tmp_path, "v.json", twisted_ladder_voltage().to_json())
        out_path = tmp_path / "total.json"
        code, out, _ = run(
            capsys, "bundle-build", "--voltage", path, "--out", str(out_path)
        )
        assert code == 0
        total = Graph.from_json(json.loads(out_path.read_text()))
        assert total.n == 6 and len(total.edges) == 9

    def test_build_nine_vertex_fiber(self, capsys, tmp_path, c9_rotation_voltage):
        # Triviality enumerates no automorphisms, so a 9-vertex fiber is decided.
        path = write_json(tmp_path, "v.json", c9_rotation_voltage.to_json())
        code, out, _ = run(capsys, "bundle-build", "--voltage", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["trivial"] is False
        assert report["formula_matches_construction"] is True

    def test_verify_named_cases(self, capsys):
        for case in ("m3", "m62", "prism", "c6-c3-covering"):
            code, out, _ = run(capsys, "bundle-verify", "--case", case)
            assert code == 0, case
            assert "valid bundle" in out

    def test_verify_files_with_inferred_base(self, capsys, tmp_path):
        m3 = mobius_ladder_3()
        total = write_json(tmp_path, "m3.json", m3.to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        proj = write_json(
            tmp_path, "q.json", {"map": {str(x): str(x % 3 + 1) for x in range(1, 7)}}
        )
        code, out, _ = run(capsys, "bundle-verify", "--total", total, "--proj", proj, "--fiber", fiber)
        assert code == 0
        assert "valid bundle: 2-vertex fiber over 3-vertex base" in out

    def test_verify_c800_fiber_over_c8(self, capsys, tmp_path):
        # Local triviality compares 1,600-vertex graphs (K2 □ C800).
        base, fib = cycle_graph(8), cycle_graph(800)
        product = cartesian_product(base, fib)
        total = write_json(tmp_path, "total.json", product.to_json())
        fiber = write_json(tmp_path, "c800.json", fib.to_json())
        proj = write_json(
            tmp_path, "p.json", {"map": {v: split_pair_label(v)[0] for v in product.vertices}}
        )
        code, out, _ = run(capsys, "bundle-verify", "--total", total, "--proj", proj, "--fiber", fiber)
        assert code == 0
        assert "valid bundle: 800-vertex fiber over 8-vertex base, total 6400" in out

    def test_verify_partial_projection_is_input_error(self, capsys, tmp_path):
        total = write_json(tmp_path, "m3.json", mobius_ladder_3().to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        proj = write_json(tmp_path, "q.json", {"map": {"1": "1", "2": "2"}})
        code, _, err = run(capsys, "bundle-verify", "--total", total, "--proj", proj, "--fiber", fiber)
        assert code == 2
        assert "undefined" in err

    def test_verify_refuses_stray_projection_key(self, capsys, tmp_path):
        # The clean map is a valid bundle; one key off the total space must
        # not leave the verdict as it was.
        total = write_json(tmp_path, "m3.json", mobius_ladder_3().to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        mapping = {str(x): str(x % 3 + 1) for x in range(1, 7)}
        proj = write_json(tmp_path, "q.json", {"map": {**mapping, "zzz": "1"}})
        code, out, err = run(capsys, "bundle-verify", "--total", total, "--proj", proj, "--fiber", fiber)
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and "'zzz'" in err

    def m3_with_embedded_base(self, tmp_path, base):
        """The m3 files, with base embedded in the projection file."""
        mapping = {str(x): str(x % 3 + 1) for x in range(1, 7)}
        return [
            "--total", write_json(tmp_path, "m3.json", mobius_ladder_3().to_json()),
            "--proj", write_json(tmp_path, "q.json", {"map": mapping, "base": base.to_json()}),
            "--fiber", write_json(tmp_path, "k2.json", complete_graph(2).to_json()),
        ]

    @pytest.mark.parametrize("base, code", [(cycle_graph(3), 0), (path_graph(3), 1)], ids=["c3", "p3"])
    def test_verify_reads_the_embedded_base(self, capsys, tmp_path, base, code):
        # The inferred base would be C3, so P3 is refused only if it is read.
        got, out, _ = run(capsys, "bundle-verify", *self.m3_with_embedded_base(tmp_path, base))
        assert got == code
        assert ("projection is not a morphism" in out) == (code == 1)

    def test_verify_refuses_two_bases(self, capsys, tmp_path):
        # With --base as well, the embedded P3 would be ignored and the run exit 0.
        c3 = write_json(tmp_path, "c3.json", cycle_graph(3).to_json())
        argv = self.m3_with_embedded_base(tmp_path, path_graph(3))
        code, out, err = run(capsys, "bundle-verify", *argv, "--base", c3)
        assert (code, out) == (2, "")
        assert err.startswith("input error: bundle-verify reads one base:")
        assert f"--base {c3}" in err and f"'base' in {argv[3]}" in err

    def test_verify_reads_an_empty_base_path(self, capsys, tmp_path):
        # An empty --base is given, so it is read as a path, not ignored in
        # favour of the embedded base.
        argv = self.m3_with_embedded_base(tmp_path, cycle_graph(3))
        code, out, err = run(capsys, "bundle-verify", *argv, "--base", "")
        assert (code, out) == (2, "")
        assert err.startswith("input error: bundle-verify reads one base: --base  and the 'base' in")
        argv[3] = write_json(tmp_path, "p.json", {"map": {}})
        code, out, err = run(capsys, "bundle-verify", *argv, "--base", "")
        assert (code, out) == (2, "")
        assert err.startswith("input error: cannot read : ")

    @pytest.mark.parametrize("stray", ["--eps-a", "--eps-b"])
    def test_subdirect_group_refuses_stray_map_key(self, capsys, tmp_path, stray):
        # hom reads only the domain's elements, so a key off the domain
        # would be dropped and the run would exit 0.
        z2 = write_json(tmp_path, "z2.json", cyclic(2).to_json())
        maps = {"--eps-a": {"map": {"0": "0", "1": "1"}}, "--eps-b": {"map": {"0": "0", "1": "1"}}}
        maps[stray]["map"]["7"] = "1"
        files = [x for flag, doc in maps.items() for x in (flag, write_json(tmp_path, f"{flag[2:]}.json", doc))]
        code, out, err = run(
            capsys, "subdirect-group", "--group-a", z2, "--group-b", z2, "--group-c", z2, *files
        )
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and "'7'" in err

    def test_verify_rejects_cover_as_edge_bundle(self, capsys, tmp_path):
        total = write_json(tmp_path, "c6.json", cycle_graph(6).to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        proj = write_json(
            tmp_path, "p.json", {"map": {str(x): str(x % 3 + 1) for x in range(1, 7)}}
        )
        code, out, _ = run(capsys, "bundle-verify", "--total", total, "--proj", proj, "--fiber", fiber)
        assert code == 1
        assert "invalid" in out


class TestPullbackAndSubdirect:
    def test_pullback_case(self, capsys):
        code, out, _ = run(capsys, "pullback", "--case", "c6-m3", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["formula_matches_construction"] is True
        typed = report["typed_edges"]
        assert {k: typed[k] for k in ("I", "II", "III")} == {"I": 6, "II": 0, "III": 12}
        assert len(typed["edges"]) == 18
        assert all(kind in ("I", "II", "III") for _, _, kind in typed["edges"])

    def test_subdirect_case(self, capsys):
        code, out, _ = run(capsys, "subdirect", "--case", "prism-m3")
        assert code == 0
        assert "12 vertices, 24 edges" in out

    def test_mixed_base_diagnostic_warns(self, capsys):
        code, out, _ = run(capsys, "subdirect", "--case", "mixed-m3-c6k2")
        assert code == 0
        assert "different bases" in out
        assert "24 vertices, 48 edges" in out

    def test_mixed_base_diagnostic_writes_its_graph(self, capsys, tmp_path):
        # Before, --out was ignored on this path: nothing was written, and
        # an unwritable path still exited 0.
        target = tmp_path / "mixed.json"
        code, out, _ = run(capsys, "subdirect", "--case", "mixed-m3-c6k2", "--out", str(target))
        assert code == 0 and "24 vertices" in out
        graph = Graph.from_json(json.loads(target.read_text()))
        assert (graph.n, len(graph.ends)) == (24, 48)
        code, out, err = run(capsys, "subdirect", "--case", "mixed-m3-c6k2", "--out", str(tmp_path / "nodir" / "o.txt"))
        assert (code, out) == (2, "")
        assert err.startswith("input error: cannot write ")


class TestGroupCommands:
    def test_cayley_case_and_symmetrization(self, capsys):
        code, out, _ = run(capsys, "cayley", "--case", "z4-c4")
        assert code == 0
        assert "4 vertices, 4 edges" in out

    def test_cayley_symmetrizes_raw_input(self, capsys, tmp_path):
        from bundleforge import cyclic

        path = write_json(tmp_path, "z6.json", cyclic(6).to_json())
        code, out, _ = run(capsys, "cayley", "--group", path, "--gens", "1,3")
        assert code == 0
        assert "symmetrized" in out and "'5'" in out

    def test_cayley_composite_generators(self, capsys, tmp_path):
        from bundleforge import cyclic, direct_product

        path = write_json(tmp_path, "z6z12.json", direct_product(cyclic(6), cyclic(12)).to_json())
        code, out, _ = run(capsys, "cayley", "--group", path, "--gens", "(1,0),(0,1)", "--json")
        assert code == 0
        report = json.loads(out)
        assert (report["vertices"], report["edges"]) == (72, 144)
        assert sorted(report["generators"]) == ["(0,1)", "(0,11)", "(1,0)", "(5,0)"]

    @pytest.mark.parametrize("gens", ["(1,0", "1,0)", "(1,0)),(0,1", "(1,0),((0,1)"])
    def test_cayley_unbalanced_generators_are_input_error(self, capsys, tmp_path, gens):
        from bundleforge import cyclic, direct_product

        path = write_json(tmp_path, "z6z12.json", direct_product(cyclic(6), cyclic(12)).to_json())
        code, _, err = run(capsys, "cayley", "--group", path, "--gens", gens)
        assert code == 2
        assert "input error" in err

    def test_cayley_short_table_row_is_input_error(self, capsys, tmp_path):
        group = write_json(
            tmp_path,
            "z3.json",
            {"elements": ["0", "1", "2"], "table": [["0", "1", "2"], ["1", "2"], ["2", "0", "1"]]},
        )
        code, _, err = run(capsys, "cayley", "--group", group, "--gens", "1")
        assert code == 2
        assert "input error" in err

    def test_cayley_unknown_generator_is_input_error(self, capsys, tmp_path):
        group = write_json(tmp_path, "z2.json", {"elements": ["a", "b"], "table": [["a", "b"], ["b", "a"]]})
        code, _, err = run(capsys, "cayley", "--group", group, "--gens", "e")
        assert code == 2
        assert "input error" in err and "'e'" in err

    @pytest.mark.parametrize("gens", ["", ","])
    def test_cayley_empty_generating_set(self, capsys, tmp_path, gens):
        # An empty --gens is given, and names the empty set: it generates
        # the trivial group and no other.
        z1 = write_json(tmp_path, "z1.json", cyclic(1).to_json())
        code, out, err = run(capsys, "cayley", "--group", z1, "--gens", gens, "--json")
        assert code == 0, err
        report = json.loads(out)
        assert (report["vertices"], report["edges"], report["generators"]) == (1, 0, [])
        z2 = write_json(tmp_path, "z2.json", cyclic(2).to_json())
        code, out, err = run(capsys, "cayley", "--group", z2, "--gens", gens)
        assert (code, out) == (2, "")
        assert err == "error: set does not generate the group\n"

    def test_empty_option_with_a_case_is_refused(self, capsys):
        code, out, err = run(capsys, "cayley", "--case", "z4-c4", "--gens", "")
        assert (code, out) == (2, "")
        assert err == "input error: cayley --case gives every input; drop --gens\n"

    def test_subdirect_group_case(self, capsys):
        code, out, _ = run(capsys, "subdirect-group", "--case", "z2z3-z6")
        assert code == 0
        assert "order 12" in out

    def test_invariance_check(self, capsys):
        code, out, _ = run(capsys, "invariance-check", "--case", "z2z3-z6")
        assert code == 0
        assert "invariance holds: True" in out


class TestKtheoryCommand:
    def test_named_case_counts(self, capsys):
        code, out, _ = run(capsys, "ktheory", "--case", "c3-k2", "--n-max", "1", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["class_counts"] == [1, 2]
        assert set(report) == {"verb", "n_max", "class_counts", "classes", "add_table"}

    def test_classes_and_table_pinned(self, capsys):
        # Ids follow the holonomy keys; a voltage digest lists the edges
        # (1,2), (1,3), (2,3), and only (2,3) lies off the spanning tree.
        code, out, _ = run(capsys, "ktheory", "--case", "c3-k2", "--n-max", "2", "--json")
        report = json.loads(out)
        assert code == 0
        assert [(c["class_id"], c["n"], c["voltage"]) for c in report["classes"]] == [
            (0, 0, "0;0;0"),
            (1, 1, "0,1;0,1;0,1"),
            (2, 1, "0,1;0,1;1,0"),
            (3, 2, "0,1,2,3;0,1,2,3;0,1,2,3"),
            (4, 2, "0,1,2,3;0,1,2,3;0,2,1,3"),
            (5, 2, "0,1,2,3;0,1,2,3;1,0,3,2"),
            (6, 2, "0,1,2,3;0,1,2,3;1,3,0,2"),
            (7, 2, "0,1,2,3;0,1,2,3;3,2,1,0"),
        ]
        in_bound = {f"0,{i}": i for i in range(8)}
        in_bound.update({f"{i},0": i for i in range(8)})
        in_bound.update({"1,1": 3, "1,2": 5, "2,1": 5, "2,2": 7})
        assert report["add_table"] == {f"{i},{j}": in_bound.get(f"{i},{j}") for i in range(8) for j in range(8)}

    def test_square_base_cube_power_from_files(self, capsys, tmp_path):
        # 48^4 assignments walked in full would exceed the cap; the orbits of
        # Aut(Q3) by conjugation give the Burnside counts.
        base = write_json(tmp_path, "c4.json", cycle_graph(4).to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        code, out, _ = run(
            capsys, "ktheory", "--base", base, "--fiber", fiber, "--n-max", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["class_counts"] == [1, 2, 5, 10]

    def test_fourth_power_past_the_search_bound(self, capsys, tmp_path):
        # K2^4 has 16 vertices, over the automorphism search's former
        # 10-vertex bound; its group comes from Aut(K2) ≀ S4.  The counts are the bipartition
        # numbers, over a triangle and over a square alike.
        code, out, _ = run(capsys, "ktheory", "--case", "c3-k2", "--n-max", "4", "--json")
        assert code == 0
        assert json.loads(out)["class_counts"] == [1, 2, 5, 10, 20]
        base = write_json(tmp_path, "c4.json", cycle_graph(4).to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        code, out, _ = run(
            capsys, "ktheory", "--base", base, "--fiber", fiber, "--n-max", "4", "--json"
        )
        assert code == 0
        assert json.loads(out)["class_counts"] == [1, 2, 5, 10, 20]

    def test_twelve_vertex_fiber_from_files(self, capsys, tmp_path):
        # The automorphism search has no vertex bound: Aut(C12) is D12, of
        # order 24, with k(D12) = 9 conjugacy classes.
        base = write_json(tmp_path, "c3.json", cycle_graph(3).to_json())
        fiber = write_json(tmp_path, "c12.json", cycle_graph(12).to_json())
        code, out, err = run(
            capsys, "ktheory", "--base", base, "--fiber", fiber, "--n-max", "1", "--json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["class_counts"] == [1, 9]

    def test_seven_vertex_tree_base_is_answered(self, capsys, tmp_path):
        # Refused before by a 6-vertex cap on the base; a tree has one
        # class per power.
        base = write_json(tmp_path, "p7.json", path_graph(7).to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        code, out, err = run(
            capsys, "ktheory", "--base", base, "--fiber", fiber, "--n-max", "2", "--json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["class_counts"] == [1, 1, 1]

    def test_complete_base_cube_power_refused(self, capsys, tmp_path):
        # 5,633 classes need a 31.7M-entry addition table, over the cap; the
        # enumeration stops at the 1,001st class.
        base = write_json(tmp_path, "k4.json", complete_graph(4).to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        code, out, _ = run(
            capsys, "ktheory", "--base", base, "--fiber", fiber, "--n-max", "3", "--json"
        )
        assert code == 3
        assert out == ""


class TestExportCommand:
    def test_json_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "m3.json"
        code, _, _ = run(capsys, "export", "--case", "m3", "--format", "json", "--out", str(out_path))
        assert code == 0
        again = Graph.from_json(json.loads(out_path.read_text()))
        assert again == NAMED_GRAPHS["m3"]()

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_json_report_needs_out(self, capsys, fmt):
        # The report describes the file written to --out; before, --json
        # without it printed the artifact and exited 0.
        code, out, err = run(capsys, "export", "--case", "k2", "--format", fmt, "--json")
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "--json" in err and "--out" in err

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "export", "--case", "k2", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert '"1" -- "2";' in out

    def test_dot_output_escapes_labels(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", {"vertices": ['a"b', "c\\"], "edges": [['a"b', "c\\"]]})
        code, out, _ = run(capsys, "export", "--graph", path, "--format", "dot")
        assert code == 0
        assert out.splitlines()[1:4] == ['  "a\\"b";', '  "c\\\\";', '  "a\\"b" -- "c\\\\";']


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--graph", "/nonexistent.json")
        assert code == 2
        assert "input error" in err

    def test_unknown_case_is_input_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--case", "nope")
        assert code == 2

    def test_budget_exhaustion(self, capsys):
        import bundleforge.graphs as graphs_mod

        saved = graphs_mod.current_budget.get()
        code, _, err = run(capsys, "--budget", "1", "bundle-verify", "--case", "m62")
        assert code == 3
        assert "budget" in err
        assert graphs_mod.current_budget.get() == saved == 10**7 == graphs_mod.DEFAULT_NODE_BUDGET
        # The next in-process search runs under the default budget again.
        assert m3_bundle().total.n == 6

    @pytest.mark.parametrize("verb", ["product", "bundle-build", "subdirect", "cayley", "ktheory", "export"])
    def test_out_path_that_cannot_be_written_is_input_error(self, capsys, tmp_path, verb):
        k2 = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        inputs = {
            "product": ["--g1", k2, "--g2", k2],
            "bundle-build": ["--case", "m3"],
            "subdirect": ["--case", "prism-m3"],
            "cayley": ["--case", "z4-c4"],
            "ktheory": ["--case", "c3-k2"],
            "export": ["--case", "m3"],
        }
        target = str(tmp_path / "missing" / "out.json")
        code, out, err = run(capsys, verb, *inputs[verb], "--out", target)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot write {target}: ")

    @pytest.mark.parametrize("verb,option", [(v, o) for v, (_, options) in CASE_INPUTS.items() for o in options])
    def test_input_option_with_a_case_is_refused(self, capsys, verb, option):
        # Before, the case won and the option was ignored: exit 0 even for a
        # file that does not exist.
        case, _ = CASE_INPUTS[verb]
        code, out, err = run(capsys, verb, "--case", case, option, "/nonexistent.json")
        assert (code, out) == (2, "")
        assert err == f"input error: {verb} --case gives every input; drop {option}\n"

    def test_every_input_option_is_listed(self):
        # An option that is no setting is an input the case gives, so a new
        # one must join CASE_INPUTS.
        settings = {"-h", "--help", "--json", "--out", "--case", "--tolerance", "--format", "--n-max"}
        verbs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        for verb in CASES:
            inputs = {o for action in verbs[verb]._actions for o in action.option_strings} - settings
            assert sorted(inputs) == sorted(CASE_INPUTS.get(verb, (None, []))[1]), verb

    @pytest.mark.parametrize("missing", ["--total", "--proj", "--fiber"])
    def test_bundle_verify_without_a_file_is_input_error(self, capsys, tmp_path, missing):
        # Before, a missing --proj was an internal error (exit 4).
        k2 = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        proj = write_json(tmp_path, "p.json", {"map": {"1": "1", "2": "1"}})
        files = {"--total": k2, "--proj": proj, "--fiber": k2}
        del files[missing]
        code, out, err = run(capsys, "bundle-verify", *[x for pair in files.items() for x in pair])
        assert (code, out) == (2, "")
        assert err == f"input error: bundle-verify needs {missing} (or --case)\n"

    def test_budget_exhaustion_on_files(self, capsys, tmp_path):
        # The file branch lets a spent budget through as exit 3, not as an
        # invalid bundle.
        total = write_json(tmp_path, "m3.json", mobius_ladder_3().to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        proj = write_json(
            tmp_path, "q.json", {"map": {str(x): str(x % 3 + 1) for x in range(1, 7)}}
        )
        argv = ["bundle-verify", "--total", total, "--proj", proj, "--fiber", fiber]
        code, out, err = run(capsys, "--budget", "1", *argv)
        assert code == 3
        assert out == ""
        assert "budget" in err
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "valid bundle" in out

    def test_budget_in_scope_is_the_default(self, capsys):
        import bundleforge.graphs as graphs_mod

        with graphs_mod.node_budget(1):
            code, _, _ = run(capsys, "bundle-verify", "--case", "m62")
        assert code == 3
        with graphs_mod.node_budget(1):
            code, _, _ = run(capsys, "--budget", "100", "bundle-verify", "--case", "m62")
        assert code == 0

    def test_negative_n_max_is_input_error(self, capsys):
        code, out, err = run(capsys, "ktheory", "--case", "c3-k2", "--n-max", "-1")
        assert code == 2
        assert "--n-max" in err
        assert out == ""

    def test_negative_budget_is_input_error(self, capsys):
        import bundleforge.graphs as graphs_mod

        saved = graphs_mod.current_budget.get()
        code, _, err = run(capsys, "--budget", "-5", "bundle-verify", "--case", "m62")
        assert code == 2
        assert "input error" in err
        assert graphs_mod.current_budget.get() == saved

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(g):
            raise RuntimeError("boom")

        # The spectrum verb imports graph_spectrum from the matrix layer
        # when it runs, so the layer's own binding is the one to break.
        monkeypatch.setattr(matrices, "graph_spectrum", broken)
        code, out, err = run(capsys, "spectrum", "--case", "k3")
        assert code == 4
        assert err == "internal error: RuntimeError: boom\n"
        assert "Traceback" not in err
        assert out == ""


class TestConsecutiveCalls:
    """main parses with one parser per process, yet every call behaves like
    a fresh run."""

    def test_budget_does_not_carry_over(self, capsys):
        code, _, _ = run(capsys, "--budget", "1", "bundle-verify", "--case", "m62")
        assert code == 3
        code, _, err = run(capsys, "bundle-verify", "--case", "m62")
        assert code == 0
        assert err == ""

    def test_json_flag_does_not_carry_over(self, capsys):
        code, text, _ = run(capsys, "spectrum", "--case", "k3")
        assert code == 0
        code, out, _ = run(capsys, "spectrum", "--case", "k3", "--json")
        assert code == 0
        assert json.loads(out)["verb"] == "spectrum"
        code, again, _ = run(capsys, "spectrum", "--case", "k3")
        assert code == 0
        assert again == text == "2.000000, -1.000000, -1.000000\n"

    def test_usage_error_then_valid_verb(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--no-such-flag"])
        assert info.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "spectrum", "--case", "k2")
        assert code == 0
        assert out == "1.000000, -1.000000\n"
        assert err == ""

    def test_one_parser_per_process(self, capsys):
        run(capsys, "spectrum", "--case", "k2")
        run(capsys, "export", "--case", "k2", "--format", "json")
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()


class TestMalformedInputFiles:
    """Malformed voltage, graph and map files exit 2 with an input error."""

    @pytest.mark.parametrize(
        "phi",
        [[], {"1,3": 5}, {"1,3": [["2"], "1"]}, {"1,3": "21"}],
        ids=["phi-list", "image-int", "image-nested-list", "image-string"],
    )
    def test_malformed_voltage(self, capsys, tmp_path, phi):
        # Each image replaces the twist ["2", "1"] of an otherwise valid voltage.
        from bundleforge.named import twisted_ladder_voltage

        data = twisted_ladder_voltage().to_json()
        data["phi"] = dict(data["phi"], **phi) if isinstance(phi, dict) else phi
        path = write_json(tmp_path, "v.json", data)
        code, _, err = run(capsys, "bundle-build", "--voltage", path)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("images", [["1", "1"], ["1"]], ids=["vertex-twice", "too-short"])
    def test_voltage_image_list_names_its_edge(self, capsys, tmp_path, images):
        # An image list that is no permutation of the fiber is an input
        # error naming the edge key, as a non-list or an unknown vertex is.
        from bundleforge.named import twisted_ladder_voltage

        data = twisted_ladder_voltage().to_json()
        data["phi"]["1,2"] = images
        code, _, err = run(capsys, "bundle-build", "--voltage", write_json(tmp_path, "v.json", data))
        assert code == 2
        assert err == f"input error: voltage on '1,2' must list each of the 2 fiber vertices once, got {images!r}\n"

    @pytest.mark.parametrize(
        "graph",
        [{"vertices": ["1", "2"], "edges": 5}, {"vertices": 5, "edges": []}, {"vertices": ["1", "2"], "edges": [5]}],
        ids=["edges-int", "vertices-int", "edge-int"],
    )
    def test_malformed_graph(self, capsys, tmp_path, graph):
        code, _, err = run(capsys, "spectrum", "--graph", write_json(tmp_path, "g.json", graph))
        assert code == 2
        assert "input error" in err

    def test_file_that_is_no_json(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{")
        code, out, err = run(capsys, "spectrum", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: bad JSON in {path}: ")

    @pytest.mark.parametrize(
        "group",
        [
            {"elements": "ab", "table": [["a", "b"], ["b", "a"]]},
            {"elements": ["a", "b"], "table": "abba"},
            {"elements": ["a", "b"], "table": ["ab", "ba"]},
        ],
        ids=["elements-string", "table-string", "row-string"],
    )
    def test_malformed_group(self, capsys, tmp_path, group):
        code, _, err = run(capsys, "cayley", "--group", write_json(tmp_path, "g.json", group), "--gens", "b")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("label", ["a,b", "(a"])
    @pytest.mark.parametrize("verb", ["product", "subdirect-group", "bundle-build"])
    def test_label_that_breaks_the_grammar(self, capsys, tmp_path, verb, label):
        # A label with a comma outside parentheses or an unbalanced one is
        # refused where its file is read: a graph, a group, a voltage's base.
        graph = {"vertices": ["1", label], "edges": [["1", label]]}
        z2 = cyclic(2).to_json()
        argv = {
            "product": ["--g1", write_json(tmp_path, "g.json", graph), "--g2", write_json(tmp_path, "k2.json", complete_graph(2).to_json())],
            "subdirect-group": [
                "--group-a", write_json(tmp_path, "a.json", {"elements": ["e", label], "table": [["e", label], [label, "e"]]}),
                "--group-b", write_json(tmp_path, "b.json", z2),
                "--group-c", write_json(tmp_path, "c.json", z2),
                "--eps-a", write_json(tmp_path, "ea.json", {"map": {"e": "0", label: "1"}}),
                "--eps-b", write_json(tmp_path, "eb.json", {"map": {"0": "0", "1": "1"}}),
            ],
            "bundle-build": ["--voltage", write_json(tmp_path, "v.json", {
                "base": graph, "fiber": complete_graph(2).to_json(), "phi": {f"1,{label}": ["2", "1"]}
            })],
        }[verb]
        what = "group element" if verb == "subdirect-group" else "vertex"
        code, out, err = run(capsys, verb, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {what} {label!r} breaks the label grammar")

    def pullback_args(self, tmp_path, morphism):
        from bundleforge.named import twisted_ladder_voltage

        return [
            "pullback",
            "--voltage", write_json(tmp_path, "v.json", twisted_ladder_voltage().to_json()),
            "--domain", write_json(tmp_path, "c6.json", cycle_graph(6).to_json()),
            "--morphism", write_json(tmp_path, "f.json", morphism),
        ]

    def test_pullback_from_files(self, capsys, tmp_path):
        from bundleforge.named import mod3_projection

        morphism = mod3_projection(cycle_graph(6)).to_json()
        code, out, _ = run(capsys, *self.pullback_args(tmp_path, morphism), "--json")
        assert code == 0
        assert json.loads(out)["total_vertices"] == 12

    def test_pullback_refuses_stray_morphism_key(self, capsys, tmp_path):
        from bundleforge.named import mod3_projection

        morphism = mod3_projection(cycle_graph(6)).to_json()
        morphism["map"]["zzz"] = "1"
        code, out, err = run(capsys, *self.pullback_args(tmp_path, morphism))
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and "'zzz'" in err

    def test_pullback_refuses_a_voltage_it_cannot_write(self, capsys, tmp_path):
        # The domain edges a–"b,c" and "a,b"–c would both print as the phi
        # key "a,b,c"; the domain's labels are refused as it is read.
        swap = {"base": path_graph(2).to_json(), "fiber": complete_graph(2).to_json(), "phi": {"1,2": ["2", "1"]}}
        domain = {"vertices": ["a", "a,b", "b,c", "c"], "edges": [["a", "b,c"], ["a,b", "c"]]}
        code, out, err = run(
            capsys,
            "pullback",
            "--voltage", write_json(tmp_path, "v.json", swap),
            "--domain", write_json(tmp_path, "d.json", domain),
            "--morphism", write_json(tmp_path, "f.json", {"map": {"a": "1", "a,b": "1", "b,c": "2", "c": "2"}}),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("input error: vertex 'a,b' breaks the label grammar")

    @pytest.mark.parametrize("morphism", [{"mapping": {}}, {"map": [1]}, [1]], ids=["no-map", "map-list", "list"])
    def test_malformed_morphism(self, capsys, tmp_path, morphism):
        code, _, err = run(capsys, *self.pullback_args(tmp_path, morphism))
        assert code == 2
        assert "input error" in err

    def subdirect_group_args(self, tmp_path, eps_a):
        from bundleforge.named import invariance_case_z2z3_z6

        case = invariance_case_z2z3_z6()
        phi1, phi2 = case["phi1"], case["phi2"]
        return [
            "subdirect-group",
            "--group-a", write_json(tmp_path, "a.json", phi1.domain.to_json()),
            "--group-b", write_json(tmp_path, "b.json", phi2.domain.to_json()),
            "--group-c", write_json(tmp_path, "c.json", phi1.codomain.to_json()),
            "--eps-a", write_json(tmp_path, "ea.json", eps_a if eps_a is not None else phi1.to_json()),
            "--eps-b", write_json(tmp_path, "eb.json", phi2.to_json()),
        ]

    def test_subdirect_group_from_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, *self.subdirect_group_args(tmp_path, None), "--json")
        assert code == 0
        assert json.loads(out)["order"] == 12

    def test_subdirect_group_with_comma_labels(self, capsys, tmp_path):
        z2 = {"elements": ["e,0", "g,1"], "table": [["e,0", "g,1"], ["g,1", "e,0"]]}
        eps = {"map": {"e,0": "0", "g,1": "1"}}
        code, out, err = run(
            capsys,
            "subdirect-group",
            "--group-a", write_json(tmp_path, "a.json", z2),
            "--group-b", write_json(tmp_path, "b.json", z2),
            "--group-c", write_json(tmp_path, "c.json", {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]}),
            "--eps-a", write_json(tmp_path, "ea.json", eps),
            "--eps-b", write_json(tmp_path, "eb.json", eps),
            "--json",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("input error: group element 'e,0' breaks the label grammar")

    def test_eps_without_map(self, capsys, tmp_path):
        code, _, err = run(capsys, *self.subdirect_group_args(tmp_path, {"mapping": {}}))
        assert code == 2
        assert "input error" in err


def _file_form(verb, inputs):
    """The file arguments that give verb the objects a named case builds,
    as (flag, JSON document or plain string) pairs; None for inputs with no
    file form."""
    if verb in ("spectrum", "export"):
        return [("--graph", inputs.to_json())]
    if verb == "bundle-build":
        return [("--voltage", inputs.to_json())]
    if verb == "bundle-verify":
        total, projection, fiber = inputs
        return [("--total", total.to_json()), ("--proj", projection.to_json()),
                ("--base", projection.codomain.to_json()), ("--fiber", fiber.to_json())]
    if verb == "pullback":
        f, fv = inputs
        return [("--voltage", fv.to_json()), ("--morphism", f.to_json()), ("--domain", f.domain.to_json())]
    if verb == "subdirect" and len(inputs) == 2:
        return [("--v1", inputs[0].to_json()), ("--v2", inputs[1].to_json())]
    if verb == "cayley":
        group, gens = inputs
        return [("--group", group.to_json()), ("--gens", ",".join(gens))]
    if verb == "subdirect-group":
        eps_a, eps_b = inputs
        return [("--group-a", eps_a.domain.to_json()), ("--group-b", eps_b.domain.to_json()),
                ("--group-c", eps_a.codomain.to_json()), ("--eps-a", eps_a.to_json()),
                ("--eps-b", eps_b.to_json())]
    if verb == "ktheory":
        base, fiber = inputs
        return [("--base", base.to_json()), ("--fiber", fiber.to_json())]
    return None


NAMED_CASES = [(verb, case) for verb, cases in sorted(CASES.items()) for case in sorted(cases)]
#: The named cases whose inputs no verb reads from files.
NO_FILE_FORM = {("invariance-check", "z2z3-z6"), ("subdirect", "mixed-m3-c6k2")}
#: Options a verb's case runs with, on both paths: --json, but for export,
#: whose report needs --out, so that its output is the artifact itself.
OPTIONS = {"ktheory": ["--n-max", "2", "--json"], "export": []}


class TestNamedCases:
    """A named case builds the inputs its verb would read from files, and
    both run one path: the reports are equal."""

    @pytest.mark.parametrize("verb, case", NAMED_CASES, ids=[f"{v}:{c}" for v, c in NAMED_CASES])
    def test_case_and_its_files_give_one_report(self, capsys, tmp_path, verb, case):
        form = _file_form(verb, CASES[verb][case]())
        assert (form is None) == ((verb, case) in NO_FILE_FORM)
        if form is None:
            return
        argv = [verb, *OPTIONS.get(verb, ["--json"])]
        want = run(capsys, *argv, "--case", case)
        files = []
        for flag, doc in form:
            files += [flag, doc if isinstance(doc, str) else write_json(tmp_path, f"{flag[2:]}.json", doc)]
        assert run(capsys, *argv, *files) == want
        assert want[0] in (0, 1) and want[2] == ""

    @pytest.mark.parametrize("verb", sorted(CASES))
    def test_unknown_case_names_the_verb_and_its_choices(self, capsys, verb):
        code, out, err = run(capsys, verb, "--case", "nope")
        assert (code, out) == (2, "")
        assert err == f"input error: unknown {verb} case 'nope'; choices: {sorted(CASES[verb])}\n"


#: One run of each verb: a named case, two graph files for product, --out
#: wherever a verb writes one, and export without --out, whose artifact is
#: its output.
VERB_RUNS = {
    "product": ["--g1", "{k2}", "--g2", "{k2}", "--out", "{out}"],
    "spectrum": ["--case", "k3"],
    "bundle-build": ["--case", "m3", "--out", "{out}"],
    "bundle-verify": ["--case", "m3"],
    "pullback": ["--case", "c6-m3"],
    "subdirect": ["--case", "prism-m3", "--out", "{out}"],
    "cayley": ["--case", "z4-c4", "--out", "{out}"],
    "subdirect-group": ["--case", "z2z3-z6"],
    "ktheory": ["--case", "c3-k2", "--out", "{out}"],
    "invariance-check": ["--case", "z2z3-z6"],
    "export": ["--case", "m3"],
}

#: The input options each verb needs when it runs without --case.
NEEDED = {
    "product": ["--g1", "--g2"],
    "spectrum": ["--graph"],
    "bundle-build": ["--voltage"],
    "bundle-verify": ["--total", "--proj", "--fiber"],
    "pullback": ["--voltage", "--morphism", "--domain"],
    "subdirect": ["--v1", "--v2"],
    "cayley": ["--group", "--gens"],
    "subdirect-group": ["--group-a", "--group-b", "--group-c", "--eps-a", "--eps-b"],
    "ktheory": ["--base", "--fiber"],
    "export": ["--graph"],
}
NEEDED_CASES = [(verb, option) for verb, options in NEEDED.items() for option in options]


class TestOutcomes:
    """A verb returns what it found; main alone writes --out, prints and
    exits."""

    @pytest.mark.parametrize("verb", sorted(VERB_RUNS))
    def test_verb_returns_its_outcome_and_prints_nothing(self, capsys, tmp_path, verb):
        k2 = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        target = tmp_path / "out.txt"
        argv = [verb, *(arg.format(k2=k2, out=target) for arg in VERB_RUNS[verb])]
        args = cli.build_parser().parse_args(argv)
        found = args.func(args)
        assert isinstance(found, cli.Outcome)
        assert capsys.readouterr() == ("", "")
        assert not target.exists()
        # main prints, writes and exits on exactly that outcome.
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0 if found.holds else 1, "")
        if found.report is None:
            assert out == found.artifact
        else:
            assert out == "".join(f"{line}\n" for line in found.lines)
            assert run(capsys, *argv, "--json")[1] == json.dumps(found.report, indent=2, sort_keys=True) + "\n"
        assert (target.read_text() if target.exists() else None) == (found.artifact if "--out" in argv else None)

    @pytest.mark.parametrize("verb, option", NEEDED_CASES, ids=[f"{v}:{o}" for v, o in NEEDED_CASES])
    def test_a_missing_input_is_named(self, capsys, tmp_path, verb, option):
        if verb == "product":
            form = [("--g1", complete_graph(2).to_json()), ("--g2", complete_graph(2).to_json())]
        else:
            form = _file_form(verb, CASES[verb][VERB_RUNS[verb][1]]())
        argv = [verb]
        for flag, doc in form:
            if flag != option:
                argv += [flag, doc if isinstance(doc, str) else write_json(tmp_path, f"{flag[2:]}.json", doc)]
        if verb == "product":
            # The parser itself requires product's two graphs.
            with pytest.raises(SystemExit) as info:
                main(argv)
            code, (out, err) = info.value.code, capsys.readouterr()
            assert f"bundleforge product: error: the following arguments are required: {option}" in err
        else:
            code, out, err = run(capsys, *argv)
            assert err == f"input error: {verb} needs {option} (or --case)\n"
        assert (code, out) == (2, "")
