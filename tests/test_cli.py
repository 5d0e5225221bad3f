import json

import pytest

from bundleforge import Graph, cycle_graph, complete_graph
from bundleforge.cli import main
from bundleforge.named import m3_bundle, mobius_ladder_3, named_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestProductCommand:
    def test_cartesian(self, capsys, tmp_path):
        g1 = write_json(tmp_path, "a.json", complete_graph(2).to_json())
        g2 = write_json(tmp_path, "b.json", complete_graph(3).to_json())
        code, out, _ = run(capsys, "product", "--op", "cartesian", "--g1", g1, "--g2", g2)
        assert code == 0
        assert "6 vertices, 9 edges" in out

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

    def test_verify_partial_projection_is_input_error(self, capsys, tmp_path):
        total = write_json(tmp_path, "m3.json", mobius_ladder_3().to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        proj = write_json(tmp_path, "q.json", {"map": {"1": "1", "2": "2"}})
        code, _, err = run(capsys, "bundle-verify", "--total", total, "--proj", proj, "--fiber", fiber)
        assert code == 2
        assert "undefined" in err

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

    def test_cayley_short_table_row_is_input_error(self, capsys, tmp_path):
        group = write_json(
            tmp_path,
            "z3.json",
            {"elements": ["0", "1", "2"], "table": [["0", "1", "2"], ["1", "2"], ["2", "0", "1"]]},
        )
        code, _, err = run(capsys, "cayley", "--group", group, "--gens", "1")
        assert code == 2
        assert "input error" in err

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

    def test_square_base_cube_power_from_files(self, capsys, tmp_path):
        # 48^4 assignments walked in full would exceed the cap; gauge fixing
        # walks 48 and answers with the Burnside counts.
        base = write_json(tmp_path, "c4.json", cycle_graph(4).to_json())
        fiber = write_json(tmp_path, "k2.json", complete_graph(2).to_json())
        code, out, _ = run(
            capsys, "ktheory", "--base", base, "--fiber", fiber, "--n-max", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["class_counts"] == [1, 2, 5, 10]

    def test_complete_base_cube_power_refused(self, capsys, tmp_path):
        # 48^3 walked tuples, each canonicalized over the 48 automorphisms of
        # Q3, exceed the cap; so would its 5,633^2-entry addition table.
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
        assert again == named_graph("m3")

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "export", "--case", "k2", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert '"1" -- "2";' in out


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

        saved = graphs_mod.DEFAULT_NODE_BUDGET
        try:
            code, _, err = run(capsys, "--budget", "1", "bundle-verify", "--case", "m62")
            assert code == 3
            assert "budget" in err
            assert graphs_mod.DEFAULT_NODE_BUDGET == saved
            # The next in-process search runs under the default budget again.
            assert m3_bundle().total.n == 6
        finally:
            graphs_mod.DEFAULT_NODE_BUDGET = saved

    def test_env_budget_override(self, capsys, monkeypatch):
        import bundleforge.graphs as graphs_mod

        saved = graphs_mod.DEFAULT_NODE_BUDGET
        monkeypatch.setenv("BUNDLEFORGE_BUDGET", "1")
        try:
            code, _, err = run(capsys, "bundle-verify", "--case", "m62")
            assert code == 3
            assert graphs_mod.DEFAULT_NODE_BUDGET == saved
        finally:
            graphs_mod.DEFAULT_NODE_BUDGET = saved

    def test_negative_n_max_is_input_error(self, capsys):
        code, out, err = run(capsys, "ktheory", "--case", "c3-k2", "--n-max", "-1")
        assert code == 2
        assert "--n-max" in err
        assert out == ""

    def test_negative_budget_is_input_error(self, capsys):
        import bundleforge.graphs as graphs_mod

        saved = graphs_mod.DEFAULT_NODE_BUDGET
        try:
            code, _, err = run(capsys, "--budget", "-5", "bundle-verify", "--case", "m62")
            assert code == 2
            assert "input error" in err
            assert graphs_mod.DEFAULT_NODE_BUDGET == saved
        finally:
            graphs_mod.DEFAULT_NODE_BUDGET = saved

    def test_negative_env_budget_is_input_error(self, capsys, monkeypatch):
        import bundleforge.graphs as graphs_mod

        saved = graphs_mod.DEFAULT_NODE_BUDGET
        monkeypatch.setenv("BUNDLEFORGE_BUDGET", "-5")
        try:
            code, _, err = run(capsys, "bundle-verify", "--case", "m62")
            assert code == 2
            assert "BUNDLEFORGE_BUDGET" in err
            assert graphs_mod.DEFAULT_NODE_BUDGET == saved
        finally:
            graphs_mod.DEFAULT_NODE_BUDGET = saved


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

    @pytest.mark.parametrize(
        "graph",
        [{"vertices": ["1", "2"], "edges": 5}, {"vertices": 5, "edges": []}, {"vertices": ["1", "2"], "edges": [5]}],
        ids=["edges-int", "vertices-int", "edge-int"],
    )
    def test_malformed_graph(self, capsys, tmp_path, graph):
        code, _, err = run(capsys, "spectrum", "--graph", write_json(tmp_path, "g.json", graph))
        assert code == 2
        assert "input error" in err

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

    def test_eps_without_map(self, capsys, tmp_path):
        code, _, err = run(capsys, *self.subdirect_group_args(tmp_path, {"mapping": {}}))
        assert code == 2
        assert "input error" in err
