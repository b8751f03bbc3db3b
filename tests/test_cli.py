import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import comtes
from comtes.acceptance import G2, G2G3_BUDGET, G3
from comtes.cli import main
from comtes.core import Comte, canonical_key, classify, comte, decode, encode, graph
from comtes.homology import homology_range
from comtes.links import CORPUS, REIDEMEISTER_PAIRS, comte_of_gauss, parse_gauss_code
from comtes.moves import SearchBudget, apply_move, enumerate_moves, inverse_instances

TREFOIL = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestImport:
    def test_gauss_trefoil(self, capsys):
        code, out, _ = run(capsys, "import", "--gauss", "O1+U2+O3+U1+O2+U3+")
        assert code == 0
        c = decode(out)
        assert canonical_key(c) == canonical_key(TREFOIL)
        doc = json.loads(out)
        assert list(doc) == ["vertices", "arrows"]
        assert list(doc["arrows"][0]) == ["source", "target", "label", "flow"]

    def test_pd(self, capsys):
        code, out, _ = run(capsys, "import", "--pd", "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]")
        assert code == 0
        assert canonical_key(decode(out)) == canonical_key(TREFOIL)

    def test_bad_code_exits_1(self, capsys):
        code, _, err = run(capsys, "import", "--gauss", "O1+U1-")
        assert code == 1 and "sign mismatch" in err


class TestValidate:
    def test_valid(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 0 and out.strip() == "valid"

    def test_invalid_exits_1(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"vertices": ["a","b"], "arrows": [{"source":"a","target":"b","label":"a","flow":1}]}')
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 1 and "outgoing 1 != incoming 0" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.json")
        assert code == 1 and "cannot read" in err


class TestInvariants:
    def test_trefoil(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, out, _ = run(capsys, "invariants", str(p), "--delta-max", "2")
        assert code == 0
        assert "components: 1" in out
        assert "abelianization rank: 1" in out
        assert "Delta_1 = t^2 - t + 1" in out
        assert "Delta_2 = 1" in out

    def test_presentations(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, out, _ = run(capsys, "invariants", str(p), "--presentations")
        assert code == 0 and "c*a = b*c" in out and "c |> a = b" in out


class TestColoringsAndStateSum:
    def test_colorings(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, out, _ = run(capsys, "colorings", "--comte", str(p), "--quandle", "tetrahedron")
        assert code == 0 and out.splitlines()[0] == "16 colorings"

    @pytest.mark.parametrize("quandle, listed", [
        ("dihedral3", ["a=0 b=0 c=0", "a=0 b=1 c=2", "a=0 b=2 c=1", "a=1 b=0 c=2", "a=1 b=1 c=1",
                       "a=1 b=2 c=0", "a=2 b=0 c=1", "a=2 b=1 c=0", "a=2 b=2 c=2"]),
        ("trivial2", ["a=0 b=0 c=0", "a=1 b=1 c=1"]),
    ])
    def test_colorings_count_and_list(self, capsys, tmp_path, quandle, listed):
        # the count alone, then the same count and each colouring in
        # vertex order, sorted by the tuple of element values
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        head = f"{len(listed)} colorings"
        assert run(capsys, "colorings", "--comte", str(p), "--quandle", quandle) == (0, head + "\n", "")
        code, out, err = run(capsys, "colorings", "--comte", str(p), "--quandle", quandle, "--list")
        assert (code, err) == (0, "") and out.splitlines() == [head, *("  " + line for line in listed)]

    def test_colorings_count_builds_no_coloring(self, capsys, tmp_path, monkeypatch):
        import comtes.cli

        def refuse(*args):
            raise AssertionError("colorings built without --list")

        monkeypatch.setattr(comtes.cli, "colorings", refuse)
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        assert run(capsys, "colorings", "--comte", str(p), "--quandle", "tetrahedron") == (0, "16 colorings\n", "")

    def test_statesum_builtin(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, out, _ = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", "builtin")
        assert code == 0
        assert out.splitlines() == ["4 + 12*s", "colorings: 16"]

    def test_statesum_cocycle_file(self, capsys, tmp_path):
        from comtes.racks import tetrahedron_cocycle
        from reference import format_cocycle

        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        fpath = tmp_path / "f.cocycle"
        fpath.write_text(format_cocycle(tetrahedron_cocycle()))
        code, out, _ = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(fpath))
        assert code == 0 and out.splitlines()[0] == "4 + 12*s"

    @pytest.mark.parametrize("text", ["A: 2\n", "A: 2\n0 1 -> 0\n"])
    def test_statesum_trivial_cocycle_file(self, capsys, tmp_path, text):
        # missing pairs are the identity, so neither file is too small for
        # the 4-element quandle
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        fpath = tmp_path / "zero.cocycle"
        fpath.write_text(text)
        code, out, _ = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(fpath))
        assert code == 0 and out.splitlines() == ["16", "colorings: 16"]

    def test_rack_table_file(self, capsys, tmp_path):
        from comtes.racks import tetrahedron_quandle
        from reference import format_rack_table

        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        rpath = tmp_path / "tetra.rack"
        rpath.write_text(format_rack_table(tetrahedron_quandle()))
        code, out, _ = run(capsys, "colorings", "--comte", str(p), "--quandle", str(rpath))
        assert code == 0 and "16 colorings" in out

    def test_negative_rack_size_rejected(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        rpath = tmp_path / "neg.rack"
        rpath.write_text("-1 0")
        code, out, err = run(capsys, "colorings", "--comte", str(p), "--quandle", str(rpath))
        assert code == 1 and out == ""
        assert "bad rack table" in err and "non-negative" in err


class TestHomologyCommand:
    def test_exhoc(self, capsys, tmp_path):
        exhoc = graph(
            "a b c",
            [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"), ("b", "b", "a"),
             ("c", "c", "a"), ("a", "c", "b"), ("c", "a", "b"), ("a", "b", "c")],
        )
        p = tmp_path / "g.json"
        p.write_text(encode(exhoc))
        code, out, _ = run(capsys, "homology", str(p), "--max-degree", "5")
        assert code == 0
        assert out.splitlines() == ["H_1 = Z", "H_2 = Z^2", "H_3 = Z^4", "H_4 = Z^7", "H_5 = Z^11"]


    def test_graph_with_distinct_label_source_pairs(self, capsys, tmp_path):
        # two arrows labeled b end at c, so this is no r-graph, but no two
        # arrows share (label, source): the homology domain
        g = graph("a b c", [("a", "c", "b"), ("b", "c", "b"), ("c", "c", "c")])
        assert classify(g) == "general"
        p = tmp_path / "g.json"
        p.write_text(encode(g))
        code, out, _ = run(capsys, "homology", str(p), "--max-degree", "3")
        assert code == 0
        assert out.splitlines() == [f"H_{n} = {h.format()}" for n, h in enumerate(homology_range(g, 3), start=1)]
        assert out.splitlines() == ["H_1 = Z", "H_2 = Z", "H_3 = Z"]

    def test_shared_label_and_source_exits_1(self, capsys, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(encode(graph("a b c", [("a", "b", "c"), ("a", "c", "c")])))
        code, out, err = run(capsys, "homology", str(p))
        assert code == 1 and out == ""
        assert "share source 'a' and label 'c'" in err

    def test_quotient_of_a_non_q_graph_exits_1(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, out, err = run(capsys, "homology", str(p), "--max-degree", "2", "--q")
        assert code == 1 and out == ""
        assert "needs a q-graph" in err


class TestCensusCommand:
    def test_q3_classes(self, capsys):
        code, out, _ = run(capsys, "census", "--class", "q", "--vertices", "3")
        assert code == 0 and out.strip() == "70 classes"

    def test_r2_with_signatures(self, capsys):
        code, out, _ = run(capsys, "census", "--class", "q", "--vertices", "2", "--max-degree", "3", "--table")
        assert code == 0
        assert "classes" in out and "distinct signatures [plain/torsion]" in out

    @pytest.mark.parametrize("argv, digest", [
        (["--vertices", "3", "--max-degree", "5", "--table"], "5895c1254d73ac5c038793642c4820ee91369134cbbe159e602457ad631d13c1"),
        (["--vertices", "3", "--class", "q", "--max-degree", "5", "--table", "--jobs", "2"],
         "9e76e214332287bb5d5c83e8ea41f157cadde177a4e02eb2ed9f1b283aaa7703"),
    ], ids=["r3", "q3-two-jobs"])
    def test_signature_tables_are_pinned(self, capsys, argv, digest):
        # stdout byte for byte: the class count, every row and the distinct counts
        code, out, _ = run(capsys, "census", *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "census", "--class", "q", "--vertices", "2", "--max-degree", "2")
        _, out2, _ = run(capsys, "census", "--class", "q", "--vertices", "2", "--max-degree", "2")
        assert out1 == out2


class TestMovesCommand:
    def test_enumerate_apply_search(self, capsys, tmp_path):
        kink = comte(
            "a b c d",
            [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "d", "b", 1), ("d", "a", "d", 1)],
        )
        p = tmp_path / "kink.json"
        p.write_text(encode(kink))
        code, out, _ = run(capsys, "moves", "enumerate", "--comte", str(p))
        assert code == 0 and "R1contract" in out
        code, out, _ = run(capsys, "moves", "apply", "--comte", str(p), "--index", "0")
        assert code == 0
        applied = decode(out)
        assert len(applied.graph.vertices) == 3
        t = tmp_path / "t.json"
        t.write_text(encode(TREFOIL))
        code, out, _ = run(capsys, "moves", "search", "--comte", str(p), "--target", str(t))
        assert code == 0 and out.startswith("equivalent (1 moves)")

    def test_search_unknown(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        d = tmp_path / "dot.json"
        d.write_text(encode(comte("a", [])))
        code, out, _ = run(capsys, "moves", "search", "--comte", str(p), "--target", str(d), "--max-states", "200")
        assert code == 0 and out.startswith("unknown")

    @pytest.mark.parametrize("option", ["--max-states", "--max-vertices", "--max-arrows", "--max-split-slots", "--r3b-range"])
    def test_negative_search_budget_exits_2(self, capsys, tmp_path, option):
        # the R1 pair below is one move from the trefoil under the default budget
        p = tmp_path / "kink.json"
        p.write_text(encode(comte_of_gauss(parse_gauss_code("O1+U2+O3+U1+O2+U3+O4+U4+"))))
        t = tmp_path / "t.json"
        t.write_text(encode(TREFOIL))
        with pytest.raises(SystemExit) as exc:
            main(["moves", "search", "--comte", str(p), "--target", str(t), option, "-1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and option in out.err and "must be non-negative" in out.err

    @pytest.mark.parametrize("action", ["enumerate", "apply", "search"])
    def test_empty_flow_window_exits_2(self, capsys, tmp_path, action):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        with pytest.raises(SystemExit) as exc:
            main(["moves", action, "--comte", str(p), "--target", str(p), "--inverse", "--flow-lo", "3", "--flow-hi", "-2"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "empty flow window" in out.err

    @pytest.mark.parametrize("action", ["enumerate", "apply", "search"])
    def test_ignore_flows_ignores_an_empty_flow_window(self, capsys, tmp_path, action):
        # bare-graph mode sets the flow window to 0..0, whatever was passed
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        argv = ["moves", action, "--comte", str(p), "--target", str(p), "--inverse", "--ignore-flows"]
        plain = run(capsys, *argv)
        assert plain[0] == 0 and plain[1]
        assert run(capsys, *argv, "--flow-lo", "3", "--flow-hi", "1") == plain

    def test_ignore_flows_enumerates_and_applies_bare_graph_moves(self, capsys, tmp_path):
        # a full square whose sides carry flow: only with flows zeroed may a
        # side be removed, and no flow shift is listed
        square = comte(
            "a b t c u s r",
            [("b", "t", "a", 0), ("c", "u", "a", 1), ("u", "s", "t", 1),
             ("c", "r", "b", -1), ("r", "s", "a", -1), ("s", "c", "a", 0)],
        )
        zeroed = Comte(square.graph, (0,) * len(square.arrows))
        p = tmp_path / "square.json"
        p.write_text(encode(square))
        code, out, _ = run(capsys, "moves", "enumerate", "--comte", str(p))
        assert code == 0 and "R3b_shift" in out and "R3a_remove" not in out
        code, out, _ = run(capsys, "moves", "enumerate", "--comte", str(p), "--inverse", "--ignore-flows")
        bare = SearchBudget(r3b_range=0, flow_lo=0, flow_hi=0)
        pool = enumerate_moves(zeroed, bare) + inverse_instances(zeroed, bare)
        assert code == 0 and out == "".join(f"{i}\t{m.format()}\n" for i, m in enumerate(pool))
        assert "R3a_remove" in out and "R3b_shift" not in out
        index = next(i for i, m in enumerate(pool) if m.kind == "R3a_remove")
        code, out, _ = run(capsys, "moves", "apply", "--comte", str(p), "--index", str(index), "--ignore-flows")
        assert code == 0 and decode(out) == apply_move(zeroed, pool[index])
        assert set(decode(out).flows) == {0}

    def test_ignore_flows_search(self, capsys, tmp_path):
        # G2 -> G3 under the budget of acceptance criterion 3, as bare graphs
        # (the trace of TestSearchGolden::test_g2_g3_trace_bare_graphs)
        p, q = tmp_path / "g2.json", tmp_path / "g3.json"
        p.write_text(encode(G2))
        q.write_text(encode(G3))
        budget = [arg for f in dataclasses.fields(G2G3_BUDGET)
                  for arg in (f"--{f.name.replace('_', '-')}", str(getattr(G2G3_BUDGET, f.name)))]
        code, out, _ = run(capsys, "moves", "search", "--comte", str(p), "--target", str(q), "--ignore-flows", *budget)
        assert code == 0 and out == (
            "equivalent (4 moves)\n"
            "R0inv site=[vertices=0,0 flags=target]\n"
            "R3a_add site=[arrows=2,4,3,1] params=1\n"
            "R3a_remove site=[arrows=4,1,5,0,3] params=2\n"
            "R1contract site=[arrows=1]\n"
        )
        # the mirror trefoils are one graph
        left = comte("a b c", [("a", "b", "c", -1), ("b", "c", "a", -1), ("c", "a", "b", -1)])
        p.write_text(encode(TREFOIL))
        q.write_text(encode(left))
        code, out, _ = run(capsys, "moves", "search", "--comte", str(p), "--target", str(q), "--ignore-flows")
        assert code == 0 and out == "equivalent (0 moves)\n"

    def test_max_split_slots(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        # each trefoil vertex has three incident slots: the 2^2 subsets that
        # keep the last one at the vertex, 4 flag pairs, less the 2 that move
        # no slot and label the old half (R0inv)
        _, out, _ = run(capsys, "moves", "enumerate", "--comte", str(p), "--inverse")
        assert out.count("R1split") == 3 * (4 * 4 - 2)
        assert len(out.splitlines()) == 84
        _, out, _ = run(capsys, "moves", "enumerate", "--comte", str(p), "--inverse", "--max-split-slots", "2")
        assert "R1split" not in out and "R0inv" in out
        budgets = []
        monkeypatch.setattr("comtes.cli.equivalent_bounded", lambda c1, c2, budget, **kw: budgets.append(budget))
        run(capsys, "moves", "search", "--comte", str(p), "--target", str(p), "--max-split-slots", "3")
        assert budgets[0].max_split_slots == 3

    @pytest.mark.parametrize("action", ["enumerate", "apply", "search"])
    def test_non_conserved_flows_rejected(self, capsys, tmp_path, action):
        # a -> b with flow 1 conserves at neither end; the move rules hold
        # only on comtes, so each action reports the validate failure
        bad, good = tmp_path / "bad.json", tmp_path / "t.json"
        bad.write_text(encode(comte("a b", [("a", "b", "a", 1)])))
        good.write_text(encode(TREFOIL))
        code, out, err = run(capsys, "moves", action, "--comte", str(bad), "--target", str(good), "--inverse")
        assert code == 1 and out == "" and "not a valid comte" in err and "outgoing 1 != incoming 0" in err
        if action == "search":
            code, out, err = run(capsys, "moves", action, "--comte", str(good), "--target", str(bad))
            assert code == 1 and out == "" and "not a valid comte" in err

    def test_ignore_flows_accepts_non_conserved_flows(self, capsys, tmp_path):
        # bare-graph mode zeroes the flows, so the run is that on the graph
        bad = comte("a b", [("a", "b", "a", 1), ("b", "b", "a", 2)])
        p, q = tmp_path / "bad.json", tmp_path / "bare.json"
        p.write_text(encode(bad))
        q.write_text(encode(bad.graph))
        for action in ("enumerate", "apply"):
            argv = ("moves", action, "--inverse", "--ignore-flows", "--index", "2")
            code, out, _ = run(capsys, *argv, "--comte", str(p))
            assert code == 0 and out and (code, out) == run(capsys, *argv, "--comte", str(q))[:2]

    def test_apply_with_no_instances(self, capsys, tmp_path):
        p = tmp_path / "dot.json"
        p.write_text(encode(comte("a", [])))
        code, _, err = run(capsys, "moves", "apply", "--comte", str(p))
        assert code == 1 and "there are no move instances" in err and "0..-1" not in err

    def test_bad_index(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, _, err = run(capsys, "moves", "apply", "--comte", str(p), "--index", "99")
        assert code == 1 and "out of range" in err


# malformed comte documents, each with a piece of the message it must give
MALFORMED_DOCUMENTS = {
    "not_json": ("{", "line 1"),
    "top_level_list": ("[]", "top level must be an object"),
    "no_arrows": ('{"vertices": ["a"]}', "missing field 'arrows'"),
    "vertices_not_strings": ('{"vertices": [1], "arrows": []}', "'vertices' must be a list of strings"),
    "dangling_arrow": ('{"vertices": ["a"], "arrows": [{"source": "a", "target": "b", "label": "a", "flow": 0}]}',
                       "unknown vertex 'b'"),
    "duplicate_vertex": ('{"vertices": ["a", "a"], "arrows": []}', "'vertices' contains a duplicate"),
    "float_flow": ('{"vertices": ["a"], "arrows": [{"source": "a", "target": "a", "label": "a", "flow": 1.5}]}',
                   "not an integer: 1.5"),
    "bool_flow": ('{"vertices": ["a"], "arrows": [{"source": "a", "target": "a", "label": "a", "flow": true}]}',
                  "not an integer: True"),
    "some_flows": ('{"vertices": ["a"], "arrows": [{"source": "a", "target": "a", "label": "a", "flow": 0},'
                   ' {"source": "a", "target": "a", "label": "a"}]}', "flow present on some arrows but not all"),
    "not_conserved": ('{"vertices": ["a", "b"], "arrows": [{"source": "a", "target": "b", "label": "a", "flow": 1}]}',
                      "outgoing 1 != incoming 0"),
    "deep_nesting": ("[" * 100000, "nesting too deep"),
    "not_utf8": (b"\xff\xfe\x00bad", "not UTF-8 text"),
}


class TestMovesCommandInputs:
    """``comtes moves`` on malformed documents and options: each ends with
    exit 1 (a bad document or instance index) or 2 (a usage error) and a
    message on stderr, never a traceback."""

    @staticmethod
    def _run(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        return code, out.out, out.err

    @pytest.fixture
    def trefoil(self, tmp_path):
        p = tmp_path / "trefoil.json"
        p.write_text(encode(TREFOIL))
        return str(p)

    @pytest.mark.parametrize("action, role", [("enumerate", "comte"), ("apply", "comte"), ("search", "comte"),
                                              ("search", "target")])
    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
    def test_malformed_document(self, capsys, tmp_path, trefoil, name, action, role):
        text, message = MALFORMED_DOCUMENTS[name]
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        files = {"comte": str(bad), "target": trefoil} if role == "comte" else {"comte": trefoil, "target": str(bad)}
        argv = ["moves", action, "--comte", files["comte"]]
        if action == "search":
            argv += ["--target", files["target"], "--max-states", "50"]
        code, out, err = self._run(capsys, argv)
        assert code == 1 and out == "" and err.startswith("error: ") and message in err, err

    @pytest.mark.parametrize("role", ["comte", "target"])
    def test_an_invalid_document_is_named(self, capsys, tmp_path, trefoil, role):
        bad = tmp_path / "bad.json"
        bad.write_text(MALFORMED_DOCUMENTS["not_conserved"][0])
        files = {"comte": trefoil, "target": trefoil, role: str(bad)}
        code, out, err = self._run(capsys, ["moves", "search", "--comte", files["comte"], "--target", files["target"]])
        assert code == 1 and out == "" and err.startswith(f"error: {bad}: document is not a valid comte:\n"), err

    @pytest.mark.parametrize("action", ["enumerate", "apply", "search"])
    @pytest.mark.parametrize("path", ["missing.json", "."])
    def test_unreadable_document(self, capsys, tmp_path, trefoil, action, path):
        argv = ["moves", action, "--comte", str(tmp_path / path), "--target", trefoil]
        code, out, err = self._run(capsys, argv)
        assert code == 1 and out == "" and err.startswith("error: cannot read"), err

    @pytest.mark.parametrize("index, code, message", [
        ("-1", 1, "move index -1 out of range (0.."),
        ("84", 1, "move index 84 out of range (0..83)"),
        (str(10**30), 1, "out of range"),
        ("x", 2, "invalid int value: 'x'"),
        ("1.5", 2, "invalid int value: '1.5'"),
        ("", 2, "invalid int value: ''"),
    ])
    def test_bad_index(self, capsys, trefoil, index, code, message):
        got, out, err = self._run(capsys, ["moves", "apply", "--comte", trefoil, "--inverse", "--index", index])
        assert got == code and out == "" and message in err, err

    @pytest.mark.parametrize("action", ["enumerate", "apply", "search"])
    @pytest.mark.parametrize("options, message", [
        (["--max-states", "-1"], "must be non-negative, got -1"),
        (["--max-states", "x"], "invalid int value: 'x'"),
        (["--max-vertices", "2.5"], "invalid int value: '2.5'"),
        (["--max-arrows", "-3"], "must be non-negative, got -3"),
        (["--r3b-range", "two"], "invalid int value: 'two'"),
        (["--max-split-slots", "-1"], "must be non-negative, got -1"),
        (["--flow-lo", "x"], "invalid int value: 'x'"),
        (["--flow-hi", "1e3"], "invalid int value: '1e3'"),
        (["--flow-lo", "3", "--flow-hi", "1"], "empty flow window: --flow-lo 3 > --flow-hi 1"),
    ])
    def test_bad_budget_option(self, capsys, trefoil, action, options, message):
        argv = ["moves", action, "--comte", trefoil, "--target", trefoil, *options]
        code, out, err = self._run(capsys, argv)
        assert code == 2 and out == "" and message in err, err


class TestDocumentCommandInputs:
    """The other commands that read a comte document, on the documents of
    ``MALFORMED_DOCUMENTS``: each ends with exit 1 and an error on stderr,
    never a traceback.  The non-conserved document decodes to a valid
    graph that is not a comte: ``validate`` reports it on stdout, the two
    commands that need a comte reject it, and the three that read the graph
    alone run on it as on its bare graph."""

    COMMANDS = {
        "validate": ["validate", "DOC"],
        "invariants": ["invariants", "DOC"],
        "colorings": ["colorings", "--comte", "DOC", "--quandle", "dihedral3"],
        "statesum": ["statesum", "--comte", "DOC", "--quandle", "tetrahedron", "--cocycle", "builtin"],
        "homology": ["homology", "DOC", "--max-degree", "2"],
        "bracket": ["bracket", "--graph", "DOC"],
    }

    @classmethod
    def _run(cls, capsys, command, path):
        return TestMovesCommandInputs._run(capsys, [str(path) if a == "DOC" else a for a in cls.COMMANDS[command]])

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("name", sorted(set(MALFORMED_DOCUMENTS) - {"not_conserved"}))
    def test_malformed_document(self, capsys, tmp_path, name, command):
        text, message = MALFORMED_DOCUMENTS[name]
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = self._run(capsys, command, bad)
        assert code == 1 and out == "" and err.startswith("error: ") and str(bad) in err and message in err, err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_conserved_document(self, capsys, tmp_path, command):
        text, message = MALFORMED_DOCUMENTS["not_conserved"]
        bad, bare = tmp_path / "bad.json", tmp_path / "bare.json"
        bad.write_text(text)
        bare.write_text(encode(decode(text).graph))
        code, out, err = self._run(capsys, command, bad)
        if command == "validate":
            assert code == 1 and err == "" and message in out
        elif command in ("invariants", "statesum"):
            assert code == 1 and out == "" and err.startswith(f"error: {bad}: document is not a valid comte:"), err
            assert message in err
        else:
            assert (code, out, err) == self._run(capsys, command, bare) and code == 0 and out


class TestBracketCommand:
    def test_output(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, out, _ = run(capsys, "bracket", "--graph", str(p), "--semivirtual", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        coeffs = sorted(int(ln.split("\t")[0]) for ln in lines)
        assert coeffs == [-1, 1]

    @pytest.mark.parametrize("semivirtual, message", [
        ("x", "bad arrow index list 'x'"),
        ("0,3", "semi-virtual arrow index 3 out of range"),
    ], ids=["not-an-index", "out-of-range"])
    def test_a_bad_index_list_is_an_error(self, capsys, tmp_path, semivirtual, message):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        assert run(capsys, "bracket", "--graph", str(p), "--semivirtual", semivirtual) == (1, "", f"error: {message}\n")


class TestUsage:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["census"])  # missing required --vertices
        assert exc.value.code == 2

    @pytest.mark.parametrize("vertices", ["-1", "x"])
    def test_census_bad_vertex_count_exits_2(self, capsys, vertices):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--vertices", vertices])
        assert exc.value.code == 2
        assert "--vertices" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--vertices", "2", "--max-degree", "-2", "--table"],
            ["homology", "G", "--max-degree", "-1"],
            ["invariants", "G", "--delta-max", "-1"],
        ],
    )
    def test_negative_degree_exits_2(self, capsys, tmp_path, argv):
        p = tmp_path / "g.json"
        p.write_text(encode(TREFOIL))
        with pytest.raises(SystemExit) as exc:
            main([str(p) if a == "G" else a for a in argv])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be non-negative" in out.err

    @pytest.mark.parametrize("degree", [[], ["--max-degree", "0"]], ids=["absent", "zero"])
    def test_census_table_without_a_degree_exits_2(self, capsys, degree):
        # it used to print "27 classes" and drop the table
        with pytest.raises(SystemExit) as exc:
            main(["census", "--vertices", "2", "--table", *degree])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--table needs a positive --max-degree" in out.err

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_search_requires_target(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        with pytest.raises(SystemExit) as exc:
            main(["moves", "search", "--comte", str(p)])
        assert exc.value.code == 2


class TestUndecodableFiles:
    """A file that is not UTF-8 text is reported, not raised."""

    @pytest.mark.parametrize("kind", ["validate", "colorings", "statesum"])
    def test_binary_file_exits_1(self, capsys, tmp_path, kind):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        b = tmp_path / "bin.json"
        b.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x62, 0x61, 0x64]))
        argv = {
            "validate": ["validate", str(b)],
            "colorings": ["colorings", "--comte", str(p), "--quandle", str(b)],
            "statesum": ["statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(b)],
        }[kind]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: cannot read {b}: not UTF-8 text\n"
        assert "Traceback" not in err


class TestJobsOption:
    @pytest.mark.parametrize("argv", [["census", "--vertices", "1", "--max-degree", "1"]])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_exits_2(self, capsys, argv, jobs):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", jobs])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--jobs" in out.err and "must be positive" in out.err

    def test_paper_suite_takes_no_jobs(self, capsys):
        # the suite's census runs in one process; --jobs belongs to census
        with pytest.raises(SystemExit) as exc:
            main(["paper-suite", "--only", "6", "--jobs", "2"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "unrecognized arguments: --jobs 2" in out.err


class TestPaperSuiteCommand:
    def test_subset(self, capsys):
        code, out, _ = run(capsys, "paper-suite", "--only", "4,5,6")
        assert code == 0
        assert out.count("[PASS]") == 3
        assert "3/3 criteria passed" in out

    @pytest.mark.parametrize("only, named", [("9", "'9'"), ("6,x", "'x'")])
    def test_unknown_id_exits_2(self, capsys, only, named):
        with pytest.raises(SystemExit) as exc:
            main(["paper-suite", "--only", only])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and f"unknown criterion id(s): {named}" in out.err


class TestStateSumHardening:
    def test_rack_that_is_not_a_quandle(self, capsys, tmp_path):
        # x |> y = 1 - y on two elements is a rack, and 0 |> 0 = 1
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        rpath = tmp_path / "swap.rack"
        rpath.write_text("2\n1 0\n1 0\n")
        code, out, err = run(capsys, "statesum", "--comte", str(p), "--quandle", str(rpath), "--cocycle", "builtin")
        assert (code, out) == (1, "") and "state sums need a quandle" in err

    def test_builtin_cocycle_needs_four_elements(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        code, out, err = run(capsys, "statesum", "--comte", str(p), "--quandle", "dihedral3", "--cocycle", "builtin")
        assert (code, out) == (1, "") and "the builtin cocycle is the tetrahedron one (4 elements)" in err

    def test_cocycle_that_is_not_a_cocycle(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        fpath = tmp_path / "f.cocycle"
        fpath.write_text("A: 2\n1 1 -> 1\n")
        code, out, err = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(fpath))
        assert (code, out) == (1, "") and "not a 2-cocycle: f(1,1) is not the identity" in err

    def test_cocycle_size_mismatch(self, capsys, tmp_path):
        from comtes.racks import C2, Cocycle2
        from reference import format_cocycle

        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        # a file for a larger quandle names an index the quandle lacks; one
        # for a smaller quandle is the cocycle extended by the identity
        fpath = tmp_path / "f5.cocycle"
        fpath.write_text(format_cocycle(Cocycle2(C2, ((C2.identity,) * 5,) * 5)))
        code, _, err = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(fpath))
        assert code == 1 and "out of range for 4 elements" in err

    def test_garbage_cocycle_file(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        fpath = tmp_path / "junk.cocycle"
        fpath.write_text("not a cocycle\n")
        code, _, err = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(fpath))
        assert code == 1 and "bad cocycle file" in err

    @pytest.mark.parametrize("line", ["0 1 -> 1,1", "-1 0 -> 1"])
    def test_cocycle_file_with_dropped_entries(self, capsys, tmp_path, line):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        fpath = tmp_path / "f.cocycle"
        fpath.write_text(f"A: 2\n{line}\n3 3 -> 0\n")
        code, _, err = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(fpath))
        assert code == 1 and "bad cocycle file" in err and repr(line) in err

    def test_non_conserved_flows_rejected(self, capsys, tmp_path):
        # the same document is rejected by validate and invariants
        bad = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 2)])
        p = tmp_path / "bad.json"
        p.write_text(encode(bad))
        code, out, err = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", "builtin")
        assert code == 1 and out == "" and "not a valid comte" in err
        for argv in (("validate", str(p)), ("invariants", str(p))):
            assert run(capsys, *argv)[0] == 1

    @pytest.mark.parametrize("line", ["0 4 -> 1", "4 0 -> 1", "0 1000000000 -> 1"])
    def test_cocycle_index_at_or_above_quandle_size_rejected(self, capsys, tmp_path, line):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        fpath = tmp_path / "f.cocycle"
        fpath.write_text(f"A: 2\n{line}\n")
        code, _, err = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(fpath))
        assert code == 1 and "bad cocycle file" in err and repr(line) in err

    def test_malformed_cocycle_line_is_quoted(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(encode(TREFOIL))
        fpath = tmp_path / "f.cocycle"
        fpath.write_text("A: 2\n0 1 2 -> 1\n")
        code, _, err = run(capsys, "statesum", "--comte", str(p), "--quandle", "tetrahedron", "--cocycle", str(fpath))
        assert code == 1 and "bad cocycle file" in err and "'0 1 2 -> 1'" in err and "unpack" not in err


class TestHashSeedIndependence:
    def test_stdout_is_the_same_under_two_hash_seeds(self, tmp_path):
        """Identical invocations print identical bytes, whatever the string
        hash seed of the process."""
        docs = {"G2": G2, "trefoil": TREFOIL, "three": comte_of_gauss(parse_gauss_code(CORPUS[-1].gauss))}
        pairs = {name: (before, after) for name, before, after in REIDEMEISTER_PAIRS}
        for i, code in enumerate(pairs["r2"]):
            docs[f"r2_{i}"] = comte_of_gauss(parse_gauss_code(code))
        path = {}
        for name, c in docs.items():
            path[name] = tmp_path / f"{name}.json"
            path[name].write_text(encode(c))
        commands = [
            ["moves", "enumerate", "--inverse", "--comte", path["G2"]],
            ["moves", "search", "--comte", path["r2_0"], "--target", path["r2_1"]],
            ["census", "--vertices", "2", "--class", "q", "--max-degree", "3", "--table"],
            ["bracket", "--graph", path["trefoil"], "--semivirtual", "0,1,2"],
            ["invariants", path["three"], "--delta-max", "2", "--presentations"],
        ]
        src = str(Path(comtes.__file__).resolve().parent.parent)
        for argv in commands:
            outs = []
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                proc = subprocess.run(
                    [sys.executable, "-m", "comtes.cli", *map(str, argv)],
                    env=env, capture_output=True, timeout=120,
                )
                assert proc.returncode == 0, (argv, proc.stderr)
                outs.append(proc.stdout)
            assert outs[0] == outs[1] and outs[0], argv


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--class", "r", "--vertices", "3", "--max-degree", "2", "--table"],
            ["moves", "enumerate", "--comte", "C", "--inverse", "--max-split-slots", "12"],
        ],
    )
    def test_reader_that_closes_stdout_ends_the_command_quietly(self, tmp_path, argv):
        # the reader takes one line and closes the pipe; the command has far
        # more to write than the pipe holds, so a later write must fail
        p = tmp_path / "bouquet.json"
        p.write_text(encode(comte("a", [("a", "a", "a", 0)] * 4)))
        env = dict(os.environ, PYTHONPATH=str(Path(comtes.__file__).resolve().parent.parent))
        proc = subprocess.Popen(
            [sys.executable, "-m", "comtes.cli", *(str(p) if a == "C" else a for a in argv)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
        proc.stderr.close()
        assert first and (code, err) == (1, b"")
