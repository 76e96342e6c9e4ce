import itertools
import random

import pytest

from conndel.cli import main
from conndel.families import hook_gadget, shared_partner_instance
from conndel.formats import parse_undirected, serialize_undirected
from conndel.oracles import oracle_wbd
from conndel.solver import WbdInstance

from .catalog import complete

K4 = "p graph 4 6\ne 1 2 1\ne 1 3 1\ne 1 4 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n"
C5 = "p graph 5 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 1 5 1\n"
TRIANGLE = "p graph 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("k4", K4), ("c5", C5), ("tri", TRIANGLE)]:
        p = tmp_path / f"{name}.graph"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


class TestSolve:
    def test_yes_exit_zero(self, files, capsys):
        assert main(["solve", files["k4"], "--k", "1", "--wstar", "1"]) == 0
        out = capsys.readouterr().out
        assert "answer: yes" in out
        assert "witness: " in out

    def test_no_exit_one(self, files, capsys):
        assert main(["solve", files["c5"], "--k", "1", "--wstar", "1"]) == 1
        assert "answer: no" in capsys.readouterr().out

    def test_oracle_check(self, files, capsys):
        argv = [files["k4"], "--k", "2", "--wstar", "2"]
        assert main(["solve"] + argv) == 0
        assert main(["oracle", "wbd"] + argv) == 0
        assert capsys.readouterr().out.count("answer: yes") == 2

    def test_reports_search_counters(self, files, tmp_path, capsys):
        # The root's heavy order decides: its first candidate, {01, 23},
        # passes verification, so the node makes no DFS.
        assert main(["solve", files["k4"], "--k", "2", "--wstar", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        for line in (
            "branch-nodes: 1",
            "max-depth: 0",
            "enumerations: 0",
            "fallbacks: 0",
            "decided-before-dfs: 1",
        ):
            assert line in out
        # K28 plus a K4 attached to it by three hooks of weight 60, 59 and
        # 58 (``hook_gadget``); deleting two of them leaves the K4 hanging
        # on the third, which no degree sees.  One K28 edge, the chord,
        # weighs 30, the rest 1.  386 edges exceed mu(2) = 346, greedy's
        # picks (60, 30) miss w* = 90.5, so the root branches over 346
        # edges, each child freezing the siblings tried before it.  The 60
        # and 59 children are normalized, once their first candidate fails
        # verification, and are no's at depth 1 without branching; the 58
        # child (58 + 30) misses the top-k bound, which no later child's
        # bound exceeds, so it is the last one tried.
        base = complete(28).without_edges((0, 1))
        gadget = hook_gadget(random.Random(28), base, 2, (60.0, 59.0, 58.0), light=(1, 1))
        assert gadget.w_opt == 90.0 and gadget.instance.graph.m == 386
        p = tmp_path / "hot.graph"
        p.write_text(serialize_undirected(gadget.instance.graph, gadget.instance.weights))
        assert main(["solve", str(p), "--k", "2", "--wstar", "90.5"]) == 1
        out = capsys.readouterr().out.splitlines()
        for line in (
            "branch-nodes: 4",
            "max-depth: 1",
            "enumerations: 0",
            "fallbacks: 0",
            "decided-before-dfs: 0",
        ):
            assert line in out

    def test_deterministic_reports(self, files, capsys):
        def run():
            main(["solve", files["k4"], "--k", "2", "--wstar", "2"])
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if not l.startswith("elapsed")]

        assert run() == run() == run()

    def test_non_biconnected_input_reports_usage_error(self, tmp_path, capsys):
        p = tmp_path / "path.graph"
        p.write_text("p graph 3 2\ne 1 2 1\ne 2 3 1\n")
        assert main(["solve", str(p), "--k", "1", "--wstar", "1"]) == 2
        assert "not biconnected" in capsys.readouterr().err

    @pytest.mark.parametrize("k, wstar", [("1", "100"), ("1", "1"), ("0", "1"), ("0", "0")])
    def test_non_biconnected_input_exits_two_before_or_after_a_candidate(
        self, tmp_path, capsys, k, wstar
    ):
        # Two K4s sharing vertex 1: no vertex has degree 2, so at w* = 1 the
        # root's first candidate passes the degree rule and fails
        # verification; at w* = 100 the root has no candidate and makes no
        # DFS; w* = 0 is reached by the empty set.
        pairs = list(itertools.combinations((1, 2, 3, 4), 2))
        pairs += list(itertools.combinations((1, 5, 6, 7), 2))
        p = tmp_path / "bowtie.graph"
        p.write_text(f"p graph 7 12\n" + "".join(f"e {u} {v} 1\n" for u, v in pairs))
        assert main(["solve", str(p), "--k", k, "--wstar", wstar]) == 2
        assert "not biconnected" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_text("p graph 2 1\ne 1 5 1\n")
        assert main(["solve", str(p), "--k", "1", "--wstar", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_decimal_weights_exit_like_the_oracle(self, tmp_path):
        # 0.3 + 0.7 + 0.3 falls just short of 1.3 as one correctly rounded
        # sum, but reaches it when summed left to right.
        heavy = {(2, 4): "0.3", (2, 5): "0.7", (2, 6): "0.3"}
        pairs = itertools.combinations(range(1, 7), 2)
        text = "p graph 6 15\n" + "".join(
            f"e {u} {v} {heavy.get((u, v), '0')}\n" for u, v in pairs
        )
        p = tmp_path / "k6.graph"
        p.write_text(text)
        args = [str(p), "--k", "3", "--wstar", "1.3"]
        assert main(["solve", *args]) == main(["oracle", "wbd", *args])

    def test_explain_prints_analysis_when_reached(self, tmp_path, capsys):
        from conndel.solver import mu, normalize

        # The weighted subdivided hub just above mu(2): three freeze rounds,
        # each with its partner analysis, then the chord alone reaches w*.
        hub = shared_partner_instance(q=mu(2) + 1, k=2, subdivide=True)
        inst = normalize(hub.instance)
        text = serialize_undirected(inst.graph, inst.weights, inst.frozen)
        p = tmp_path / "hub.graph"
        p.write_text(text)
        code = main(["solve", str(p), "--k", "2", "--wstar", "2", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("partner analysis:") == 3
        assert "flow-calls: 3" in out.splitlines()


class TestOracleCommand:
    def test_wbd(self, files):
        assert main(["oracle", "wbd", files["k4"], "--k", "1", "--wstar", "1"]) == 0
        assert main(["oracle", "wbd", files["c5"], "--k", "1", "--wstar", "1"]) == 1

    def test_is(self, files):
        assert main(["oracle", "is", files["tri"], "--k", "1"]) == 0
        assert main(["oracle", "is", files["tri"], "--k", "2"]) == 1

    def test_budget_refusal_exit_three(self, files):
        assert (
            main(["oracle", "wbd", files["k4"], "--k", "1", "--wstar", "1", "--max-vertices", "3"])
            == 3
        )


class TestGenerateAndVerify:
    def test_gen_pcpsc_roundtrip_through_oracle(self, files, tmp_path):
        out = tmp_path / "pc.digraph"
        assert main(["gen", "pcpsc", files["tri"], "--k", "1", "--out", str(out)]) == 0
        assert (
            main(
                [
                    "oracle",
                    "pcpsc",
                    str(out),
                    "--k",
                    "1",
                    "--max-vertices",
                    "30",
                    "--max-edges",
                    "60",
                ]
            )
            == 0
        )

    def test_gen_vdpsc(self, files, tmp_path, capsys):
        out = tmp_path / "vd.digraph"
        assert main(["gen", "vdpsc", files["tri"], "--k", "1", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("p digraph")
        assert "# vertex" in text

    def test_verify_wbd_valid_and_invalid(self, files, tmp_path):
        w = tmp_path / "witness.txt"
        w.write_text("e 1 2\ne 3 4\n")  # a perfect matching of K4
        assert (
            main(["verify", "wbd", files["k4"], "--witness", str(w), "--k", "2", "--wstar", "2"])
            == 0
        )
        w2 = tmp_path / "bad.txt"
        w2.write_text("e 1 2\n")
        assert (
            main(["verify", "wbd", files["c5"], "--witness", str(w2), "--k", "1", "--wstar", "1"])
            == 1
        )

    def test_verify_pcpsc(self, files, tmp_path):
        d = tmp_path / "cyc.digraph"
        d.write_text("p digraph 4 4\na 1 2\na 2 3\na 3 4\na 4 1\n")
        w = tmp_path / "w.txt"
        w.write_text("a 1 2\n")
        assert main(["verify", "pcpsc", str(d), "--witness", str(w), "--k", "1"]) == 0
        w.write_text("a 2 1\n")
        assert main(["verify", "pcpsc", str(d), "--witness", str(w), "--k", "1"]) == 1

    def test_verify_vdpsc(self, files, tmp_path):
        d = tmp_path / "k2.digraph"
        d.write_text("p digraph 2 2\na 1 2\na 2 1\n")
        w = tmp_path / "w.txt"
        w.write_text("v 1\n")
        assert main(["verify", "vdpsc", str(d), "--witness", str(w), "--k", "1"]) == 0

    @pytest.mark.parametrize(
        "digraph, k, witness",
        [("p digraph 2 2\na 1 2\na 2 1\n", "2", "v 1\nv 2\n"), ("p digraph 0 0\n", "0", "")],
    )
    def test_verify_vdpsc_refuses_deleting_every_vertex(self, tmp_path, digraph, k, witness):
        # The oracle answers no here: a deletion must leave some vertex.
        d = tmp_path / "d.digraph"
        d.write_text(digraph)
        w = tmp_path / "w.txt"
        w.write_text(witness)
        assert main(["oracle", "vdpsc", str(d), "--k", k]) == 1
        assert main(["verify", "vdpsc", str(d), "--witness", str(w), "--k", k]) == 1

    @pytest.mark.parametrize(
        "kind, line", [("wbd", "e 1 x"), ("pcpsc", "a 1 2.5"), ("vdpsc", "v q")]
    )
    def test_verify_non_integer_witness_id_is_a_parse_error(self, tmp_path, capsys, kind, line):
        g = tmp_path / "input.txt"
        g.write_text(K4 if kind == "wbd" else "p digraph 2 2\na 1 2\na 2 1\n")
        w = tmp_path / "w.txt"
        w.write_text(f"# witness\n{line}\n")
        args = ["verify", kind, str(g), "--witness", str(w), "--k", "1", "--wstar", "1"]
        assert main(args) == 2
        assert "line 2: witness ids must be integers" in capsys.readouterr().err


class TestKernelizeCommand:
    def test_writes_reduced_instance_and_stats(self, files, tmp_path, capsys):
        out = tmp_path / "reduced.graph"
        code = main(["kernelize", files["k4"], "--k", "1", "--out", str(out)])
        assert code == 0
        stats = capsys.readouterr().out
        assert '"provider": "trivial"' in stats
        parsed = parse_undirected(out.read_text())
        assert parsed.graph.n >= 2

    def test_refuses_weighted_input(self, tmp_path, capsys):
        p = tmp_path / "weighted.graph"
        p.write_text("p graph 4 6\ne 1 2 3\ne 1 3 1\ne 1 4 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n")
        assert main(["kernelize", str(p), "--k", "1"]) == 2
        assert "unit weights" in capsys.readouterr().err

    def test_usage_error_exit_two(self):
        assert main(["kernelize"]) == 2

    def test_undecided_output_exits_zero(self, files, capsys):
        assert main(["kernelize", files["k4"], "--k", "2"]) == 0
        assert '"answer": null' in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["kernelize"], ["gen", "pcpsc"]])
    def test_unwritable_out_is_a_usage_error(self, files, capsys, command):
        out = files["dir"] / "missing" / "out.txt"
        args = command + [files["k4"], "--k", "1", "--out", str(out)]
        assert main(args) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err


class TestInputValidation:
    def test_weight_left_out_before_inf_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "noweight.graph"
        p.write_text(K4.replace("e 3 4 1", "e 3 4 inf"))
        assert main(["solve", str(p), "--k", "1", "--wstar", "1"]) == 2
        assert "line 7" in capsys.readouterr().err

    def test_nan_weight_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "nan.graph"
        p.write_text(K4.replace("e 3 4 1", "e 3 4 nan"))
        assert main(["solve", str(p), "--k", "1", "--wstar", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_nan_wstar_is_a_usage_error(self, files, capsys):
        assert main(["solve", files["k4"], "--k", "1", "--wstar", "nan"]) == 2
        assert "w*" in capsys.readouterr().err

    def test_negative_k_is_a_usage_error(self, files, capsys):
        assert main(["solve", files["k4"], "--k", "-1", "--wstar", "1"]) == 2
        assert main(["kernelize", files["k4"], "--k", "-1"]) == 2
        assert main(["oracle", "wbd", files["k4"], "--k", "-1"]) == 2
        d = files["dir"] / "cyc.digraph"
        d.write_text("p digraph 3 3\na 1 2\na 2 3\na 3 1\n")
        for kind, path in (("pcpsc", d), ("vdpsc", d), ("is", files["k4"])):
            capsys.readouterr()
            assert main(["oracle", kind, str(path), "--k", "-1"]) == 2
            assert "k must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, k, wstar",
        [
            ("wbd", "-1", "1"),
            ("wbd", "1", "nan"),
            ("wbd", "1", "inf"),
            ("pcpsc", "-1", None),
            ("vdpsc", "-1", None),
        ],
    )
    def test_verify_refuses_what_solve_refuses(self, files, capsys, kind, k, wstar):
        w = files["dir"] / "witness.txt"
        if kind == "wbd":
            path = files["k4"]
            w.write_text("e 1 2\n")
        else:
            path = files["dir"] / "cyc.digraph"
            path.write_text("p digraph 3 3\na 1 2\na 2 3\na 3 1\n")
            w.write_text("a 1 2\n" if kind == "pcpsc" else "v 1\n")
        argv = ["verify", kind, str(path), "--witness", str(w), "--k", k]
        assert main(argv + (["--wstar", wstar] if wstar else [])) == 2
        err = capsys.readouterr().err
        assert ("k must be non-negative" if k == "-1" else "w* must be finite") in err

    @pytest.mark.parametrize("flag", ["--max-vertices", "--max-edges", "--max-k", "--max-candidates"])
    def test_negative_oracle_budget_is_a_usage_error(self, files, capsys, flag):
        name = flag[2:].replace("-", "_")
        for argv in (
            ["oracle", "wbd", files["k4"], "--k", "1", "--wstar", "1"],
            ["oracle", "is", files["tri"], "--k", "1"],
        ):
            capsys.readouterr()
            assert main(argv + [flag, "-1"]) == 2
            assert f"{name} must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--wstar", "1", "--oracle-check"],
            ["kernelize", "--provider", "exhaustive"],
            ["kernelize", "--max-terminals", "7"],
        ],
    )
    def test_removed_flags_are_unknown_arguments(self, files, capsys, argv):
        assert main(argv + [files["k4"], "--k", "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestKernelizeDecidedNo:
    def test_empty_pool_is_a_decided_no_under_the_default_provider(self, files, capsys):
        # Every edge of C5 is critical, so nothing is deletable at k = 1.
        assert main(["kernelize", files["c5"], "--k", "1"]) == 1
        assert '"answer": "no"' in capsys.readouterr().out

    def test_no_deletable_edge_left_exits_one(self, tmp_path, capsys):
        p = tmp_path / "c4.graph"
        p.write_text("p graph 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n")
        assert main(["kernelize", str(p), "--k", "1"]) == 1
        assert '"answer": "no"' in capsys.readouterr().out


class TestIndependentReferee:
    """``oracle wbd`` and ``verify wbd`` judge the instance as read, so a
    fault in the solver's criticality code cannot change their answers."""

    # C4 plus the chord 1-3: the chord is the one deletable edge.
    CHORDED_C4 = "p graph 4 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\ne 1 3 1\n"

    @pytest.fixture
    def chorded(self, tmp_path):
        p = tmp_path / "chorded.graph"
        p.write_text(self.CHORDED_C4)
        w = tmp_path / "chord.txt"
        w.write_text("e 1 3\n")
        return str(p), str(w)

    @pytest.fixture
    def chord_reported_critical(self, monkeypatch):
        """A planted fault: the solver's ``critical_tree`` also reports the
        chord."""
        import conndel.solver

        real = conndel.solver.critical_tree

        def faulty(g):
            crit, tree = real(g)
            return crit | {g.edge_between(1, 3)}, tree

        monkeypatch.setattr(conndel.solver, "critical_tree", faulty)

    def test_non_biconnected_input_exits_two(self, tmp_path, capsys):
        p = tmp_path / "path.graph"
        p.write_text("p graph 3 2\ne 1 2 1\ne 2 3 1\n")
        w = tmp_path / "w.txt"
        w.write_text("e 1 2\n")
        assert main(["oracle", "wbd", str(p), "--k", "1", "--wstar", "1"]) == 2
        assert "not biconnected" in capsys.readouterr().err
        args = ["verify", "wbd", str(p), "--witness", str(w), "--k", "1", "--wstar", "1"]
        assert main(args) == 2
        assert "not biconnected" in capsys.readouterr().err

    def test_oracle_ignores_a_faulty_critical_set(self, chorded, chord_reported_critical):
        path, _ = chorded
        parsed = parse_undirected(self.CHORDED_C4)
        raw = WbdInstance(parsed.graph, 1, 1.0, dict(parsed.weights), parsed.frozen)
        assert oracle_wbd(raw) is not None
        assert main(["oracle", "wbd", path, "--k", "1", "--wstar", "1"]) == 0

    def test_verify_ignores_a_faulty_critical_set(self, chorded, chord_reported_critical):
        path, witness = chorded
        args = ["verify", "wbd", path, "--witness", witness, "--k", "1", "--wstar", "1"]
        assert main(args) == 0
