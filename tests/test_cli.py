import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from laminate import fixtures, formats
from laminate.cli import main


@pytest.fixture()
def files(tmp_path):
    fig8 = {
        "stationary": {
            "graph": formats.branched_graph_to_json(fixtures.figure_eight()),
            "map": formats.cellular_map_to_json(fixtures.figure_eight_double()),
        }
    }
    solenoid = {
        "stationary": {
            "graph": formats.branched_graph_to_json(fixtures.circle()),
            "map": formats.cellular_map_to_json(fixtures.circle_double()),
        }
    }
    paths = {
        "fig8": tmp_path / "fig8.json",
        "solenoid": tmp_path / "solenoid.json",
        "fib": tmp_path / "fib.json",
        "dyadic": tmp_path / "dyadic.json",
        "tree": tmp_path / "tree.json",
        "graph": tmp_path / "fig8_graph.json",
        "bad": tmp_path / "bad.json",
    }
    paths["fig8"].write_text(json.dumps(fig8))
    paths["solenoid"].write_text(json.dumps(solenoid))
    paths["fib"].write_text(
        json.dumps({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}})
    )
    paths["dyadic"].write_text(json.dumps({"circle_degrees": [2] * 8}))
    paths["tree"].write_text(
        json.dumps(
            {
                "dimension": 2,
                "vertices": ["v0", "v1", "v2"],
                "edges": [["v1", "v0"], ["v2", "v0"]],
                "sectors": {
                    "v0": [],
                    "v1": [["1", "0"], ["0", "-1"]],
                    "v2": [["1", "0"], ["0", "-1"]],
                },
            }
        )
    )
    paths["graph"].write_text(
        json.dumps(formats.branched_graph_to_json(fixtures.figure_eight()))
    )
    paths["bad"].write_text("{ this is not json")
    return paths


def test_check_flatten_exit_codes(files, capsys):
    assert main(["check-flatten", "--system", str(files["fig8"])]) == 2
    out = capsys.readouterr().out
    assert "not a lamination" in out and "germ" in out
    assert main(["check-flatten", "--system", str(files["solenoid"])]) == 0
    assert "flattening" in capsys.readouterr().out


def test_check_flatten_corrupt_json(files, capsys):
    assert main(["check-flatten", "--system", str(files["bad"])]) == 1
    assert "error" in capsys.readouterr().err


def test_approximants_counts(files, capsys):
    assert main(["approximants", "--input", str(files["fib"]), "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "k=0: 1 vertices, 2 edges" in out
    assert "k=1: 3 vertices, 4 edges" in out


def test_approximants_counts_build_only_the_emitted_level(files, tmp_path, monkeypatch, capsys):
    from laminate import cli
    from laminate.approximants import build_approximant

    built = []
    monkeypatch.setattr(cli, "build_approximant",
                        lambda oracle, k: built.append(k) or build_approximant(oracle, k))
    report = tmp_path / "counts.json"
    argv = ["--report", str(report), "approximants", "--input", str(files["fib"]), "--k", "3"]
    assert main(argv) == 0
    assert built == []  # the counts are the language's sizes
    counts = json.loads(report.read_text())["data"]["counts"]
    oracle = formats.load_oracle(files["fib"])
    assert counts == [{"k": k, "vertices": len(c.vertices), "edges": len(c.edges)}
                      for k, c in ((k, build_approximant(oracle, k)) for k in range(4))]
    printed = capsys.readouterr().out
    assert main([*argv, "--emit", "dot"]) == 0
    assert built == [3]  # the top level, once
    assert json.loads(report.read_text())["data"]["counts"] == counts
    assert capsys.readouterr().out.startswith(printed + "digraph")


def test_approximants_dot_output(files, tmp_path, capsys):
    out_file = tmp_path / "a.dot"
    code = main(
        [
            "approximants",
            "--input",
            str(files["fib"]),
            "--k",
            "1",
            "--emit",
            "dot",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph") and '"aa" -> "ab"' in text


def test_approximants_json_round_trips(files, tmp_path):
    out_file = tmp_path / "a.json"
    code = main(
        [
            "approximants",
            "--input",
            str(files["fib"]),
            "--k",
            "1",
            "--emit",
            "json",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    graph = formats.branched_graph_from_json(json.loads(out_file.read_text()))
    assert len(graph.vertices) == 3 and len(graph.edges) == 4


def test_separation_command(files, capsys):
    code = main(
        [
            "separation",
            "--input",
            str(files["fib"]),
            "--x",
            "aab@1",
            "--y",
            "bab@1",
            "--max-k",
            "1",
        ]
    )
    assert code == 0
    assert "separated at collar radius 1" in capsys.readouterr().out


def test_metric_command_geometric_sum(files, capsys):
    code = main(
        [
            "metric",
            "--tower",
            str(files["dyadic"]),
            "--depth",
            "8",
            "--x",
            "0",
            "--y",
            "1",
        ]
    )
    assert code == 0
    assert "127/256" in capsys.readouterr().out


def test_deck_group_command(files, capsys):
    assert main(["deck-group", "--tower", str(files["dyadic"]), "--level", "4"]) == 0
    assert "degree 8, deck order 8" in capsys.readouterr().out


def test_rep_command(files, capsys):
    assert (
        main(["rep", "--tower", str(files["dyadic"]), "--loop", "0", "--depth", "4"])
        == 0
    )
    assert "[0, 1, 1, 1]" in capsys.readouterr().out


def test_local_model_command(files, capsys):
    code = main(
        ["local-model", "classes", "--tree", str(files["tree"]), "--point", "1/2,-1/2"]
    )
    assert code == 0
    assert "3 glue classes" in capsys.readouterr().out


def test_export_dot_round_trips_through_grammar(files, capsys):
    assert main(["export-dot", "--graph", str(files["graph"])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert out.count("{") == out.count("}") == 1
    assert "doublecircle" in out


def test_reports_are_deterministic_sans_timing(files, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (r1, r2):
        code = main(
            [
                "--seed",
                "7",
                "--report",
                str(path),
                "check-flatten",
                "--system",
                str(files["fig8"]),
            ]
        )
        assert code == 2
    a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
    for rec, path in ((a, r1), (b, r2)):
        rec.pop("elapsed_ms")
        rec["command"].remove(str(path))
    assert a == b
    assert a["seed"] == 7
    assert a["data"]["verdict"] == "not-lamination"


def test_inconclusive_exit_code(files, tmp_path):
    # two wedges swapped by the bond: the square of its germ map is the
    # identity, so no power flattens, and with no fixed vertex there is no
    # invariant germ pair to certify a non-lamination
    from laminate.branched_graph import Graph, CellularMap

    g = Graph.from_edges(
        vertices={"u", "v"},
        edges={"a": ("u", "u"), "b": ("u", "u"), "c": ("v", "v"), "d": ("v", "v")},
        sides={
            "u": ({("a", "+"), ("b", "+")}, {("a", "-"), ("b", "-")}),
            "v": ({("c", "+"), ("d", "+")}, {("c", "-"), ("d", "-")}),
        },
    )
    bond = CellularMap(
        g,
        g,
        {"u": "v", "v": "u"},
        {
            "a": (("c", 1), ("c", 1)),
            "b": (("d", 1), ("d", 1)),
            "c": (("a", 1), ("a", 1)),
            "d": (("b", 1), ("b", 1)),
        },
    )
    system_file = tmp_path / "spiral.json"
    system_file.write_text(
        json.dumps(
            {
                "stationary": {
                    "graph": formats.branched_graph_to_json(g),
                    "map": formats.cellular_map_to_json(bond),
                }
            }
        )
    )
    code = main(["check-flatten", "--system", str(system_file), "--window", "4"])
    assert code == 3


def _fails_cleanly(argv, tmp_path, capsys):
    """Exit 1 with one stderr line, no answer on stdout, and a report."""
    report = tmp_path / "report.json"
    assert main(["--report", str(report), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "error" in json.loads(report.read_text())["data"]


@pytest.mark.parametrize(
    "argv",
    [
        ["deck-group", "--level", "0"],
        ["deck-group", "--level", "-1"],
        ["deck-group", "--level", "9"],
        ["metric", "--x", "0", "--y", "1", "--depth", "9"],
    ],
)
def test_tower_levels_out_of_range(argv, tmp_path, capsys):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({"circle_degrees": [2, 2, 2]}))
    _fails_cleanly([argv[0], "--tower", str(tower), *argv[1:]], tmp_path, capsys)


def test_deck_group_refuses_a_level_that_is_not_a_covering(tmp_path, capsys):
    # vertex 0 has two out-edges over the base loop a, vertex 1 none
    tower = tmp_path / "nc.json"
    tower.write_text(json.dumps({
        "base": {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"}]},
        "levels": [{
            "total": {"vertices": ["0", "1"], "edges": [{"id": "a0", "src": "0", "dst": "0"},
                                                         {"id": "a1", "src": "0", "dst": "1"}]},
            "vertex_map": {"0": "w", "1": "w"},
            "edge_map": {"a0": "a", "a1": "a"},
        }],
    }))
    argv = ["deck-group", "--tower", str(tower), "--level", "2"]
    _fails_cleanly(argv, tmp_path, capsys)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: levels[0]: not a covering: two out-edges at one vertex share a base edge\n")


def test_approximants_negative_radius(files, tmp_path, capsys):
    _fails_cleanly(
        ["approximants", "--input", str(files["fib"]), "--k", "-1"], tmp_path, capsys
    )


@pytest.mark.parametrize("command", [["approximants", "--k", "1"],
                                     ["separation", "--x", "a@0", "--y", "a@0"]])
def test_empty_alphabet_fails_at_load(command, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"alphabet": []}))
    _fails_cleanly([command[0], "--input", str(empty), *command[1:]], tmp_path, capsys)
    assert main([command[0], "--input", str(empty), *command[1:]]) == 1
    assert capsys.readouterr().err == "error: the alphabet is empty\n"


def test_separation_negative_max_k(files, tmp_path, capsys):
    argv = ["separation", "--input", str(files["fib"]), "--x", "aab@1", "--y", "bab@1"]
    _fails_cleanly([*argv, "--max-k", "-2"], tmp_path, capsys)


def test_deck_group_enumerates_once(files, tmp_path, monkeypatch, capsys):
    from laminate.coverings import GraphCovering

    calls = []
    original = GraphCovering.deck_group

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GraphCovering, "deck_group", counting)
    report = tmp_path / "deck.json"
    argv = ["deck-group", "--tower", str(files["dyadic"]), "--level", "4"]
    assert main(["--report", str(report), *argv]) == 0
    assert len(calls) == 1
    data = json.loads(report.read_text())["data"]
    assert data == {
        "degree": 8,
        "deck_order": 8,
        "regular": True,
        "orbit": [0, 1, 2, 3, 4, 5, 6, 7],
        "free_transitive": True,
        "exit_code": 0,
    }
    assert "level 4: degree 8, deck order 8, regular: True" in capsys.readouterr().out


def test_deck_group_report_of_an_irregular_tower(tmp_path, capsys):
    # over the two-petal rose, a swaps sheets 0, 1 and 2, 3 while b swaps
    # 0 and 2: only the identity and (0 2)(1 3) commute with both
    perms = {"a": [1, 0, 3, 2], "b": [2, 1, 0, 3]}
    edges = [{"id": f"{a}{i}", "src": str(i), "dst": str(j)}
             for a, perm in perms.items() for i, j in enumerate(perm)]
    tower = tmp_path / "irregular.json"
    tower.write_text(json.dumps({
        "base": {"vertices": ["w"], "edges": [{"id": a, "src": "w", "dst": "w"} for a in perms]},
        "levels": [{"total": {"vertices": ["0", "1", "2", "3"], "edges": edges},
                    "vertex_map": {str(i): "w" for i in range(4)},
                    "edge_map": {e["id"]: e["id"][0] for e in edges}}]}))
    report = tmp_path / "deck.json"
    assert main(["--report", str(report), "deck-group", "--tower", str(tower), "--level", "2"]) == 0
    assert capsys.readouterr().out == "level 2: degree 4, deck order 2, regular: False\n"
    data = json.loads(report.read_text())["data"]
    assert data == {
        "degree": 4,
        "deck_order": 2,
        "regular": False,
        "orbit": [0, 2],
        "free_transitive": False,
        "exit_code": 0,
    }
    assert data["deck_order"] < data["degree"] and set(data["orbit"]) < set(range(4))


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_rep_without_levels_fails_cleanly(depth, tmp_path, capsys):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({"circle_degrees": [2, 2, 2]}))
    argv = ["rep", "--tower", str(tower), "--loop", "0", f"--depth={depth}"]
    _fails_cleanly(argv, tmp_path, capsys)


def test_system_with_bad_edges_fails_cleanly(tmp_path, capsys):
    graph = formats.branched_graph_to_json(fixtures.figure_eight())
    graph["edges"] = 5
    system = tmp_path / "bad_edges.json"
    system.write_text(json.dumps({"stationary": {
        "graph": graph, "map": formats.cellular_map_to_json(fixtures.figure_eight_double()),
    }}))
    _fails_cleanly(["check-flatten", "--system", str(system)], tmp_path, capsys)


def test_check_flatten_on_a_tower_file_names_the_keys(tmp_path, capsys):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({"circle_degrees": [2, 2]}))
    report = tmp_path / "report.json"
    assert main(["--report", str(report), "check-flatten", "--system", str(tower)]) == 1
    err = capsys.readouterr().err
    assert err == "error: a system needs 'stationary' or 'levels' and 'bonds'\n"
    assert "needs 'stationary'" in json.loads(report.read_text())["data"]["error"]


def test_cyclic_tower_commands_never_compare_graphs(files, monkeypatch, capsys):
    from laminate.branched_graph import Graph

    def refuse(self, other):
        raise AssertionError("graphs compared by value")

    monkeypatch.setattr(Graph, "__eq__", refuse)
    tower = str(files["dyadic"])
    assert main(["rep", "--tower", tower, "--loop", "0 0 0", "--depth", "8"]) == 0
    assert main(["metric", "--tower", tower, "--x", "3", "--y", "11", "--depth", "8"]) == 0
    assert main(["deck-group", "--tower", tower, "--level", "6"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "representation of loop '0 0 0': base-point orbit [0, 1, 3, 3, 3, 3, 3, 3]",
        "d(x, y) = 15/256 (truncated at depth 8, tail below 1/256)",
        "level 6: degree 32, deck order 32, regular: True",
    ]


def _cyclic_metric(sizes, x, y):
    total = sum((Fraction(1, 2 ** k) for k in range(2, len(sizes) + 1) if (x - y) % sizes[k - 1]),
                Fraction(0))
    return formats.format_fraction(total)


@pytest.mark.parametrize("d", [2, 3])
def test_rep_and_metric_at_depth_60(d, tmp_path):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({"circle_degrees": [d] * 59}))
    report = tmp_path / "report.json"
    sizes = [d ** (k - 1) for k in range(1, 61)]
    rng = Random(d)

    def ask(*argv):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--report", str(report), *argv, "--tower", str(tower), "--depth", "60"]) == 0
        assert time.perf_counter() - start < 0.05
        return json.loads(report.read_text())["data"]

    for _ in range(4):
        word = [rng.choice(["0", "-0"]) for _ in range(rng.randrange(1, 9))]
        w = word.count("0") - word.count("-0")
        assert ask("rep", f"--loop={' '.join(word)}")["orbit"] == [w % n for n in sizes]
        x = rng.randrange(-(d ** 70), d ** 70)
        y = x + rng.randrange(1, 100) * d ** rng.randrange(60)
        data = ask("metric", f"--x={x}", f"--y={y}")
        assert data["metric"] == _cyclic_metric(sizes, x, y) != "0"
        assert data["error_bound"] == f"1/{2 ** 60}"


def test_rep_and_metric_build_no_level_graph(tmp_path, monkeypatch, capsys):
    from laminate.branched_graph import Graph

    original = Graph.cycle.__func__

    def refuse(cls, n):
        if n > 1:
            raise AssertionError(f"cycle graph of {n} vertices built")
        return original(cls, n)

    monkeypatch.setattr(Graph, "cycle", classmethod(refuse))
    tower = tmp_path / "dyadic.json"
    tower.write_text(json.dumps({"circle_degrees": [2] * 19}))
    assert main(["rep", "--tower", str(tower), "--loop", "0 0 0", "--depth", "20"]) == 0
    assert main(["metric", "--tower", str(tower), "--x", "3", "--y", "11", "--depth", "20"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"representation of loop '0 0 0': base-point orbit {[0, 1] + [3] * 18}",
        f"d(x, y) = {_cyclic_metric([2 ** k for k in range(20)], 3, 11)} "
        f"(truncated at depth 20, tail below 1/{2 ** 20})",
    ]


def test_zeroth_power_metric_answers_on_a_non_regular_tower(tmp_path, capsys):
    from test_coverings import non_normal_degree3_cover

    cov = non_normal_degree3_cover()
    total = cov.total
    ids = [f"{letter}{i}" for letter, i in total.edge_ids]
    level = {"total": {"vertices": [str(v) for v in total.vertex_ids],
                       "edges": [{"id": e, "src": str(total.vertex_ids[int(s)]),
                                  "dst": str(total.vertex_ids[int(t)])}
                                 for e, s, t in zip(ids, total.esrc, total.edst)]},
             "vertex_map": {str(v): "w" for v in total.vertex_ids},
             "edge_map": {e: e[0] for e in ids}}
    tower = tmp_path / "non_normal.json"
    base = {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"},
                                          {"id": "b", "src": "w", "dst": "w"}]}
    tower.write_text(json.dumps({"base": base, "levels": [level]}))
    # b lifts to a loop at the base point, a to a path off it
    for x, y, d in (("0", "b", "0"), ("0", "a", "1/4")):
        assert main(["metric", "--tower", str(tower), f"--x={x}", f"--y={y}", "--depth", "2"]) == 0
        assert capsys.readouterr().out == f"d(x, y) = {d} (truncated at depth 2, tail below 1/4)\n"
    assert main(["metric", "--tower", str(tower), "--x=1", "--y=b", "--depth", "2"]) == 1
    assert "no deck element" in capsys.readouterr().err


def test_rep_refuses_a_tower_that_is_not_a_covering(tmp_path, capsys):
    # vertex 0 has two out-edges over the base loop a, vertex 1 none
    level = {"total": {"vertices": ["0", "1"], "edges": [{"id": "a0", "src": "0", "dst": "0"},
                                                       {"id": "a1", "src": "0", "dst": "1"}]},
             "vertex_map": {"0": "w", "1": "w"}, "edge_map": {"a0": "a", "a1": "a"}}
    tower = tmp_path / "tower.json"
    base = {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"}]}
    tower.write_text(json.dumps({"base": base, "levels": [level]}))
    report = tmp_path / "report.json"
    assert main(["--report", str(report), "rep", "--tower", str(tower), "--loop", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: levels[0]: not a covering: two out-edges at one vertex share a base edge\n"
    assert json.loads(report.read_text())["data"]["error"].startswith("levels[0]: not a covering: ")


def test_one_parser_serves_every_call(files, capsys):
    from laminate import cli

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", "import laminate.cli as c; print(c.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert probe.stdout == "0\n"  # importing builds no parser

    assert main(["deck-group"]) == 1  # an argparse error first
    capsys.readouterr()
    argv = ["deck-group", "--tower", str(files["dyadic"]), "--level", "3"]
    assert main(argv) == 0
    in_process = capsys.readouterr()
    assert cli.build_parser() is cli.build_parser()
    fresh = subprocess.run(
        [sys.executable, "-m", "laminate.cli", *argv], capture_output=True, text=True, env=env,
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, in_process.out, in_process.err)


def test_half_edge_on_no_side_fails_at_load(tmp_path, capsys):
    # b+ is on no side of w: the graph is malformed, not a non-lamination
    system = tmp_path / "nosides.json"
    system.write_text(json.dumps({"stationary": {
        "graph": {"vertices": ["w"],
                  "edges": [{"id": "a", "src": "w", "dst": "w"}, {"id": "b", "src": "w", "dst": "w"}],
                  "sides": {"w": {"A": ["a+"], "B": ["a-", "b-"]}}},
        "map": {"vertex_map": {"w": "w"}, "edge_map": {"a": ["a", "b"], "b": ["b", "a"]}},
    }}))
    argv = ["check-flatten", "--system", str(system)]
    _fails_cleanly(argv, tmp_path, capsys)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: half-edge ('b', '+') missing from the sides\n"


def _rose_graph(edges, vertices=("w",)):
    return {"vertices": list(vertices),
            "edges": [{"id": e, "src": "w", "dst": "w"} for e in edges],
            "sides": {"w": {"A": [f"{e}+" for e in edges], "B": [f"{e}-" for e in edges]}}}


def _cover_tower(edges, vertices):
    return {"base": {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"}]},
            "levels": [{"total": {"vertices": list(vertices),
                                  "edges": [{"id": e, "src": "0", "dst": "0"} for e in edges]},
                        "vertex_map": {"0": "w"}, "edge_map": {e: "a" for e in edges}}]}


REPEATS = {
    "check-flatten": ({"stationary": {"graph": _rose_graph(["a", "a"]),
                                      "map": {"vertex_map": {"w": "w"}, "edge_map": {"a": ["a", "a"]}}}},
                      ["--system"], [], "repeated edge id 'a'"),
    "export-dot": (_rose_graph(["a"], ["w", "w"]), ["--graph"], [], "repeated vertex id 'w'"),
    "deck-group": (_cover_tower(["a0", "a0"], ["0"]), ["--tower"], ["--level", "1"],
                   "levels[0]: repeated edge id 'a0'"),
    "rep": (_cover_tower(["a0"], ["0", "0"]), ["--tower"], ["--loop", "a"], "levels[0]: repeated vertex id '0'"),
    "metric": (_cover_tower(["a0", "a0"], ["0"]), ["--tower"], ["--x", "0", "--y", "1"],
               "levels[0]: repeated edge id 'a0'"),
    "local-model": ({"dimension": 1, "vertices": ["v", "v"], "edges": [["v", "v"]]},
                    ["classes", "--tree"], ["--point", "0"], "repeated vertex id 'v'"),
}


@pytest.mark.parametrize("command", sorted(REPEATS))
def test_repeated_ids_fail_at_load(command, tmp_path, capsys):
    data, flag, rest, message = REPEATS[command]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = [command, *flag, str(path), *rest]
    _fails_cleanly(argv, tmp_path, capsys)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


ROSE_AB = json.dumps(_rose_graph(["a", "b"]))
REPEATED_KEYS = {
    # keeping the last value of "b" would read the Fibonacci rose a -> ab, b -> a
    "edge map": ('{"stationary": {"graph": %s, "map": {"vertex_map": {"w": "w"}, '
                 '"edge_map": {"a": ["a", "b"], "b": ["b", "b"], "b": ["a"]}}}}' % ROSE_AB, {}, "'b'"),
    "top level": ('{"stationary": {"graph": %s, "map": "map.json"}, "stationary": 1}' % ROSE_AB,
                  {"map.json": '{"vertex_map": {"w": "w"}, "edge_map": {"a": ["a"], "b": ["b"]}}'},
                  "'stationary'"),
    "graph file": ('{"stationary": {"graph": "graph.json", "map": {"vertex_map": {"w": "w"}, '
                   '"edge_map": {"a": ["a", "b"], "b": ["a"]}}}}',
                   {"graph.json": ROSE_AB[:-1] + ', "sides": {"w": {"A": ["a+", "b+"], "B": ["a-", "b-"]}}}'},
                   "'sides'"),
    "bond file": ('{"levels": [%s, %s], "bonds": ["bond.json"]}' % (ROSE_AB, ROSE_AB),
                  {"bond.json": '{"vertex_map": {"w": "w"}, "vertex_map": {"w": "w"}, '
                                '"edge_map": {"a": ["a"], "b": ["b"]}}'},
                  "'vertex_map'"),
}


@pytest.mark.parametrize("where", sorted(REPEATED_KEYS))
def test_repeated_object_keys_in_a_system_fail_at_load(where, tmp_path, capsys):
    text, named_files, key = REPEATED_KEYS[where]
    for name, body in named_files.items():
        (tmp_path / name).write_text(body)
    system = tmp_path / "system.json"
    system.write_text(text)
    argv = ["check-flatten", "--system", str(system)]
    _fails_cleanly(argv, tmp_path, capsys)
    assert json.loads((tmp_path / "report.json").read_text())["data"]["error"] == f"repeated object key {key}"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: repeated object key {key}\n"


REPEATED_KEYS_ELSEWHERE = {
    # each would load, keeping the last value of the repeated key
    "export-dot": ('{"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"}], '
                   '"sides": {"w": {"A": ["a-"], "B": ["a+"]}}, "sides": {"w": {"A": ["a+"], "B": ["a-"]}}}',
                   ["--graph"], [], "'sides'"),
    "approximants": ('{"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}, "rules": {"a": "ab", "b": "ba"}}',
                     ["--input"], ["--k", "1"], "'rules'"),
    "local-model": ('{"dimension": 2, "dimension": 1, "vertices": ["v"], "edges": []}',
                    ["classes", "--tree"], ["--point", "0"], "'dimension'"),
}


@pytest.mark.parametrize("command", sorted(REPEATED_KEYS_ELSEWHERE))
def test_repeated_object_keys_in_other_inputs_fail_at_load(command, tmp_path, capsys):
    text, flag, rest, key = REPEATED_KEYS_ELSEWHERE[command]
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [command, *flag, str(path), *rest]
    _fails_cleanly(argv, tmp_path, capsys)
    assert json.loads((tmp_path / "report.json").read_text())["data"]["error"] == f"repeated object key {key}"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: repeated object key {key}\n"


NON_COVERING_ASKS = [
    ("THREE_EDGES", ["deck-group", "--level", "2"]),
    ("THREE_EDGES", ["rep", "--loop", "a"]),
    ("THREE_EDGES", ["metric", "--x=1", "--y=a", "--depth", "2"]),
    ("BAD_TOP", ["deck-group", "--level", "3"]),
    ("BAD_TOP", ["rep", "--loop", "a"]),
    ("BAD_TOP", ["metric", "--x=0", "--y=a", "--depth", "3"]),
    ("TWO_LOOPS", ["deck-group", "--level", "2"]),
    ("TWO_LOOPS", ["rep", "--loop", "a"]),
    ("TWO_LOOPS", ["metric", "--x=1", "--y=a", "--depth", "2"]),
]


@pytest.mark.parametrize("name, argv", NON_COVERING_ASKS)
def test_questions_on_a_level_that_is_not_a_covering_fail_cleanly(name, argv, tmp_path, capsys):
    import test_formats

    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps(getattr(test_formats, name)))
    argv = [argv[0], "--tower", str(tower), *argv[1:]]
    refusal = {"THREE_EDGES": f"levels[0]: {test_formats.NOT_A_COVERING}",
               "BAD_TOP": f"levels[1]: {test_formats.NOT_A_COVERING}",
               "TWO_LOOPS": test_formats.NOT_CONNECTED}[name]
    _fails_cleanly(argv, tmp_path, capsys)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["data"]["error"] == refusal
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {refusal}\n"


@pytest.mark.parametrize("argv", [["deck-group", "--level", "2"], ["rep", "--loop", "a"],
                                  ["metric", "--x=1", "--y=a", "--depth", "2"]])
def test_an_unknown_base_vertex_fails_at_load(argv, tmp_path, capsys):
    from test_formats import BAD_TOP

    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({**BAD_TOP, "base_vertex": "nope"}))
    argv = [argv[0], "--tower", str(tower), *argv[1:]]
    _fails_cleanly(argv, tmp_path, capsys)
    assert json.loads((tmp_path / "report.json").read_text())["data"]["error"] == "unknown base vertex 'nope'"
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: unknown base vertex 'nope'\n"


def test_questions_below_a_level_that_is_not_a_covering_answer(tmp_path, capsys):
    from test_formats import BAD_TOP

    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps(BAD_TOP))
    for argv in (["deck-group", "--level", "2"], ["rep", "--loop", "a", "--depth", "2"],
                 ["metric", "--x=0", "--y=a", "--depth", "2"]):
        assert main([argv[0], "--tower", str(tower), *argv[1:]]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "level 2: degree 2, deck order 2, regular: True",
        "representation of loop 'a': base-point orbit [0, 1]",
        "d(x, y) = 1/4 (truncated at depth 2, tail below 1/4)",
    ]


def test_metric_reads_a_power_from_ascii_digits_only(tmp_path, capsys):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({"circle_degrees": [2, 2, 2]}))
    ask = ["metric", "--tower", str(tower), "--y=1", "--depth", "4"]
    for x, named in (("\u0661", "\u0661"), (" 3", "3"), ("+1", "+1"), ("1_0", "1_0")):
        _fails_cleanly([*ask, f"--x={x}"], tmp_path, capsys)
        assert main([*ask, f"--x={x}"]) == 1
        assert capsys.readouterr().err == f"error: unknown base edge {named!r}\n"
    assert main([*ask, "--x=-3"]) == 0
    assert capsys.readouterr().out.startswith(f"d(x, y) = {_cyclic_metric([1, 2, 4, 8], -3, 1)} ")


BOOLEANS = {
    "circle degree": ({"circle_degrees": [True, 2]}, ["deck-group", "--tower"], ["--level", "3"],
                      "every entry of 'circle_degrees' must be an integer"),
    "tree dimension": ({"dimension": True, "vertices": ["v"], "edges": []},
                       ["local-model", "classes", "--tree"], ["--point", "0"],
                       "'dimension' must be an integer"),
    "tree edge": ({"dimension": 1, "vertices": [1, 2], "edges": [[True, 2]]},
                  ["local-model", "classes", "--tree"], ["--point", "0"],
                  "every entry of 'edges' must be a [source, target] pair"),
    "base vertex": ({"base": {"vertices": [True], "edges": [{"id": "a", "src": True, "dst": True}]},
                     "levels": []}, ["rep", "--tower"], ["--loop", "a"],
                    "every entry of 'vertices' must be a string or an integer"),
    "base edge": ({"base": {"vertices": ["w"], "edges": [{"id": True, "src": "w", "dst": "w"}]},
                   "levels": []}, ["rep", "--tower"], ["--loop", "1"],
                  "every entry of 'edges' needs an 'id', a 'src' and a 'dst' id"),
    "edge end": ({"base": {"vertices": [1], "edges": [{"id": "a", "src": True, "dst": 1}]},
                  "levels": []}, ["rep", "--tower"], ["--loop", "a"],
                 "every entry of 'edges' needs an 'id', a 'src' and a 'dst' id"),
    "base point": ({"base": {"vertices": [0, 1], "edges": [{"id": "a", "src": 0, "dst": 1},
                                                           {"id": "b", "src": 1, "dst": 0}]},
                    "levels": [], "base_vertex": True}, ["rep", "--tower"], ["--loop", "b a"],
                   "'base_vertex' must be a string or an integer"),
    "vertex map": ({"base": {"vertices": [1], "edges": [{"id": "a", "src": 1, "dst": 1}]},
                    "levels": [{"total": {"vertices": ["0"], "edges": [{"id": "a0", "src": "0", "dst": "0"}]},
                                "vertex_map": {"0": True}, "edge_map": {"a0": "a"}}]},
                   ["rep", "--tower"], ["--loop", "a"],
                   "levels[0]: every entry of 'vertex_map' must be a string or an integer"),
}


@pytest.mark.parametrize("case", sorted(BOOLEANS))
def test_booleans_are_not_integers_or_ids(case, tmp_path, capsys):
    data, command, rest, message = BOOLEANS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = [*command, str(path), *rest]
    _fails_cleanly(argv, tmp_path, capsys)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


TREE = {"dimension": 2, "vertices": ["v0", "v1"], "edges": [["v1", "v0"]],
        "sectors": {"v0": [], "v1": [["1", "0"], ["0", "-1"]]}}


@pytest.mark.parametrize("tree, point", [(TREE, "1/0"),
                                         ({**TREE, "sectors": {"v1": [["1/0", "0"]]}}, "0,0")])
def test_a_zero_denominator_fails_cleanly(tree, point, tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    _fails_cleanly(["local-model", "classes", "--tree", str(path), "--point", point], tmp_path, capsys)
    assert json.loads((tmp_path / "report.json").read_text())["data"]["error"] == "zero denominator in '1/0'"


DEEP = "[" * 5000 + "]" * 5000
DEEP_READS = {
    # None: the deep file itself is named on the command line; then the
    # prefix of the error naming the deep file
    "system": (None, ["check-flatten", "--system"], [], ""),
    "system graph": (json.dumps({"stationary": {"graph": "deep.json", "map": {}}}),
                     ["check-flatten", "--system"], [], ""),
    "oracle": (None, ["approximants", "--input"], ["--k", "1"], ""),
    "tree": (None, ["local-model", "classes", "--tree"], ["--point", "0"], ""),
    "graph": (None, ["export-dot", "--graph"], [], ""),
    "tower": (None, ["rep", "--tower"], ["--loop", "a"], ""),
    "tower level": (json.dumps({"base": {"vertices": ["w"], "edges": []}, "levels": ["deep.json"]}),
                    ["deck-group", "--tower"], ["--level", "1"], "levels[0]: "),
}


@pytest.mark.parametrize("case", sorted(DEEP_READS))
def test_json_nested_too_deeply_fails_cleanly(case, tmp_path, capsys):
    text, command, rest, prefix = DEEP_READS[case]
    path = deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
    _fails_cleanly([*command, str(path), *rest], tmp_path, capsys)
    error = json.loads((tmp_path / "report.json").read_text())["data"]["error"]
    assert error == f"{prefix}{deep}: JSON nested too deeply"


@pytest.mark.parametrize("argv", [["deck-group", "--level", "2"], ["rep", "--loop", "0"],
                                  ["metric", "--x=1", "--y=0", "--depth", "3"]])
def test_a_cyclic_tower_refuses_an_unknown_base_vertex(argv, tmp_path, capsys):
    tower = tmp_path / "tower.json"
    argv = [argv[0], "--tower", str(tower), *argv[1:]]
    tower.write_text(json.dumps({"circle_degrees": [2, 2], "base_vertex": "nope"}))
    _fails_cleanly(argv, tmp_path, capsys)
    assert json.loads((tmp_path / "report.json").read_text())["data"]["error"] == "unknown base vertex 'nope'"
    answers = []
    for data in ({"circle_degrees": [2, 2]}, {"circle_degrees": [2, 2], "base_vertex": 0}):
        tower.write_text(json.dumps(data))
        assert main(argv) == 0
        answers.append(capsys.readouterr())
    assert answers[0] == answers[1] and answers[0].err == ""


ROSE_BOND = {"vertex_map": {"w": "w"}, "edge_map": {"a": ["a"], "b": ["a"]}}
TWO_CYCLE = {"vertices": ["p", "q"],
             "edges": [{"id": "a", "src": "p", "dst": "q"}, {"id": "b", "src": "q", "dst": "p"}],
             "sides": {"p": {"A": ["b-"], "B": ["a+"]}, "q": {"A": ["a-"], "B": ["b+"]}}}
BONDS_NOT_ONTO = {
    # b is missed
    "edges": ({"levels": [_rose_graph(["a", "b"]), _rose_graph(["a", "b"])], "bonds": [ROSE_BOND]},
              "bond 0 is not onto on edges"),
    # x -> ab passes through q only as a junction of its path, and no vertex maps to q
    "vertices": ({"levels": [TWO_CYCLE, _rose_graph(["x"])],
                  "bonds": [{"vertex_map": {"w": "p"}, "edge_map": {"x": ["a", "b"]}}]},
                 "bond 0 is not onto on vertices"),
}


@pytest.mark.parametrize("cells", sorted(BONDS_NOT_ONTO))
def test_a_bond_that_is_not_onto_fails_cleanly(cells, tmp_path, capsys):
    data, message = BONDS_NOT_ONTO[cells]
    system = tmp_path / "system.json"
    system.write_text(json.dumps(data))
    _fails_cleanly(["check-flatten", "--system", str(system)], tmp_path, capsys)
    assert json.loads((tmp_path / "report.json").read_text())["data"]["error"] == message


def test_an_integer_point_on_a_base_without_edges_fails_cleanly(tmp_path, capsys):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({"base": {"vertices": ["w"], "edges": []},
                                 "levels": [{"total": {"vertices": ["0"], "edges": []},
                                             "vertex_map": {"0": "w"}, "edge_map": {}}]}))
    _fails_cleanly(["metric", "--tower", str(tower), "--x", "1", "--y", "0", "--depth", "2"], tmp_path, capsys)
    assert json.loads((tmp_path / "report.json").read_text())["data"]["error"] == (
        "'1' is a power of the first base edge, but the base has no edges")
