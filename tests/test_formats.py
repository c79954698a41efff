import json
import re
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest
from helpers import cayley_tower_json, random_tower_json, reference_tower_levels

from laminate import fixtures, formats
from laminate.branched_graph import Graph
from laminate.coverings import cyclic_tower
from laminate.profinite import QuotientHom
from laminate.local_model import glue_classes
from laminate.subshift import LanguageOracle, fibonacci
from laminate.transversal import ClopenSet, Cylinder, is_equal

GOLDEN_FIG8_DOT = """digraph "laminate" {
  node [shape=circle];
  "w" [shape=doublecircle];
  "w" -> "w" [label="a"];
  "w" -> "w" [label="b"];
}
"""


def test_fraction_round_trip():
    for text in ("1/2", "-3/4", "7", "0"):
        assert formats.format_fraction(formats.parse_fraction(text)) == text


def test_point_parsing():
    assert formats.parse_point("1/2,-1/2") == (F(1, 2), F(-1, 2))


def test_half_edge_round_trip():
    assert formats.parse_half_edge("e+") == ("e", "+")
    assert formats.format_half_edge(("e", "-")) == "e-"
    with pytest.raises(ValueError):
        formats.parse_half_edge("e")


def test_step_round_trip():
    assert formats.parse_step("-a") == ("a", -1)
    assert formats.format_step(("a", 1)) == "a"


def test_branched_graph_round_trip():
    g = fixtures.figure_eight()
    data = formats.branched_graph_to_json(g)
    again = formats.branched_graph_from_json(json.loads(json.dumps(data)))
    assert again == g


def test_cellular_map_round_trip():
    f = fixtures.figure_eight_double()
    data = formats.cellular_map_to_json(f)
    again = formats.cellular_map_from_json(
        json.loads(json.dumps(data)), f.domain, f.codomain
    )
    assert again.vertex_map == f.vertex_map
    assert again.edge_map == f.edge_map


def test_branch_tree_round_trip():
    data = {
        "dimension": 2,
        "vertices": ["v0", "v1"],
        "edges": [["v1", "v0"]],
        "sectors": {"v0": [], "v1": [["1", "0"], ["0", "-1"]]},
    }
    tree = formats.branch_tree_from_json(data)
    assert (tree.dimension, tree.vertices, tree.edges) == (2, ("v0", "v1"), (("v1", "v0"),))
    assert {v: [h.normal for h in s.halfspaces] for v, s in tree.sector_of.items()} == {
        "v0": [], "v1": [(1, 0), (0, -1)]}
    assert len(glue_classes(tree, (F(1, 2), F(-1, 2)))) == 2


def test_branch_tree_sectors_are_read_by_id():
    # JSON object keys are strings: integer vertex 0 is keyed "0", as string vertex "0" is
    for ids in ([0, 1], ["0", "1"]):
        tree = formats.branch_tree_from_json({"dimension": 1, "vertices": ids, "edges": [ids],
                                              "sectors": {"0": [["1"]]}})
        assert [len(tree.sector_of[v].halfspaces) for v in ids] == [1, 0]
        assert glue_classes(tree, (F(-1, 2),)) == [frozenset(ids)]
    with pytest.raises(ValueError, match="'sectors' names unknown vertex '2'"):
        formats.branch_tree_from_json({"dimension": 1, "vertices": [0, 1], "edges": [[0, 1]],
                                       "sectors": {"2": []}})


@pytest.mark.parametrize("graph", [
    {"vertices": [0], "edges": [{"id": "a", "src": 0, "dst": 0}],
     "sides": {"0": {"A": ["a-"], "B": ["a+"]}}},
    {"vertices": ["w"], "edges": [{"id": 0, "src": "w", "dst": "w"}],
     "sides": {"w": {"A": ["0-"], "B": ["0+"]}}},
])
def test_graph_and_system_files_refuse_integer_ids_by_name(graph):
    refusal = "integer id 0: graph and system files name cells by strings"
    with pytest.raises(ValueError, match=refusal):
        formats.branched_graph_from_json(graph)
    with pytest.raises(ValueError, match=refusal):
        formats.system_from_json({"stationary": {"graph": graph, "map": {"vertex_map": {}, "edge_map": {}}}})


def test_system_files_with_references(tmp_path):
    g = formats.branched_graph_to_json(fixtures.circle())
    m = formats.cellular_map_to_json(fixtures.circle_double())
    (tmp_path / "circle.json").write_text(json.dumps(g))
    (tmp_path / "p2.json").write_text(json.dumps(m))
    (tmp_path / "system.json").write_text(
        json.dumps({"stationary": {"graph": "circle.json", "map": "p2.json"}})
    )
    system = formats.load_system(tmp_path / "system.json")
    assert system.stationary_flag
    assert system.level(0) == fixtures.circle()


def test_level_list_system(tmp_path):
    g = formats.branched_graph_to_json(fixtures.figure_eight())
    m = formats.cellular_map_to_json(fixtures.figure_eight_double())
    data = {"levels": [g, g, g], "bonds": [m, m]}
    (tmp_path / "system.json").write_text(json.dumps(data))
    system = formats.load_system(tmp_path / "system.json")
    assert not system.stationary_flag
    assert system.max_depth == 2


def test_oracle_inputs():
    sub = formats.oracle_from_json({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}})
    assert sub.words(2) == frozenset({"aa", "ab", "ba"})
    sft = formats.oracle_from_json({"alphabet": ["a", "b"], "forbidden": ["bb"]})
    assert sft.words(2) == frozenset({"aa", "ab", "ba"})
    full = formats.oracle_from_json({"alphabet": ["a", "b"]})
    assert len(full.words(2)) == 4


def test_clopen_round_trip():
    oracle = LanguageOracle.from_substitution(fibonacci())
    s = ClopenSet.from_cylinders(
        oracle, [Cylinder("ab", 0), Cylinder("ba", 1)]
    )
    data = {"radius": s.radius, "cylinders": [str(c) for c in s.cylinders()]}
    again = formats.clopen_from_json(json.loads(json.dumps(data)), oracle)
    assert is_equal(again, s)


@pytest.mark.parametrize("radius", [2.9, "2", True, -3, [1], None])
def test_clopen_radius_must_be_a_nonnegative_integer(radius):
    oracle = LanguageOracle.from_substitution(fibonacci())
    with pytest.raises(ValueError, match="'radius'"):
        formats.clopen_from_json({"radius": radius, "cylinders": ["ab@0"]}, oracle)


def test_tower_shorthand_and_files(tmp_path):
    short = formats.tower_from_json({"circle_degrees": [2, 3]})
    assert short.sizes == [1, 2, 6]
    base = {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"}]}
    level = {
        "total": {
            "vertices": ["0", "1"],
            "edges": [
                {"id": "a0", "src": "0", "dst": "1"},
                {"id": "a1", "src": "1", "dst": "0"},
            ],
        },
        "vertex_map": {"0": "w", "1": "w"},
        "edge_map": {"a0": "a", "a1": "a"},
    }
    (tmp_path / "tower.json").write_text(
        json.dumps({"base": base, "levels": [level]})
    )
    tower = formats.load_tower(tmp_path / "tower.json")
    assert tower.depth == 2
    assert tower.covering(2).degree() == 2


def test_parse_loop_tokens():
    tower = cyclic_tower([2])
    assert formats.parse_loop("0 0 -0", tower.base) == ((0, 1), (0, 1), (0, -1))
    with pytest.raises(ValueError):
        formats.parse_loop("zz", tower.base)


def test_parse_loop_reads_integer_edges_from_ascii_digits_only():
    base = Graph.from_edges(["w"], {1: ("w", "w"), "a": ("w", "w"), "10": ("w", "w")})
    assert formats.parse_loop("1 -1 01 a -a 10", base) == (
        (1, 1), (1, -1), (1, 1), ("a", 1), ("a", -1), ("10", 1))
    for token, named in (("+1", "+1"), ("-+1", "+1"), ("\u0661", "\u0661"), ("010", "010"), ("-", "")):
        with pytest.raises(ValueError) as err:
            formats.parse_loop(f"a {token}", base)
        assert str(err.value) == f"unknown base edge {named!r}"


def test_dot_export_golden():
    assert formats.export_dot(fixtures.figure_eight()) == GOLDEN_FIG8_DOT


def test_dot_export_marks_branch_points_only():
    text = formats.export_dot(fixtures.circle())
    assert "doublecircle" not in text
    assert text.startswith("digraph") and text.rstrip().endswith("}")


def _fig8_system() -> dict:
    return {
        "stationary": {
            "graph": formats.branched_graph_to_json(fixtures.figure_eight()),
            "map": formats.cellular_map_to_json(fixtures.figure_eight_double()),
        }
    }


@pytest.mark.parametrize(
    "breakage, key",
    [
        (lambda d: d["stationary"]["graph"].__setitem__("edges", 5), "'edges'"),
        (lambda d: d["stationary"]["graph"]["edges"].__setitem__(0, "a"), "'edges'"),
        (lambda d: d["stationary"]["graph"]["edges"][0].pop("src"), "'src'"),
        (lambda d: d["stationary"]["graph"].__setitem__("sides", []), "'sides'"),
        (lambda d: d["stationary"]["graph"]["sides"]["w"].__setitem__("A", "a+"), "'A'"),
        (lambda d: d["stationary"]["map"].__setitem__("vertex_map", {"w": ["w"]}), "'vertex_map'"),
        (lambda d: d["stationary"]["map"]["edge_map"].__setitem__("a", "a"), "'edge_map'"),
        (lambda d: d["stationary"]["map"]["edge_map"].__setitem__("a", [1]), "'a'"),
        (lambda d: d["stationary"].__setitem__("map", 3), "object"),
        (lambda d: d.__setitem__("stationary", []), "'stationary'"),
    ],
)
def test_system_loader_names_the_bad_key(breakage, key):
    data = _fig8_system()
    breakage(data)
    with pytest.raises(ValueError, match=key):
        formats.system_from_json(data)


def test_system_loader_names_what_a_system_needs():
    for data in ({"circle_degrees": [2, 2]}, {"levels": []}, [1, 2]):
        with pytest.raises(ValueError, match="needs 'stationary' or 'levels' and 'bonds'"):
            formats.system_from_json(data)


@pytest.mark.parametrize(
    "loader, data, key",
    [
        (formats.oracle_from_json, {"alphabet": "ab"}, "'alphabet'"),
        (formats.oracle_from_json, {"alphabet": ["a"], "rules": {"a": ["a"]}}, "'rules'"),
        (formats.oracle_from_json, {"alphabet": ["a"], "forbidden": "aa"}, "'forbidden'"),
        (formats.tower_from_json, {"circle_degrees": 3}, "'circle_degrees'"),
        (formats.tower_from_json, {"base": {"vertices": ["w"], "edges": {}}, "levels": []}, "'edges'"),
        (formats.tower_from_json, {"levels": []}, "'base'"),
        (formats.branch_tree_from_json, {"dimension": "2", "vertices": [], "edges": []}, "'dimension'"),
        (formats.branch_tree_from_json, {"dimension": 2, "vertices": ["v"], "edges": [["v"]]}, "'edges'"),
        (formats.branch_tree_from_json,
         {"dimension": 2, "vertices": ["v"], "edges": [], "sectors": {"v": [1]}}, "'v'"),
    ],
)
def test_loaders_name_the_bad_key(loader, data, key):
    with pytest.raises(ValueError, match=key):
        loader(data)


def test_loaded_tower_never_compares_graphs(monkeypatch):
    from laminate.branched_graph import Graph
    from laminate.profinite import QuotientHom

    rose = {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"},
                                         {"id": "b", "src": "w", "dst": "w"}]}
    # Z/2 x Z/2 over the rose, then Z/4 x Z/2 over it
    levels, below = [], None
    for m in (2, 4):
        ids = [f"{i}{j}" for i in range(m) for j in range(2)]
        edges = []
        for i in range(m):
            for j in range(2):
                edges.append({"id": f"a{i}{j}", "src": f"{i}{j}", "dst": f"{(i + 1) % m}{j}"})
                edges.append({"id": f"b{i}{j}", "src": f"{i}{j}", "dst": f"{i}{(j + 1) % 2}"})
        if below is None:
            vmap = {v: "w" for v in ids}
            emap = {e["id"]: e["id"][0] for e in edges}
        else:
            vmap = {v: f"{int(v[0]) % below}{v[1]}" for v in ids}
            emap = {e["id"]: f"{e['id'][0]}{int(e['id'][1]) % below}{e['id'][2]}" for e in edges}
        levels.append({"total": {"vertices": ids, "edges": edges},
                       "vertex_map": vmap, "edge_map": emap})
        below = m

    def refuse(self, other):
        raise AssertionError("graphs compared by value")

    monkeypatch.setattr(Graph, "__eq__", refuse)
    tower = formats.tower_from_json({"base": rose, "levels": levels})
    perms = tower.generator_monodromies(3)
    assert sorted(perms) == ["a", "b"]
    assert QuotientHom(tower, 3).verify() == {
        "upper_order": 8, "lower_order": 4, "kernel_order": 2,
    }
    assert QuotientHom(tower, 2).verify()["upper_order"] == 4


# -- towers build a level when it is read -------------------------------------------

CAYLEY_ORDERS = [(2, 1), (2, 2), (4, 2), (4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (32, 16)]


def test_tower_builds_only_the_levels_read(monkeypatch):
    built = []
    original = formats._covering_from_level

    def counting(level, base):
        cov = original(level, base)
        built.append(cov.total.nv)
        return cov

    monkeypatch.setattr(formats, "_covering_from_level", counting)
    tower = formats.tower_from_json(cayley_tower_json(CAYLEY_ORDERS))
    assert tower.depth == 10
    assert built == []
    perms = tower.generator_monodromies(3)
    assert built == [2, 4]  # levels 2 and 3, each once
    assert sorted(perms["a"].tolist()) == [0, 1, 2, 3]
    tower.generator_monodromies(2)
    tower.graph(3)
    assert built == [2, 4]
    tower.covering(5)
    assert built == [2, 4, 8, 16]


def test_a_deep_level_of_a_file_tower_read_first_builds_in_a_loop():
    tower = formats.tower_from_json(cayley_tower_json([(1, 1)] * 399))
    assert tower.depth == 400
    assert tower.covering(400).degree() == 1 and tower.graph(400).vertex_ids == ("0.0",)


def _same_level(lazy, ref):
    assert tuple(lazy.vertex_ids) == tuple(ref.vertex_ids)
    assert tuple(lazy.edge_ids) == tuple(ref.edge_ids)
    assert np.array_equal(lazy.esrc, ref.esrc) and np.array_equal(lazy.edst, ref.edst)


def test_lazy_tower_equals_the_eager_reference(tmp_path):
    rng = Random(12)
    for trial in range(60):
        data = random_tower_json(rng, rng.randint(2, 5), integers=trial % 3 == 0)
        ref = reference_tower_levels(data)
        if trial % 4 == 1:  # levels, and one total graph, given as files
            for i, level in enumerate(data["levels"]):
                if i == 0:
                    (tmp_path / f"total{trial}.json").write_text(json.dumps(level["total"]))
                    level["total"] = f"total{trial}.json"
                (tmp_path / f"level{trial}-{i}.json").write_text(json.dumps(level))
                data["levels"][i] = f"level{trial}-{i}.json"
        x1 = rng.randrange(ref[0].nv)
        if trial % 2:
            data["base_vertex"] = ref[0].vertex_ids[x1]
        tower = formats.tower_from_json(data, tmp_path)
        assert tower.base_point(1) == (x1 if trial % 2 else 0)
        for k in rng.sample(range(1, tower.depth + 1), tower.depth):  # any order
            if k == 1:
                _same_level(tower.graph(1), ref[0])
                continue
            total, vmap, emap = ref[k - 1]
            _same_level(tower.graph(k), total)
            assert np.array_equal(tower.covering(k).vmap, vmap)
            assert np.array_equal(tower.covering(k).emap, emap)
            assert tower.covering(k).base is tower.graph(k - 1)


def _cell(level: dict, field: str):
    """The first edge of a level's total graph, or the total-graph id under
    the first key of its vertex or edge map (keys are strings; the id may be
    an integer)."""
    if field == "edges":
        return level["total"]["edges"][0]
    key = next(iter(level[field]))
    ids = level["total"]["vertices"] if field == "vertex_map" else [e["id"] for e in level["total"]["edges"]]
    return next(x for x in ids if str(x) == key)


DEFECTS = {  # breaks a cell of level 3 (levels[1]) of a depth-4 tower; the error names the level and the cell
    "unknown source": ("edges", lambda level, edge: edge.__setitem__("src", "nowhere"),
                       lambda edge: f"levels[1]: edge {edge['id']!r}: unknown source 'nowhere'"),
    "unknown target": ("edges", lambda level, edge: edge.__setitem__("dst", 10 ** 6),
                       lambda edge: f"levels[1]: edge {edge['id']!r}: unknown target 1000000"),
    "missing vertex key": ("vertex_map", lambda level, v: level["vertex_map"].pop(str(v)),
                           lambda v: f"levels[1]: vertex_map has no entry for vertex {v!r}"),
    "missing edge key": ("edge_map", lambda level, e: level["edge_map"].pop(str(e)),
                         lambda e: f"levels[1]: edge_map has no entry for edge {e!r}"),
    "unknown image": ("vertex_map", lambda level, v: level["vertex_map"].__setitem__(str(v), "nowhere"),
                      lambda v: f"levels[1]: vertex {v!r} maps to unknown vertex 'nowhere'"),
    "unknown edge image": ("edge_map", lambda level, e: level["edge_map"].__setitem__(str(e), "nowhere"),
                           lambda e: f"levels[1]: edge {e!r} maps to unknown edge 'nowhere'"),
}


@pytest.mark.parametrize("integers", [False, True])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_malformed_level_fails_when_read_as_the_reference_does(defect, integers):
    data = random_tower_json(Random(defect), 4, integers=integers, max_degree=2)
    field, breakage, message = DEFECTS[defect]
    cell = _cell(data["levels"][1], field)
    breakage(data["levels"][1], cell)
    with pytest.raises((KeyError, ValueError)):
        reference_tower_levels(data)
    tower = formats.tower_from_json(data)
    assert tower.covering(2).degree() >= 1 and tower.depth == 4
    with pytest.raises(ValueError) as raised:
        tower.graph(3)
    assert str(raised.value) == message(cell)


def _level3(d):
    return d["levels"][1]


AT_LOAD = [  # a break of level 3 of a depth-4 tower, and the error it gets at load
    (lambda d: _level3(d)["total"]["vertices"].append(_level3(d)["total"]["vertices"][0]),
     lambda d: f"levels[1]: repeated vertex id {_level3(d)['total']['vertices'][0]!r}"),
    (lambda d: _level3(d)["total"]["edges"].append(_level3(d)["total"]["edges"][0]),
     lambda d: f"levels[1]: repeated edge id {_level3(d)['total']['edges'][0]['id']!r}"),
    (lambda d: _level3(d)["total"]["edges"][0].pop("id"), lambda d: "needs an 'id', a 'src' and a 'dst'"),
    (lambda d: _level3(d)["total"]["edges"][0].__setitem__("id", ["a"]), lambda d: "needs an 'id'"),
    (lambda d: _level3(d)["total"].__setitem__("edges", {}), lambda d: "'edges' must be an array"),
    (lambda d: _level3(d).__setitem__("vertex_map", []), lambda d: "'vertex_map' must be an object"),
    (lambda d: _level3(d)["edge_map"].__setitem__("x", [1]), lambda d: "every entry of 'edge_map'"),
    (lambda d: _level3(d).__setitem__("total", "missing.json"), lambda d: "missing.json"),
]


@pytest.mark.parametrize("case", range(len(AT_LOAD)))
def test_level_shape_and_repeated_ids_fail_at_load(case, tmp_path):
    data = random_tower_json(Random(3), 4)
    breakage, message = AT_LOAD[case]
    breakage(data)
    with pytest.raises((ValueError, OSError), match=re.escape(message(data))):
        formats.tower_from_json(data, tmp_path)


# vertices 0, 1; edges 0 -> 1, 0 -> 0 and 1 -> 1, all over the loop a
THREE_EDGES = {
    "base": {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"}]},
    "levels": [{"total": {"vertices": ["0", "1"],
                          "edges": [{"id": "a0", "src": "0", "dst": "1"},
                                    {"id": "a1", "src": "0", "dst": "0"},
                                    {"id": "a2", "src": "1", "dst": "1"}]},
                "vertex_map": {"0": "w", "1": "w"}, "edge_map": {"a0": "a", "a1": "a", "a2": "a"}}],
}
# level 2 covers the loop a twice; over it, level 3 has two out-edges over a0 at 00
BAD_TOP = {
    "base": THREE_EDGES["base"],
    "levels": [{"total": {"vertices": ["0", "1"],
                          "edges": [{"id": "a0", "src": "0", "dst": "1"},
                                    {"id": "a1", "src": "1", "dst": "0"}]},
                "vertex_map": {"0": "w", "1": "w"}, "edge_map": {"a0": "a", "a1": "a"}},
               {"total": {"vertices": ["00", "01", "10", "11"],
                          "edges": [{"id": "e0", "src": "00", "dst": "10"},
                                    {"id": "e1", "src": "00", "dst": "11"},
                                    {"id": "e2", "src": "10", "dst": "00"},
                                    {"id": "e3", "src": "11", "dst": "01"}]},
                "vertex_map": {"00": "0", "01": "0", "10": "1", "11": "1"},
                "edge_map": {"e0": "a0", "e1": "a0", "e2": "a1", "e3": "a1"}}],
}
NOT_A_COVERING = "not a covering: two out-edges at one vertex share a base edge"
# two loops over the loop a: every star maps bijectively and both vertices
# lie over w, but the total graph is not connected
TWO_LOOPS = {
    "base": THREE_EDGES["base"],
    "levels": [{"total": {"vertices": ["0", "1"],
                          "edges": [{"id": "a0", "src": "0", "dst": "0"},
                                    {"id": "a1", "src": "1", "dst": "1"}]},
                "vertex_map": {"0": "w", "1": "w"}, "edge_map": {"a0": "a", "a1": "a"}}],
}
NOT_CONNECTED = "not a covering: total graph is not connected"


@pytest.mark.parametrize("data, k", [(THREE_EDGES, 2), (BAD_TOP, 3)])
def test_non_covering_level_is_refused_where_read(data, k):
    for ask in (lambda t: t.generator_monodromies(k), lambda t: QuotientHom(t, k).verify(),
                lambda t: t.graph(k)):
        tower = formats.tower_from_json(data)
        with pytest.raises(ValueError, match="^" + re.escape(f"levels[{k - 2}]: {NOT_A_COVERING}") + "$"):
            ask(tower)
    if k == 3:
        tower = formats.tower_from_json(data)
        assert tower.generator_monodromies(2)["a"].tolist() == [1, 0]
        assert QuotientHom(tower, 2).verify() == {"upper_order": 2, "lower_order": 1, "kernel_order": 2}


def test_a_tower_of_no_levels_is_its_base():
    for data in ({"base": THREE_EDGES["base"], "levels": []}, {"circle_degrees": []}):
        tower = formats.tower_from_json(data)
        assert tower.depth == 1 and tower.graph(1).nv == 1
        with pytest.raises(ValueError, match=re.escape("coverings 2..1")):
            tower.covering(2)


def _brute_star_problem(data: dict):
    """The first star axiom a one-vertex-base map breaks, by counting lifts."""
    edges = data["total"]["edges"]
    for direction, end in (("out", "src"), ("in", "dst")):
        per_vertex = [sum(e[end] == v for e in edges) for v in data["total"]["vertices"]]
        if max(per_vertex, default=0) > 1:
            return f"two {direction}-edges at one vertex share a base edge"
    if any(sum(e[end] == v for e in edges) != 1 for v in data["total"]["vertices"] for end in ("src", "dst")):
        return "some vertex star does not match its image star"
    return None


def test_star_check_counts_lifts_like_brute_force():
    # random maps onto a one-loop rose: each vertex needs one out- and one in-edge
    rng = Random(5)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        edges = [{"id": f"e{j}", "src": str(rng.randrange(n)), "dst": str(rng.randrange(n))}
                 for j in range(rng.randint(0, 2 * n))]
        data = {"total": {"vertices": [str(i) for i in range(n)], "edges": edges},
                "vertex_map": {str(i): "w" for i in range(n)}, "edge_map": {e["id"]: "a" for e in edges}}
        expected = _brute_star_problem(data)
        outcomes.add(expected)
        tower = formats.tower_from_json({**THREE_EDGES, "levels": [data]})
        if expected is None:
            assert tower.covering(2).total.ne == n
        else:
            with pytest.raises(ValueError, match=rf"^levels\[0\]: not a covering: {expected}$"):
                tower.covering(2)
    assert len(outcomes) == 4


# -- cylinder literals -----------------------------------------------------------------

@pytest.mark.parametrize("literal", ["ab@ 1", "ab@+1", "abcdefghijk@1_0", "ab@x", "ab@", "ab@-1",
                                     "ab@\u0661", "ab@1 ", "@0", "ab"])
def test_cylinder_marks_are_plain_ascii_digits(literal):
    with pytest.raises(ValueError, match=re.escape(repr(literal))):
        Cylinder.parse(literal)
    oracle = LanguageOracle.from_substitution(fibonacci())
    with pytest.raises(ValueError, match="'cylinders'"):
        formats.clopen_from_json({"cylinders": [literal]}, oracle)


def test_cylinder_literals_parse_their_mark():
    assert Cylinder.parse("ab@1") == Cylinder("ab", 1)
    assert Cylinder.parse("a@b@01") == Cylinder("a@b", 1)
