import json
from fractions import Fraction as F

import pytest

from laminate import fixtures, formats
from laminate.coverings import cyclic_tower
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
    assert formats.branch_tree_to_json(tree) == data
    assert len(glue_classes(tree, (F(1, 2), F(-1, 2)))) == 2


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
    data = formats.clopen_to_json(s)
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


def test_covering_round_trip():
    tower = cyclic_tower([3])
    data = formats.covering_to_json(tower.covering(2))
    base = tower.base
    again = formats.covering_from_json(json.loads(json.dumps(data)), base)
    assert again.degree() == 3
    assert again.validate() == []


def test_parse_loop_tokens():
    tower = cyclic_tower([2])
    assert formats.parse_loop("0 0 -0", tower.base) == ((0, 1), (0, 1), (0, -1))
    with pytest.raises(ValueError):
        formats.parse_loop("zz", tower.base)


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
    from laminate.coverings import Graph
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
