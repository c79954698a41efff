"""JSON readers for every input type, writers for branched graphs and
cellular maps, and the DOT exporter.

Rationals cross interfaces as "p/q" strings; half-edges as "e+" / "e-";
signed path steps as "e" (forward) / "-e" (backward); a boolean is not an
integer or an id.  Loaders accept either inline objects or file paths
(resolved relative to the referring file).  All schemas are documented in
docs/formats.md.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .branched_graph import CellularMap, Graph
from .coverings import CoveringTower, GraphCovering, cyclic_tower
from .inverse_system import InverseSystem
from .local_model import BranchTree, HalfSpace, Sector
from .subshift import LanguageOracle, Substitution
from .transversal import ClopenSet, Cylinder, canonicalize


# -- shape checks ----------------------------------------------------------

_ID = (str, int)  # cell ids
_KIND = {dict: "an object", list: "an array", str: "a string", int: "an integer",
         _ID: "a string or an integer"}


def _of(t: type, kind) -> bool:
    """Whether a JSON value of type ``t`` is of ``kind``; a boolean is not
    an integer or an id."""
    return issubclass(t, kind) and (t is not bool or kind is object)


def _field(data, key: str, kind=object, each=None):
    """``data[key]``, checked to be of a JSON kind and, for an array or an
    object, to hold entries of kind ``each``; a ValueError names the key."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with key {key!r}")
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    value = data[key]
    if not _of(type(value), kind):
        raise ValueError(f"{key!r} must be {_KIND[kind]}")
    entries = value.values() if isinstance(value, dict) else value
    if each is not None and not all(_of(t, each) for t in set(map(type, entries))):
        raise ValueError(f"every entry of {key!r} must be {_KIND[each]}")
    return value


# -- rationals -------------------------------------------------------------

def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def parse_point(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals: "1/2,-1/2"."""
    return tuple(parse_fraction(part.strip()) for part in text.split(","))


# -- half-edges and path steps ----------------------------------------------

def parse_half_edge(text: str) -> tuple:
    if len(text) < 2 or text[-1] not in "+-":
        raise ValueError(f"half-edge must look like 'e+' or 'e-': {text!r}")
    return (text[:-1], text[-1])


def format_half_edge(h: tuple) -> str:
    return f"{h[0]}{h[1]}"


def parse_step(text: str) -> tuple:
    if text.startswith("-"):
        return (text[1:], -1)
    return (text, 1)


def format_step(step: tuple) -> str:
    e, s = step
    return str(e) if s == 1 else f"-{e}"


# -- branch trees ------------------------------------------------------------

def branch_tree_from_json(data: dict) -> BranchTree:
    n = _field(data, "dimension", int)
    vertices = _unique(_field(data, "vertices", list, _ID), "vertex")
    edges = _field(data, "edges", list, list)
    if any(len(pair) != 2 or not all(_of(type(v), _ID) for v in pair) for pair in edges):
        raise ValueError("every entry of 'edges' must be a [source, target] pair")
    sector_data = _field(data, "sectors", dict, list) if "sectors" in data else {}
    stray = sector_data.keys() - set(map(str, vertices))  # keys are strings: vertex 0 is keyed "0"
    if stray:
        raise ValueError(f"'sectors' names unknown vertex {min(stray)!r}")
    sectors = {}
    for v in vertices:
        normals = _field(sector_data, str(v), list, list) if str(v) in sector_data else []
        sectors[v] = Sector(
            n, tuple(HalfSpace(tuple(parse_fraction(c) for c in normal))
                     for normal in normals)
        )
    return BranchTree(n, tuple(vertices), tuple((s, t) for s, t in edges), sectors)


# -- branched graphs and cellular maps ---------------------------------------

def _unique(ids: list, what: str) -> list:
    """``ids``, checked to repeat no id; a ValueError names a repeated one."""
    if len(set(ids)) < len(ids):
        raise ValueError(f"repeated {what} id {next(i for i in ids if ids.count(i) > 1)!r}")
    return ids


def _edges_from_json(data: dict) -> dict:
    entries = _field(data, "edges", list, dict)
    try:
        edges = {e["id"]: (e["src"], e["dst"]) for e in entries}
        typed = all(_of(t, _ID) for t in set(map(type, itertools.chain(edges, *edges.values()))))
    except (KeyError, TypeError):
        typed = False
    if not typed:
        raise ValueError("every entry of 'edges' needs an 'id', a 'src' and a 'dst' id")
    if len(edges) < len(entries):
        _unique([e["id"] for e in entries], "edge")
    return edges


def branched_graph_from_json(data: dict) -> Graph:
    edges = _edges_from_json(data)
    sides = {}
    for v, ab in _field(data, "sides", dict, dict).items():
        sides[v] = tuple(
            {parse_half_edge(h) for h in (_field(ab, label, list, str) if label in ab else [])}
            for label in ("A", "B")
        )
    vertices = _unique(_field(data, "vertices", list, _ID), "vertex")
    stray = next((x for x in itertools.chain(vertices, edges) if isinstance(x, int)), None)
    if stray is not None:
        raise ValueError(f"integer id {stray!r}: graph and system files name cells by strings")
    return Graph.from_edges(vertices, edges, sides)


def branched_graph_to_json(g: Graph) -> dict:
    return {
        "vertices": sorted(g.vertices, key=repr),
        "edges": [
            {"id": e, "src": s, "dst": t}
            for e, (s, t) in sorted(g.edges.items(), key=lambda kv: repr(kv[0]))
        ],
        "sides": {
            v: {
                "A": sorted(format_half_edge(h) for h in a),
                "B": sorted(format_half_edge(h) for h in b),
            }
            for v, (a, b) in sorted(g.sides.items(), key=lambda kv: repr(kv[0]))
        },
    }


def cellular_map_from_json(data: dict, domain: Graph,
                           codomain: Graph) -> CellularMap:
    edge_map = _field(data, "edge_map", dict, list)
    return CellularMap(
        domain,
        codomain,
        dict(_field(data, "vertex_map", dict, _ID)),
        {e: tuple(parse_step(s) for s in _field(edge_map, e, list, str))
         for e in edge_map},
    )


def cellular_map_to_json(f: CellularMap) -> dict:
    return {
        "vertex_map": {v: w for v, w in sorted(f.vertex_map.items(), key=lambda kv: repr(kv[0]))},
        "edge_map": {
            e: [format_step(s) for s in path]
            for e, path in sorted(f.edge_map.items(), key=lambda kv: repr(kv[0]))
        },
    }


# -- inverse systems ----------------------------------------------------------

def _object(pairs: list) -> dict:
    """A JSON object that repeats no key; a ValueError names a repeated one."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated object key {next(k for k in keys if keys.count(k) > 1)!r}")
    return out


def _read(path: Union[str, Path], hook):
    """The JSON file at ``path``, objects built by ``hook``; too deep a nesting is a ValueError."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=hook)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def read_json(path: Union[str, Path]):
    """A JSON file in which no object repeats a key."""
    return _read(path, _object)


def _resolve(node: Union[str, dict], base_dir: Optional[Path], hook=None) -> dict:
    if isinstance(node, str):
        path = Path(node)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        node = _read(path, hook)
    if not isinstance(node, dict):
        raise ValueError("expected an object or a file path holding one")
    return node


def system_from_json(data: dict, base_dir: Optional[Path] = None) -> InverseSystem:
    if not (isinstance(data, dict) and ("stationary" in data or {"levels", "bonds"} <= data.keys())):
        raise ValueError("a system needs 'stationary' or 'levels' and 'bonds'")
    if "stationary" in data:
        stationary = _field(data, "stationary", dict)
        graph = branched_graph_from_json(_resolve(_field(stationary, "graph"), base_dir, _object))
        bond = cellular_map_from_json(_resolve(_field(stationary, "map"), base_dir, _object), graph, graph)
        return InverseSystem.stationary(bond)
    levels = [branched_graph_from_json(_resolve(node, base_dir, _object))
              for node in _field(data, "levels", list)]
    if len(_field(data, "bonds", list)) != len(levels) - 1:
        raise ValueError("need one bond per consecutive pair of levels")
    bonds = [
        cellular_map_from_json(_resolve(node, base_dir, _object), levels[i + 1], levels[i])
        for i, node in enumerate(data["bonds"])
    ]
    return InverseSystem.from_lists(levels, bonds)


def load_system(path: Union[str, Path]) -> InverseSystem:
    """A system file; no object in it, or in a file it names, may repeat a key."""
    return system_from_json(read_json(path), Path(path).parent)


# -- subshift inputs -----------------------------------------------------------

def oracle_from_json(data: dict) -> LanguageOracle:
    alphabet = _field(data, "alphabet", list, str)
    if "rules" in data:
        substitution = Substitution(alphabet, _field(data, "rules", dict, str))
        return LanguageOracle.from_substitution(substitution)
    if "forbidden" in data:
        return LanguageOracle.from_forbidden(alphabet, _field(data, "forbidden", list, str))
    return LanguageOracle.full_shift(alphabet)


def load_oracle(path: Union[str, Path]) -> LanguageOracle:
    return oracle_from_json(read_json(path))


# -- clopen sets ----------------------------------------------------------------

def clopen_from_json(data: dict, oracle: LanguageOracle) -> ClopenSet:
    radius = _field(data, "radius", int) if "radius" in data else 0
    if radius < 0:
        raise ValueError("'radius' must be a nonnegative integer")
    texts = _field(data, "cylinders", list, str)
    try:
        cylinders = list(map(Cylinder.parse, texts))
    except ValueError as exc:
        raise ValueError(f"'cylinders': {exc}") from None
    out = ClopenSet.from_cylinders(oracle, cylinders)
    return canonicalize(out, max(radius, out.radius))


# -- plain graphs, coverings, towers ----------------------------------------------

def plain_graph_from_json(data: dict) -> Graph:
    return Graph.from_edges(_unique(_field(data, "vertices", list, _ID), "vertex"), _edges_from_json(data))


class _Keys(dict):
    """A JSON object read by cell id: object keys are strings, so an
    integer id is looked up under its string."""

    def __missing__(self, key):
        if isinstance(key, str):
            raise KeyError(key)
        return self[str(key)]


def _in_level(i: int, read, *args):
    """``read(*args)``, a ValueError prefixed with the level's JSON path."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"levels[{i}]: {exc}") from None


def _level_from_json(node, base_dir: Optional[Path]) -> dict:
    """A tower level with its total graph read from its file, the kind of
    every field checked and no cell id repeated; nothing is indexed."""
    data = _resolve(node, base_dir)
    total = _resolve(_field(data, "total"), base_dir)
    _unique(_field(total, "vertices", list, _ID), "vertex")
    try:
        _unique([e["id"] for e in _field(total, "edges", list, dict)], "edge")
    except (KeyError, TypeError):
        _edges_from_json(total)  # raises, naming what every entry needs
    _field(data, "vertex_map", dict, _ID), _field(data, "edge_map", dict, _ID)
    return dict(data, total=total)


def _covering_from_level(level: dict, base: Graph) -> GraphCovering:
    """A level read by ``_level_from_json``, over ``base``, indexed in one
    pass: the total graph's ids in ``repr`` order, each map read with one
    lookup per id against the index of ``base``; a ValueError names a
    missing or unknown id or a failed local covering axiom."""
    total = Graph.from_edges(level["total"]["vertices"], _edges_from_json(level["total"]))
    return GraphCovering.from_dicts(total, base, _Keys(level["vertex_map"]), _Keys(level["edge_map"]))


class _FileTower(CoveringTower):
    """A tower read from a file: level k is indexed and checked against the
    local covering axioms the first time it is read."""

    def __init__(self, base: Graph, levels: list, base_vertex=None):
        self._levels = levels  # from _level_from_json; level k is levels[k - 2]
        self._open(len(levels) + 1, [base], base_vertex)

    def _build(self, k: int) -> GraphCovering:
        return _in_level(k - 2, _covering_from_level, self._levels[k - 2], self.graph(k - 1))


def tower_from_json(data: dict, base_dir: Optional[Path] = None) -> CoveringTower:
    """A tower whose levels are checked now and built when first read."""
    if isinstance(data, dict) and "circle_degrees" in data:
        if "base_vertex" not in data or _field(data, "base_vertex", _ID) == 0:  # the one base vertex
            return cyclic_tower(_field(data, "circle_degrees", list, int))
        raise ValueError(f"unknown base vertex {data['base_vertex']!r}")
    base = plain_graph_from_json(_resolve(_field(data, "base"), base_dir))
    levels = [_in_level(i, _level_from_json, node, base_dir) for i, node in enumerate(_field(data, "levels", list))]
    return _FileTower(base, levels, _field(data, "base_vertex", _ID) if "base_vertex" in data else None)


def load_tower(path: Union[str, Path]) -> CoveringTower:
    return tower_from_json(_read(path, None), Path(path).parent)


def parse_loop(text: str, base: Graph) -> tuple:
    """Space-separated signed edge tokens, resolved against the base graph:
    a token names the string edge id, else the integer one when it is ASCII
    digits (leading zeros allowed)."""
    steps = []
    for token in text.split():
        name, sign = (token[1:], -1) if token.startswith("-") else (token, 1)
        edge = name
        if edge not in base.eindex and name.isascii() and name.isdigit():
            edge = int(name)
        if edge not in base.eindex:
            raise ValueError(f"unknown base edge {name!r}")
        steps.append((edge, sign))
    return tuple(steps)


# -- DOT export --------------------------------------------------------------------

def export_dot(g: Graph, name: str = "laminate") -> str:
    """Graphviz digraph; branch points render double-circled."""
    lines = [f"digraph {json.dumps(name)} {{"]
    lines.append("  node [shape=circle];")
    for v in sorted(g.vertices, key=repr):
        shape = " [shape=doublecircle]" if g.is_branch_point(v) else ""
        lines.append(f"  {json.dumps(str(v))}{shape};")
    for e, (s, t) in sorted(g.edges.items(), key=lambda kv: repr(kv[0])):
        lines.append(
            f"  {json.dumps(str(s))} -> {json.dumps(str(t))} [label={json.dumps(str(e))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
