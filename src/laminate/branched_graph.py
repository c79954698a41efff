"""Train tracks: graphs with a two-sided smooth structure at every vertex.

A branched graph is a finite directed multigraph together with, at each
vertex, a partition of the incident half-edges into two sides A and B
(either possibly empty).  A vertex is a branch point when some side holds
more than one half-edge.  Smooth germs pair a side-A with a side-B
half-edge; cellular maps send vertices to vertices and edges to nonempty
edge paths coherently with the sides.  The single-map flattening test asks
that at every vertex each side's half-edges share one image direction.

Half-edges are pairs ``(edge_id, "+")`` (at the source) and
``(edge_id, "-")`` (at the target); a loop contributes both at the same
vertex.  Path steps are pairs ``(edge_id, +1 | -1)`` for forward/backward
traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

HalfEdge = tuple  # (edge_id, "+" | "-")
Step = tuple      # (edge_id, +1 | -1)

SRC, DST = "+", "-"


def _he_key(h: HalfEdge):
    return (repr(h[0]), h[1])


def _unchecked(cls, **fields):
    """A frozen ``cls`` from fields known to be normal and valid, without
    running ``__post_init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class BranchedGraph:
    """Directed multigraph with two-sided smooth structure.

    ``edges`` maps edge id -> (source vertex, target vertex); ``sides`` maps
    vertex -> (side_A, side_B), two collections of half-edges.
    """

    vertices: frozenset
    edges: Mapping
    sides: Mapping

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(
            self, "edges", {e: (s, t) for e, (s, t) in self.edges.items()}
        )
        object.__setattr__(
            self,
            "sides",
            {
                v: (frozenset(a), frozenset(b))
                for v, (a, b) in self.sides.items()
            },
        )

    def src(self, e):
        return self.edges[e][0]

    def dst(self, e):
        return self.edges[e][1]

    def half_edges_at(self, v) -> frozenset:
        out = {(e, SRC) for e, (s, _) in self.edges.items() if s == v}
        inc = {(e, DST) for e, (_, t) in self.edges.items() if t == v}
        return frozenset(out | inc)

    def side(self, v, label: str) -> frozenset:
        a, b = self.sides[v]
        return a if label == "A" else b

    def side_of(self, h: HalfEdge) -> tuple:
        """(vertex, side label) where the half-edge is registered."""
        v = self.src(h[0]) if h[1] == SRC else self.dst(h[0])
        a, b = self.sides[v]
        if h in a:
            return v, "A"
        if h in b:
            return v, "B"
        raise ValueError(f"half-edge {h!r} not registered at vertex {v!r}")

    def base_vertex(self, h: HalfEdge):
        return self.src(h[0]) if h[1] == SRC else self.dst(h[0])

    def is_branch_point(self, v) -> bool:
        a, b = self.sides[v]
        return len(a) > 1 or len(b) > 1

    def branch_points(self) -> list:
        return [v for v in self.vertices if self.is_branch_point(v)]


def validate_graph(g: BranchedGraph) -> list[str]:
    """All invariant violations, as human-readable strings; [] means ok."""
    problems = []
    for e, (s, t) in g.edges.items():
        if s not in g.vertices:
            problems.append(f"edge {e!r}: unknown source {s!r}")
        if t not in g.vertices:
            problems.append(f"edge {e!r}: unknown target {t!r}")
    if set(g.sides) != set(g.vertices):
        problems.append("sides must be given for exactly the vertex set")
        return problems
    placed: dict = {}
    for v, (a, b) in g.sides.items():
        if a & b:
            for h in sorted(a & b, key=_he_key):
                problems.append(f"vertex {v!r}: half-edge {h!r} on both sides")
        for h in a | b:
            e, end = h
            if e not in g.edges:
                problems.append(f"vertex {v!r}: half-edge {h!r} of unknown edge")
                continue
            home = g.src(e) if end == SRC else g.dst(e)
            if home != v:
                problems.append(
                    f"vertex {v!r}: half-edge {h!r} belongs at vertex {home!r}"
                )
            if h in placed:
                problems.append(f"duplicated half-edge {h!r}")
            placed[h] = v
    for e, (s, t) in g.edges.items():
        if s in g.sides and (e, SRC) not in placed:
            problems.append(f"half-edge {(e, SRC)!r} missing from the sides")
        if t in g.sides and (e, DST) not in placed:
            problems.append(f"half-edge {(e, DST)!r} missing from the sides")
    return problems


@dataclass(frozen=True)
class SmoothGerm:
    """A smooth-disk germ at a vertex: one optional half-edge per side."""

    vertex: object
    a: Optional[HalfEdge]
    b: Optional[HalfEdge]

    def __post_init__(self):
        if self.a is None and self.b is None:
            raise ValueError("a germ needs at least one half-edge")

    def half_edges(self) -> frozenset:
        return frozenset(h for h in (self.a, self.b) if h is not None)


def germs_at(g: BranchedGraph, v) -> list[SmoothGerm]:
    """All two-sided germs at v, in a deterministic order."""
    a_side = sorted(g.side(v, "A"), key=_he_key)
    b_side = sorted(g.side(v, "B"), key=_he_key)
    return [SmoothGerm(v, a, b) for a in a_side for b in b_side]


@dataclass(frozen=True)
class Star:
    """Closed star of a vertex: the vertex, its half-edges, incident edges."""

    center: object
    half_edges: frozenset
    edges: frozenset
    vertices: frozenset


def star(g: BranchedGraph, v) -> Star:
    if v not in g.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    hes = g.half_edges_at(v)
    edges = frozenset(e for e, _ in hes)
    verts = {v}
    for e in edges:
        verts.update(g.edges[e])
    return Star(v, hes, edges, frozenset(verts))


def _reverse_path(path: Sequence[Step]) -> tuple[Step, ...]:
    return tuple((e, -s) for e, s in reversed(path))


def _step_start(g: BranchedGraph, step: Step):
    e, s = step
    return g.src(e) if s == 1 else g.dst(e)


def _step_end(g: BranchedGraph, step: Step):
    e, s = step
    return g.dst(e) if s == 1 else g.src(e)


def _outward(step: Step) -> HalfEdge:
    """Half-edge pointing along the step, at the step's start vertex."""
    e, s = step
    return (e, SRC) if s == 1 else (e, DST)


def _inward(step: Step) -> HalfEdge:
    """Half-edge pointing back along the step, at the step's end vertex."""
    e, s = step
    return (e, DST) if s == 1 else (e, SRC)


@dataclass(frozen=True)
class CellularMap:
    """Vertex-to-vertex, edge-to-edge-path map respecting sides."""

    domain: BranchedGraph
    codomain: BranchedGraph
    vertex_map: Mapping
    edge_map: Mapping

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", dict(self.vertex_map))
        object.__setattr__(
            self, "edge_map", {e: tuple(p) for e, p in self.edge_map.items()}
        )
        problems = validate_map(self)
        if problems:
            raise ValueError("invalid cellular map: " + "; ".join(problems))


def validate_map(f: CellularMap) -> list[str]:
    g, h = f.domain, f.codomain
    problems = []
    if set(f.vertex_map) != set(g.vertices):
        return ["vertex_map must cover exactly the domain vertices"]
    if set(f.edge_map) != set(g.edges):
        return ["edge_map must cover exactly the domain edges"]
    for v, w in f.vertex_map.items():
        if w not in h.vertices:
            problems.append(f"vertex {v!r} maps to unknown vertex {w!r}")
    if problems:
        return problems
    for e, path in f.edge_map.items():
        if not path:
            problems.append(f"edge {e!r} maps to an empty path")
            continue
        for d, s in path:
            if d not in h.edges or s not in (1, -1):
                problems.append(f"edge {e!r}: bad step ({d!r}, {s!r})")
                break
        else:
            for prev, nxt in zip(path, path[1:]):
                if _step_end(h, prev) != _step_start(h, nxt):
                    problems.append(f"edge {e!r}: image path is not a walk")
                    break
            if _step_start(h, path[0]) != f.vertex_map[g.src(e)]:
                problems.append(f"edge {e!r}: image path starts off target")
            if _step_end(h, path[-1]) != f.vertex_map[g.dst(e)]:
                problems.append(f"edge {e!r}: image path ends off target")
    if problems:
        return problems
    # side coherence: per vertex, each side's image directions stay on one
    # side of the image vertex, and the two sides land on opposite sides
    for v in g.vertices:
        w = f.vertex_map[v]
        labels = {}
        for side_label in ("A", "B"):
            img_sides = set()
            for h_edge in g.side(v, side_label):
                img = half_edge_image(f, h_edge)
                _, img_side = h.side_of(img)
                img_sides.add(img_side)
            if len(img_sides) > 1:
                problems.append(
                    f"vertex {v!r}: side {side_label} image spans both sides of {w!r}"
                )
            labels[side_label] = img_sides
        if labels["A"] and labels["B"] and labels["A"] == labels["B"]:
            problems.append(
                f"vertex {v!r}: sides A and B collapse onto one side of {w!r}"
            )
    return problems


def half_edge_image(f: CellularMap, h: HalfEdge) -> HalfEdge:
    """First outward direction of the image path, at the image vertex."""
    e, end = h
    path = f.edge_map[e]
    if end == SRC:
        return _outward(path[0])
    return _inward(path[-1])


def identity_map(g: BranchedGraph) -> CellularMap:
    return CellularMap(
        g, g, {v: v for v in g.vertices}, {e: ((e, 1),) for e in g.edges}
    )


def compose(g: CellularMap, f: CellularMap) -> CellularMap:
    """g after f; edge paths expand by concatenating g-images of f's steps."""
    if g.domain is not f.codomain and g.domain != f.codomain:
        raise ValueError("compose: domain of g must be the codomain of f")
    vmap = {v: g.vertex_map[w] for v, w in f.vertex_map.items()}
    emap = {}
    for e, path in f.edge_map.items():
        out: list[Step] = []
        for d, s in path:
            img = g.edge_map[d]
            out.extend(img if s == 1 else _reverse_path(img))
        emap[e] = tuple(out)
    return CellularMap(f.domain, g.codomain, vmap, emap)


@dataclass(frozen=True)
class GermMap:
    """Derivative of a cellular map: its vertex map and half-edge image map.

    The flattening test and germ images read only the first and last step
    of each image path, so germ maps carry all they need, and they compose
    by the chain rule D(g after f) = Dg after Df without expanding paths.
    """

    domain: BranchedGraph
    codomain: BranchedGraph
    vertex_map: Mapping
    half_edge_map: Mapping


def germ_map(f: CellularMap) -> GermMap:
    """The germ map of a (validated) cellular map."""
    hmap = {}
    for e, path in f.edge_map.items():
        hmap[(e, SRC)] = _outward(path[0])
        hmap[(e, DST)] = _inward(path[-1])
    return GermMap(f.domain, f.codomain, f.vertex_map, hmap)


def compose_germs(g: GermMap, f: GermMap) -> GermMap:
    """g after f, by the chain rule."""
    if g.domain is not f.codomain and g.domain != f.codomain:
        raise ValueError("compose_germs: domain of g must be the codomain of f")
    gv, gh = g.vertex_map, g.half_edge_map
    return GermMap(
        f.domain,
        g.codomain,
        {v: gv[w] for v, w in f.vertex_map.items()},
        {h: gh[x] for h, x in f.half_edge_map.items()},
    )


def germ_image(f: CellularMap, germ: SmoothGerm) -> SmoothGerm:
    """Image germ, with the image half-edges sorted back into their sides."""
    g, h = f.domain, f.codomain
    w = f.vertex_map[germ.vertex]
    slots = {"A": None, "B": None}
    for h_edge in (germ.a, germ.b):
        if h_edge is None:
            continue
        v_found, _ = g.side_of(h_edge)
        if v_found != germ.vertex:
            raise ValueError(f"half-edge {h_edge!r} is not at vertex {germ.vertex!r}")
        img = half_edge_image(f, h_edge)
        _, img_side = h.side_of(img)
        if slots[img_side] is not None and slots[img_side] != img:
            raise ValueError("germ folds onto one side; image is not a germ")
        slots[img_side] = img
    return SmoothGerm(w, slots["A"], slots["B"])


@dataclass(frozen=True)
class FlatteningWitness:
    """Two half-edges on one side of a vertex with distinct image germs."""

    vertex: object
    side: str
    half_edges: tuple[HalfEdge, HalfEdge]
    images: tuple[HalfEdge, HalfEdge]


def germ_flattening_witness(d: GermMap) -> Optional[FlatteningWitness]:
    """None when the germ map is flattening, else a concrete failure.

    Flattening means: at every domain vertex, all of side A's half-edges
    share one image direction, and likewise side B -- the star's image is
    then a single smooth germ.  The witness pairs, at the first failing
    side in sorted order, its first half-edge with the first one whose
    image differs.
    """
    g, hmap = d.domain, d.half_edge_map
    for v in sorted(g.vertices, key=repr):
        for side_label in ("A", "B"):
            side = g.side(v, side_label)
            if len({hmap[h] for h in side}) <= 1:
                continue
            first, *rest = sorted(side, key=_he_key)
            for h_edge in rest:
                if hmap[h_edge] != hmap[first]:
                    return FlatteningWitness(
                        v, side_label, (first, h_edge), (hmap[first], hmap[h_edge])
                    )
    return None


def flattening_witness(f: CellularMap) -> Optional[FlatteningWitness]:
    """None when f is flattening, else a concrete failure (see
    :func:`germ_flattening_witness`)."""
    return germ_flattening_witness(germ_map(f))


def is_flattening(f: CellularMap) -> bool:
    return flattening_witness(f) is None
