"""Local branched models: trees of sectors glued over the unit disk.

A model is a finite directed tree whose vertices carry *sectors* (interiors
of finite intersections of half-spaces through the origin).  Points are
pairs (x, v) with x a rational point of the closed unit disk and v a tree
vertex; two points (x, v), (x, v') are glued when the edge v -> v' exists
and x lies outside the source vertex's sector.  Everything is exact: points
are tuples of ``fractions.Fraction`` and the gluing predicate is a sign
condition, so no tolerance enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]


def as_vector(values: Iterable) -> Vector:
    """Coerce an iterable of rational-like values to an exact vector."""
    return tuple(Fraction(v) for v in values)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def in_unit_disk(point: Sequence[Fraction]) -> bool:
    return sum((x * x for x in point), Fraction(0)) <= 1


@dataclass(frozen=True)
class HalfSpace:
    """The half-space {x : <normal, x> >= 0}; only the boundary through 0."""

    normal: Vector

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal))
        if not any(self.normal):
            raise ValueError("half-space normal must be nonzero")

    @property
    def dimension(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class Sector:
    """Interior of an intersection of half-spaces; empty family = whole space."""

    dimension: int
    halfspaces: tuple[HalfSpace, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        for h in self.halfspaces:
            if h.dimension != self.dimension:
                raise ValueError(
                    f"half-space of dimension {h.dimension} in a "
                    f"{self.dimension}-dimensional sector"
                )


def sector_contains(sector: Sector, point: Sequence[Fraction]) -> bool:
    """Strict membership: <a, point> > 0 for every bounding half-space."""
    point = as_vector(point)
    if len(point) != sector.dimension:
        raise ValueError(
            f"point dimension {len(point)} != sector dimension {sector.dimension}"
        )
    return all(dot(h.normal, point) > 0 for h in sector.halfspaces)


@dataclass(frozen=True)
class BranchTree:
    """Finite directed tree with a sector attached to every vertex.

    The underlying undirected graph must be connected and acyclic; edge
    direction matters for the gluing relation (the source vertex's sector
    decides where the gluing happens).
    """

    dimension: int
    vertices: tuple
    edges: tuple[tuple, ...]
    sector_of: Mapping

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple((s, t) for s, t in self.edges))
        object.__setattr__(self, "sector_of", dict(self.sector_of))
        self._validate()

    def _validate(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if set(self.sector_of) != vs:
            raise ValueError("sector_of must cover exactly the vertex set")
        for sec in self.sector_of.values():
            if sec.dimension != self.dimension:
                raise ValueError("all sectors must share the tree dimension")
        for s, t in self.edges:
            if s not in vs or t not in vs:
                raise ValueError(f"edge ({s!r}, {t!r}) leaves the vertex set")
        # tree check on the undirected support
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("edge count of a tree must be |V| - 1")
        if self.vertices:
            seen = {self.vertices[0]}
            frontier = [self.vertices[0]]
            adj: dict = {v: [] for v in self.vertices}
            for s, t in self.edges:
                adj[s].append(t)
                adj[t].append(s)
            while frontier:
                v = frontier.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if seen != vs:
                raise ValueError("underlying graph is not connected")


@dataclass(frozen=True)
class LocalModelPoint:
    """A point (x, v) of disk x vertices, before gluing."""

    coordinates: Vector
    vertex: object

    def __post_init__(self):
        object.__setattr__(self, "coordinates", as_vector(self.coordinates))
        if not in_unit_disk(self.coordinates):
            raise ValueError("coordinates lie outside the closed unit disk")


def glue_classes(tree: BranchTree, x: Sequence[Fraction]) -> list[frozenset]:
    """Partition of the vertex set at disk point x.

    Generated by: v ~ v' whenever the edge v -> v' exists and x is *not* in
    the source sector s(v).  Blocks are returned sorted by smallest member
    so the output is deterministic.
    """
    x = as_vector(x)
    if len(x) != tree.dimension:
        raise ValueError(
            f"point dimension {len(x)} != tree dimension {tree.dimension}"
        )
    if not in_unit_disk(x):
        raise ValueError("sample point lies outside the closed unit disk")
    parent = {v: v for v in tree.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, t in tree.edges:
        if not sector_contains(tree.sector_of[s], x):
            rs, rt = find(s), find(t)
            if rs != rt:
                parent[rs] = rt
    blocks: dict = {}
    for v in tree.vertices:
        blocks.setdefault(find(v), set()).add(v)
    return sorted((frozenset(b) for b in blocks.values()), key=lambda b: sorted(map(repr, b)))


def class_count_profile(tree: BranchTree, sample: Iterable[Sequence[Fraction]]) -> list[int]:
    """Number of glue classes at each sample point, in order."""
    return [len(glue_classes(tree, x)) for x in sample]
