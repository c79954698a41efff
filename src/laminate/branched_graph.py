"""Train tracks: graphs with a two-sided smooth structure at every vertex.

A graph is a finite directed multigraph together with, at each vertex, a
partition of the incident half-edges into two sides A and B (either
possibly empty).  A plain directed graph, such as a level of a covering
or an approximant tower, has its in-edges on side A and out-edges on side
B.  A vertex is a branch point when some side holds more than one
half-edge.  Cellular maps send vertices to vertices and edges to nonempty
edge paths coherently with the sides; the flattening test asks that at
every vertex each side's half-edges share one image direction.

The core is indexed.  A :class:`Graph` holds its vertex and edge ids,
endpoint arrays and one side bit per half-edge: half-edge ``2e`` is edge e
at its source and ``2e + 1`` edge e at its target.  A path step is stored
as its outward half-edge h; it ends at the vertex of ``h ^ 1``, its inward
half-edge.  A :class:`CellularMap` is a vertex array plus a CSR table of
edge paths and a :class:`GermMap` one half-edge array, so validation,
composition, the chain rule and the flattening test run on arrays.

Labels live at the boundary: the labelled constructor takes half-edges
``(edge_id, "+" | "-")`` (at the source / target) and the cellular map
constructor path steps ``(edge_id, +1 | -1)``, and both validate once;
``vertices``, ``edges``, ``sides``, ``vertex_map`` and ``edge_map`` are
read-only views for output, built on first read.  A first cell (of a
witness, of germs) is first in ``repr`` order of the labels.  The module
is the graph core: it imports no other module of the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

HalfEdge = tuple  # (edge_id, "+" | "-")
SRC, DST = "+", "-"


def _same(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether two arrays of one dtype and length are equal."""
    return x.tobytes() == y.tobytes()


def _one_per_key(keys: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``values`` with the entries of each key (< n) replaced by one of them,
    so equal to ``values`` exactly where every key holds a single value."""
    table = np.empty(n, dtype=values.dtype)
    table[keys] = values  # of repeated keys, one position wins
    return table[keys]


class Graph:
    """Directed multigraph with indexed cells and two sides at every vertex.

    ``vertex_ids`` and ``edge_ids`` are indexable sequences (tuples for
    hand-built graphs, ranges for generated ones, word sequences for
    approximant levels); ``esrc``/``edst`` give the endpoint vertex indices
    per edge index.  ``side`` holds the side bit (0 = A, 1 = B) of every
    half-edge; unless :meth:`from_edges` is given sides, a graph is plain,
    its in-edges on side A and its out-edges on side B.
    """

    def __init__(self, vertex_ids: Sequence, edge_ids: Sequence,
                 esrc: np.ndarray, edst: np.ndarray):
        self.vertex_ids, self.edge_ids = vertex_ids, edge_ids
        self.esrc, self.edst = np.asarray(esrc, dtype=np.int64), np.asarray(edst, dtype=np.int64)
        if len(self.esrc) != len(edge_ids) or len(self.edst) != len(edge_ids):
            raise ValueError("endpoint arrays must match the edge count")
        if len(edge_ids) and (self.esrc.max(initial=-1) >= len(vertex_ids)
                              or self.edst.max(initial=-1) >= len(vertex_ids)):
            raise ValueError("endpoint index out of range")

    @classmethod
    def from_edges(cls, vertices, edges: Mapping, sides: Optional[Mapping] = None) -> "Graph":
        """A graph from labels, its cells indexed in ``repr`` order of their
        ids: ``edges`` maps edge id -> (source, target) and ``sides``, if
        given, vertex -> (side_A, side_B), two sets of half-edges.  A ValueError
        names an edge with an unknown endpoint, or the first half-edge that
        is on no side, on both sides or at the wrong vertex."""
        vertex_ids, edge_ids = tuple(sorted(vertices, key=repr)), tuple(sorted(edges, key=repr))
        vindex = {v: i for i, v in enumerate(vertex_ids)}
        ends = list(map(vindex.get, itertools.chain(*map(edges.__getitem__, edge_ids)), itertools.repeat(-1)))
        if -1 in ends:
            e, end = edge_ids[ends.index(-1) >> 1], ends.index(-1) & 1
            raise ValueError(f"edge {e!r}: unknown {('source', 'target')[end]} {edges[e][end]!r}")
        g = cls.__new__(cls)  # the endpoints come from the vertex index, so they need no range check
        g.vertex_ids, g.edge_ids, g.vindex = vertex_ids, edge_ids, vindex
        g.esrc, g.edst = np.array(ends[0::2], dtype=np.int64), np.array(ends[1::2], dtype=np.int64)
        if sides is None:
            return g
        if set(sides) != set(vertex_ids):
            raise ValueError("sides must be given for exactly the vertex set")
        index = dict(zip(itertools.product(edge_ids, (SRC, DST)), itertools.count()))
        side = [-1] * len(index)
        for v, halves in sides.items():
            for bit, half_edges in enumerate(halves):
                for h in half_edges:
                    i = index.get(h, -1)
                    if i < 0 or side[i] >= 0 or ends[i] != vindex[v]:
                        problem = ("of unknown edge" if i < 0 else "on both sides" if side[i] >= 0
                                   else f"belongs at vertex {vertex_ids[ends[i]]!r}")
                        raise ValueError(f"vertex {v!r}: half-edge {h!r} {problem}")
                    side[i] = bit
        if -1 in side:
            raise ValueError(f"half-edge {g.half_edge_label(side.index(-1))!r} missing from the sides")
        g.side = np.array(side, dtype=np.int8)
        return g

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        """Cycle graph C_n: vertex i, edge i running i -> i+1 (mod n)."""
        idx = np.arange(n, dtype=np.int64)
        return cls(range(n), range(n), idx, (idx + 1) % n)

    # -- indices ---------------------------------------------------------

    @property
    def nv(self) -> int:
        return len(self.vertex_ids)

    @property
    def ne(self) -> int:
        return len(self.edge_ids)

    @cached_property
    def vindex(self) -> dict:
        """Vertex id -> vertex index."""
        return {v: i for i, v in enumerate(self.vertex_ids)}

    @cached_property
    def eindex(self) -> dict:
        """Edge id -> edge index."""
        return {e: i for i, e in enumerate(self.edge_ids)}

    @cached_property
    def side(self) -> np.ndarray:
        """Side bit of every half-edge; by default each edge is on side B at
        its source and on side A at its target."""
        side = np.zeros(2 * self.ne, dtype=np.int8)
        side[0::2] = 1
        return side

    @cached_property
    def half_vertex(self) -> np.ndarray:
        """Vertex index of every half-edge."""
        ends = np.empty(2 * self.ne, dtype=np.int64)
        ends[0::2], ends[1::2] = self.esrc, self.edst
        return ends

    @property
    def _slot(self) -> np.ndarray:
        """2 * vertex + side bit of every half-edge."""
        return 2 * self.half_vertex + self.side

    @cached_property
    def _leader(self) -> np.ndarray:
        """For each half-edge, one fixed half-edge on its side of its vertex."""
        return _one_per_key(self._slot, np.arange(2 * self.ne), 2 * self.nv)

    def half_edge_label(self, i: int) -> HalfEdge:
        return (self.edge_ids[i >> 1], DST if i & 1 else SRC)

    def spanning_tree(self, root: int) -> list[tuple[int, int, int, int]]:
        """Steps (u, edge, sign, w) of a spanning tree of root's component.

        One depth-first pass per call over the edges read as undirected: each
        step reaches the new vertex w from u, which an earlier step reached;
        sign is +1 when the edge runs u -> w and -1 when it runs w -> u.
        """
        ends = np.concatenate([self.esrc, self.edst])
        order = np.argsort(ends, kind="stable")
        starts = np.searchsorted(ends[order], np.arange(self.nv + 1)).tolist()
        half = order.tolist()  # h < ne: edge h at its source; else edge h - ne at its target
        far = np.concatenate([self.edst, self.esrc]).tolist()
        seen = bytearray(self.nv)
        seen[root] = 1
        stack, steps = [root], []
        while stack:
            u = stack.pop()
            for h in half[starts[u]:starts[u + 1]]:
                w = far[h]
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
                    steps.append((u, h, 1, w) if h < self.ne else (u, h - self.ne, -1, w))
        return steps

    @cached_property
    def is_connected(self) -> bool:
        """Whether the spanning tree from vertex 0 has nv - 1 steps, decided once."""
        return self.nv <= 1 or len(self.spanning_tree(0)) == self.nv - 1

    # -- labelled views ----------------------------------------------------

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(self.vertex_ids)

    @cached_property
    def edges(self) -> Mapping:
        vs = list(self.vertex_ids)
        ends = zip([vs[i] for i in self.esrc.tolist()], [vs[i] for i in self.edst.tolist()])
        return MappingProxyType(dict(zip(self.edge_ids, ends)))

    @cached_property
    def sides(self) -> Mapping:
        halves = [(e, end) for e in self.edge_ids for end in (SRC, DST)]
        halves = [halves[i] for i in np.argsort(self._slot, kind="stable").tolist()]
        cuts = [0, *np.cumsum(np.bincount(self._slot, minlength=2 * self.nv)).tolist()]
        groups = [frozenset(halves[a:b]) for a, b in zip(cuts, cuts[1:])]
        return MappingProxyType(dict(zip(self.vertex_ids, zip(groups[0::2], groups[1::2]))))

    def is_branch_point(self, v) -> bool:
        return bool(self._branched[self.vindex[v]])

    def branch_points(self) -> list:
        return [self.vertex_ids[i] for i in np.flatnonzero(self._branched).tolist()]

    @cached_property
    def _branched(self) -> np.ndarray:
        return (np.bincount(self._slot, minlength=2 * self.nv) > 1).reshape(-1, 2).any(axis=1)

    def indexed_alike(self, other) -> bool:
        """Whether ``other`` holds the same cells at the same indices, with
        the same sides.  Maps and coverings are index arrays, so they join
        only graphs indexed alike; ``==`` compares labels, and a rank-indexed
        level equals its copy in ``repr`` order."""
        return self is other or (
            isinstance(other, Graph)
            and tuple(self.vertex_ids) == tuple(other.vertex_ids)
            and tuple(self.edge_ids) == tuple(other.edge_ids)
            and _same(self.esrc, other.esrc) and _same(self.edst, other.edst)
            and _same(self.side, other.side)
        )

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Graph)
            and (self.vertices, self.edges, self.sides) == (other.vertices, other.edges, other.sides)
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.nv} vertices, {self.ne} edges)"


@dataclass(frozen=True)
class SmoothGerm:
    """A smooth-disk germ at a vertex: a half-edge of side A and one of side B."""

    vertex: object
    a: HalfEdge
    b: HalfEdge


class CellularMap:
    """Vertex-to-vertex, edge-to-edge-path map respecting sides.

    ``vmap[v]`` is the image of vertex v, and the image path of edge e is
    ``steps[offsets[e]:offsets[e + 1]]``, each step stored as its outward
    half-edge in the codomain.  The constructor takes labels: a vertex map
    and an edge map to tuples of steps ``(edge_id, +1 | -1)``, and
    validates them once.  Compositions, identities and edgewise maps are
    built on arrays and are valid by construction.
    """

    def __init__(self, domain: Graph, codomain: Graph,
                 vertex_map: Mapping, edge_map: Mapping):
        if set(vertex_map) != set(domain.vertex_ids):
            raise ValueError("vertex_map must cover exactly the domain vertices")
        if set(edge_map) != set(domain.edge_ids):
            raise ValueError("edge_map must cover exactly the domain edges")
        try:
            vmap = [codomain.vindex[vertex_map[v]] for v in domain.vertex_ids]
        except KeyError:
            v = next(v for v in domain.vertex_ids if vertex_map[v] not in codomain.vertex_ids)
            raise ValueError(f"vertex {v!r} maps to unknown vertex {vertex_map[v]!r}") from None
        step_index = dict(zip(itertools.product(codomain.edge_ids, (1, -1)), itertools.count()))
        steps, offsets = [], [0]
        for e in domain.edge_ids:
            if not edge_map[e]:
                raise ValueError(f"edge {e!r} maps to an empty path")
            for step in edge_map[e]:
                if step not in step_index:
                    raise ValueError(f"edge {e!r}: bad step {step!r}")
                steps.append(step_index[step])
            offsets.append(len(steps))
        self._set(domain, codomain, vmap, offsets, steps)
        self.__post_init__()

    def __post_init__(self):
        problems = validate_map(self)
        if problems:
            raise ValueError("invalid cellular map: " + "; ".join(problems))

    def _set(self, domain, codomain, vmap, offsets, steps):
        self.domain, self.codomain = domain, codomain
        self.vmap = np.asarray(vmap, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.steps = np.asarray(steps, dtype=np.int64)
        image = np.empty(2 * domain.ne, dtype=np.int64)
        image[0::2] = self.steps[self.offsets[:-1]]
        image[1::2] = self.steps[self.offsets[1:] - 1] ^ 1
        self.germs = GermMap(domain, codomain, image)
        return self

    @classmethod
    def edgewise(cls, domain: Graph, codomain: Graph,
                 vmap: np.ndarray, emap: np.ndarray) -> "CellularMap":
        """Each edge e onto edge ``emap[e]``, forward.  The caller has checked
        that the edge images join the vertex images and keep the sides."""
        return cls.__new__(cls)._set(domain, codomain, vmap, np.arange(domain.ne + 1), 2 * emap)

    @cached_property
    def vertex_map(self) -> Mapping:
        ws = list(self.codomain.vertex_ids)
        return MappingProxyType(dict(zip(self.domain.vertex_ids, [ws[i] for i in self.vmap.tolist()])))

    @cached_property
    def edge_map(self) -> Mapping:
        labels = [(e, s) for e in self.codomain.edge_ids for s in (1, -1)]
        steps = [labels[h] for h in self.steps.tolist()]
        cuts = self.offsets.tolist()
        return MappingProxyType(dict(zip(
            self.domain.edge_ids, [tuple(steps[a:b]) for a, b in zip(cuts, cuts[1:])])))

    def onto(self) -> tuple[bool, bool]:
        """Whether every codomain vertex, and every codomain edge, is hit."""
        h = self.codomain
        return (np.count_nonzero(np.bincount(self.vmap, minlength=h.nv)) == h.nv,
                np.count_nonzero(np.bincount(self.steps >> 1, minlength=h.ne)) == h.ne)


def validate_map(f: CellularMap) -> list[str]:
    """All violations of walks, endpoints and side coherence; [] means ok."""
    g, h, image = f.domain, f.codomain, f.germs.image
    depart = arrive = start = end = f.steps[:0]
    if h.nv > 1:  # into one vertex, every path is a walk between the images of its ends
        depart, arrive = h.half_vertex[f.steps[1:]], h.half_vertex[f.steps[:-1] ^ 1]
        cuts = f.offsets[1:-1] - 1
        arrive[cuts] = depart[cuts]  # consecutive paths need not meet
        start, end = h.half_vertex[image], f.vmap[g.half_vertex]
    if not (_same(arrive, depart) and _same(start, end)):
        broken = np.searchsorted(f.offsets[1:], np.flatnonzero(arrive != depart), side="right")
        off = np.flatnonzero(start != end) >> 1
        return [f"edge {g.edge_ids[e]!r}: image path is not a walk from the image of its source "
                "to the image of its target" for e in np.union1d(broken, off).tolist()]
    # side coherence: side A's images lie on one side of the image vertex and
    # side B's on the other, so image side XOR side is constant per vertex
    turn = h.side[image] ^ g.side
    one_turn = _one_per_key(g.half_vertex, turn, g.nv)
    if _same(one_turn, turn):
        return []
    return [f"vertex {g.vertex_ids[v]!r}: sides A and B do not map onto opposite sides of "
            f"{f.vertex_map[g.vertex_ids[v]]!r}"
            for v in np.unique(g.half_vertex[one_turn != turn]).tolist()]


def identity_map(g: Graph) -> CellularMap:
    return CellularMap.edgewise(g, g, np.arange(g.nv), np.arange(g.ne))


def compose(g: CellularMap, f: CellularMap) -> CellularMap:
    """g after f; edge paths expand by concatenating g-images of f's steps."""
    if not g.domain.indexed_alike(f.codomain):
        raise ValueError("compose: domain of g must be the codomain of f, indexed alike")
    edge, backward = f.steps >> 1, f.steps & 1
    lengths = np.diff(g.offsets)[edge]
    piece = np.concatenate([[0], np.cumsum(lengths)])
    step = np.repeat(np.arange(len(f.steps)), lengths)
    within = np.arange(piece[-1]) - piece[step]
    # a backward step reads g's path from its end, each step reversed
    at = np.where(backward[step], g.offsets[edge + 1][step] - 1 - within,
                  g.offsets[edge][step] + within)
    return CellularMap.__new__(CellularMap)._set(f.domain, g.codomain, g.vmap[f.vmap], piece[f.offsets],
                                                 g.steps[at] ^ backward[step])


@dataclass(eq=False)
class GermMap:
    """Derivative of a cellular map: ``image[h]`` is the codomain half-edge
    in which the image path of domain half-edge h starts.

    The flattening test and germ images read only the first and last step
    of each image path, so germ maps carry all they need, and they compose
    by the chain rule D(g after f) = Dg after Df without expanding paths.
    """

    domain: Graph
    codomain: Graph
    image: np.ndarray


def compose_germs(g: GermMap, f: GermMap) -> GermMap:
    """g after f, by the chain rule."""
    if not g.domain.indexed_alike(f.codomain):
        raise ValueError("compose_germs: domain of g must be the codomain of f, indexed alike")
    return GermMap(f.domain, g.codomain, g.image[f.image])


def germ_flattens(d: GermMap) -> bool:
    """Whether every side of every vertex sends all its half-edges one way."""
    return _same(d.image[d.domain._leader], d.image)


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
    if germ_flattens(d):
        return None
    g, image = d.domain, d.image
    failing = np.unique(g._slot[image != image[g._leader]]).tolist()
    slot = min(failing, key=lambda s: (repr(g.vertex_ids[s >> 1]), s & 1))
    first, *rest = sorted(np.flatnonzero(g._slot == slot).tolist(),
                          key=lambda i: (repr(g.edge_ids[i >> 1]), i & 1))
    other = next(i for i in rest if image[i] != image[first])
    return FlatteningWitness(
        g.vertex_ids[slot >> 1], "AB"[slot & 1],
        (g.half_edge_label(first), g.half_edge_label(other)),
        (d.codomain.half_edge_label(int(image[first])), d.codomain.half_edge_label(int(image[other]))),
    )


def flattening_witness(f: CellularMap) -> Optional[FlatteningWitness]:
    """None when f is flattening, else a concrete failure (see
    :func:`germ_flattening_witness`)."""
    return germ_flattening_witness(f.germs)


def is_flattening(f: CellularMap) -> bool:
    return flattening_witness(f) is None
