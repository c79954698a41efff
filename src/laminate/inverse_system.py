"""Projective systems of branched graphs and the lamination verdict.

A system is a tower of branched graphs with onto cellular bonding maps,
materialized lazily and memoized.  The module enumerates coherent threads
to finite depth, telescopes towers, and decides whether some telescoping
flattens: exactly for a stationary system, from the powers of its bond's
germ map, and over a bounded window for any other tower.  Non-laminations
of stationary systems are certified by an invariant pair of smooth
sections.  Preimages of small disks decompose into product components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .branched_graph import (
    DST,
    SRC,
    BranchedGraph,
    CellularMap,
    GermMap,
    SmoothGerm,
    compose,
    compose_germs,
    germ_flattens,
    half_edge_image,
    identity_map,
)


@dataclass(frozen=True)
class VertexCell:
    vertex: object


@dataclass(frozen=True)
class EdgePoint:
    edge: object
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        if not 0 < self.t < 1:
            raise ValueError("edge point parameter must lie in (0, 1)")


Cell = Union[VertexCell, EdgePoint]


@dataclass(frozen=True)
class Thread:
    """Coherent tuple of cells, one per level 0..depth."""

    cells: tuple[Cell, ...]

    @property
    def depth(self) -> int:
        return len(self.cells) - 1


def apply_cell(f: CellularMap, cell: Cell) -> Cell:
    """Image of a cell under a cellular map, affine along edge paths."""
    if isinstance(cell, VertexCell):
        return VertexCell(f.vertex_map[cell.vertex])
    path = f.edge_map[cell.edge]
    m = len(path)
    pos = m * cell.t
    j = int(pos)  # floor; 0 < pos < m
    u = pos - j
    if u == 0:
        # exactly on a junction of the image path (j >= 1 since pos > 0)
        d, s = path[j - 1]
        return VertexCell(f.codomain.edges[d][1 if s == 1 else 0])
    d, s = path[j]
    return EdgePoint(d, u if s == 1 else 1 - u)


class InverseSystem:
    """Lazily materialized tower of branched graphs and bonding maps.

    ``level_fn(k)`` supplies the level-k graph, ``bond_fn(k)`` the bonding
    map from level k+1 onto level k.  Bonds are validated on first use:
    their endpoints must match the adjacent levels and they must be onto on
    vertices and edges.  ``max_depth`` bounds the materializable range
    (None = unbounded, e.g. stationary systems).  Caches fill by ``setdefault``.
    """

    def __init__(
        self,
        level_fn: Callable[[int], BranchedGraph],
        bond_fn: Callable[[int], CellularMap],
        *,
        stationary: bool = False,
        max_depth: Optional[int] = None,
    ):
        self._level_fn = level_fn
        self._bond_fn = bond_fn
        self.stationary_flag = stationary
        self.max_depth = max_depth
        self._levels: dict[int, BranchedGraph] = {}
        self._bonds: dict[int, CellularMap] = {}

    @classmethod
    def stationary(cls, bond: CellularMap) -> "InverseSystem":
        if not bond.domain.indexed_alike(bond.codomain):
            raise ValueError("a stationary system needs a self-map")
        return cls(lambda k: bond.domain, lambda k: bond, stationary=True)

    @classmethod
    def from_lists(
        cls, levels: Sequence[BranchedGraph], bonds: Sequence[CellularMap]
    ) -> "InverseSystem":
        if len(bonds) != len(levels) - 1:
            raise ValueError("need one bond per consecutive pair of levels")
        levels = list(levels)
        bonds = list(bonds)
        return cls(
            lambda k: levels[k], lambda k: bonds[k], max_depth=len(levels) - 1
        )

    def _check_depth(self, k: int):
        if k < 0:
            raise ValueError("level index must be nonnegative")
        if self.max_depth is not None and k > self.max_depth:
            raise ValueError(f"level {k} beyond materializable depth {self.max_depth}")

    def level(self, k: int) -> BranchedGraph:
        self._check_depth(k)
        if k not in self._levels:  # racing fills keep whichever landed first
            self._levels.setdefault(k, self._level_fn(k))
        return self._levels[k]

    def bond(self, k: int) -> CellularMap:
        """Bonding map from level k+1 onto level k."""
        self._check_depth(k + 1)
        if k in self._bonds:
            return self._bonds[k]
        upper, lower = self.level(k + 1), self.level(k)
        f = self._bond_fn(k)
        if not (f.domain.indexed_alike(upper) and f.codomain.indexed_alike(lower)):
            raise ValueError(f"bond {k} does not join levels {k + 1} -> {k}")
        on_vertices, on_edges = f.onto()
        if not on_vertices:
            raise ValueError(f"bond {k} is not onto on vertices")
        if not on_edges:
            raise ValueError(f"bond {k} is not onto on edges")
        return self._bonds.setdefault(k, f)

    def composite(self, k: int, k0: int) -> CellularMap:
        """The composite bonding map from level k down to level k0."""
        if k < k0:
            raise ValueError("composite needs k >= k0")
        if k == k0:
            return identity_map(self.level(k))
        f = self.bond(k - 1)
        for j in range(k - 2, k0 - 1, -1):
            f = compose(self.bond(j), f)
        return f


def telescope(system: InverseSystem, indices: Sequence[int]) -> InverseSystem:
    """Keep only the listed levels and compose the dropped bonds."""
    indices = list(indices)
    if not indices or any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("telescoping indices must be strictly increasing")
    if indices[0] < 0:
        raise ValueError("telescoping indices must be nonnegative")
    if system.max_depth is not None and indices[-1] > system.max_depth:
        raise ValueError("telescoping index beyond materializable depth")
    gaps = {b - a for a, b in zip(indices, indices[1:])}
    if system.stationary_flag and len(gaps) == 1:
        return InverseSystem.stationary(system.composite(indices[1], indices[0]))
    return InverseSystem(
        lambda i: system.level(indices[i]),
        lambda i: system.composite(indices[i + 1], indices[i]),
        max_depth=len(indices) - 1,
    )


def _vertex_preimages(f: CellularMap, v) -> list:
    return sorted((u for u, w in f.vertex_map.items() if w == v), key=repr)


def _point_preimages(f: CellularMap, cell: EdgePoint) -> list[EdgePoint]:
    out = []
    for e in sorted(f.edge_map, key=repr):
        path = f.edge_map[e]
        m = len(path)
        for j, (d, s) in enumerate(path):
            if d == cell.edge:
                t = Fraction(j + cell.t, m) if s == 1 else Fraction(j + 1 - cell.t, m)
                out.append(EdgePoint(e, t))
    return out


def enumerate_threads(system: InverseSystem, depth: int, base_cell: Cell) -> list[Thread]:
    """All coherent threads of matching cell type over ``base_cell``.

    A vertex base yields the iterated vertex preimages (threads whose cells
    are all vertices); an edge-point base yields edge-point threads.  The
    count over a vertex is the vertex fiber of the composite map.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    level0 = system.level(0)
    if isinstance(base_cell, VertexCell):
        if base_cell.vertex not in level0.vertices:
            raise ValueError(f"unknown vertex {base_cell.vertex!r} at level 0")
    elif base_cell.edge not in level0.edges:
        raise ValueError(f"unknown edge {base_cell.edge!r} at level 0")
    partial: list[tuple[Cell, ...]] = [(base_cell,)]
    for k in range(depth):
        f = system.bond(k)
        grown = []
        for cells in partial:
            top = cells[-1]
            if isinstance(top, VertexCell):
                pre: list[Cell] = [VertexCell(u) for u in _vertex_preimages(f, top.vertex)]
            else:
                pre = list(_point_preimages(f, top))
            grown.extend(cells + (c,) for c in pre)
        partial = grown
    return [Thread(cells) for cells in partial]


def is_coherent(system: InverseSystem, thread: Thread) -> bool:
    return all(
        apply_cell(system.bond(k), thread.cells[k + 1]) == thread.cells[k]
        for k in range(thread.depth)
    )


@dataclass(frozen=True)
class DoubleSectionWitness:
    """Invariant pair of smooth sections at a fixed vertex of the bond."""

    vertex: object
    germs: tuple[SmoothGerm, SmoothGerm]


@dataclass(frozen=True)
class Flattening:
    indices: tuple[int, ...]


@dataclass(frozen=True)
class NotFlatteningUpTo:
    window: int


@dataclass(frozen=True)
class NotLamination:
    witness: DoubleSectionWitness


FlatteningVerdict = Union[Flattening, NotFlatteningUpTo, NotLamination]


def not_lamination_certificate(system: InverseSystem) -> Optional[DoubleSectionWitness]:
    """Invariant double section of the bond of a stationary system.

    Looks for a fixed vertex v carrying two distinct two-sided germs whose
    pair is invariant under the bond's germ map and each of which is the
    unique germ at v mapping to its image.  Such a pair survives every
    telescoping, so it certifies that no telescoping flattens.  Vertices
    come in ``repr`` order, germs in that of their (edge, end) half-edges,
    side A first; the first disjoint invariant pair wins, else the first.
    """
    if not system.stationary_flag:
        raise ValueError("certificate search needs a stationary system")
    f = system.bond(0)
    g, image = f.domain, f.germs.image
    for v in sorted(np.flatnonzero(f.vmap == np.arange(g.nv)).tolist(), key=lambda v: repr(g.vertex_ids[v])):
        at = np.flatnonzero(g.half_vertex == v)
        a_side, b_side = (sorted(at[g.side[at] == bit].tolist(), key=lambda h: (repr(g.edge_ids[h >> 1]), h & 1))
                          for bit in (0, 1))
        rank = {h: r for side in (a_side, b_side) for r, h in enumerate(side)}
        da, db = image[a_side].tolist(), image[b_side].tolist()
        # germ (i, j) holds a_side[i] and b_side[j]; it is the only germ with its image when both
        # half-edges have unique images, and its image swaps them when side A maps onto side B
        im = {(i, j): (rank[x], rank[y]) if g.side[x] == 0 else (rank[y], rank[x])
              for i, x in enumerate(da) if da.count(x) == 1 for j, y in enumerate(db) if db.count(y) == 1}
        pairs = [*itertools.combinations([p for p in im if im[p] == p], 2),
                 *((p, im[p]) for p in im if p < im[p] and im.get(im[p]) == p)]
        if pairs:
            pair = min(pairs, key=lambda pq: (pq[0][0] == pq[1][0] or pq[0][1] == pq[1][1], pq))
            return DoubleSectionWitness(g.vertex_ids[v], tuple(SmoothGerm(
                g.vertex_ids[v], g.half_edge_label(a_side[i]), g.half_edge_label(b_side[j])) for i, j in pair))
    return None


def _least_flattening_power(d: GermMap) -> Optional[int]:
    """Least n >= 1 with D^n flattening, None when no power flattens.

    Flattening survives post-composition, and half-edges that ever merge
    under D merge within H - 1 steps (H half-edges): square D up to the
    first flattening D^(2^k), or to 2^k >= H, then bisect below it.
    """
    powers = [d]  # powers[i] is D^(2^i)
    while not germ_flattens(powers[-1]):
        if 2 ** (len(powers) - 1) >= len(d.image):
            return None
        powers.append(compose_germs(powers[-1], powers[-1]))
    n, below = 0, None  # D^n does not flatten (n = 0 aside); below is D^n
    for i in range(len(powers) - 2, -1, -1):
        trial = powers[i] if below is None else compose_germs(powers[i], below)
        if not germ_flattens(trial):
            n, below = n + 2 ** i, trial
    return n + 1


def is_flattening_system(system: InverseSystem, window: int = 8) -> FlatteningVerdict:
    """A telescoping of levels 0..window whose bonds all flatten.

    A stationary system is decided exactly: f^m flattens iff m >= n, the
    least flattening power of its germ map, so the chain is [window mod n,
    window mod n + n, ..., window] when n <= window and none exists when
    n > window.  When no power flattens, an invariant double section
    certifies non-lamination; without one the verdict is inconclusive.

    Other towers are searched over the window, exhaustively and
    canonically.  Working down from the window edge, level j *reaches*
    the edge when the composite from some reaching level k > j down to j
    flattens, and the *greedy* chain from j takes, repeatedly, the least
    level whose composite down to the current one flattens.  The chain
    starts at the least level whose greedy chain reaches the edge or, when
    there is none, at the least reaching level, and takes, repeatedly, the
    least reaching level whose composite down to the current one flattens
    (from a greedy start this is the greedy chain).  A chain found this
    way is a certified flattening telescoping of the inspected window;
    when no level reaches the edge the result is inconclusive.  Flattening
    reads only germs, so the bonds' germ maps compose by the chain rule.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if system.max_depth is not None:
        window = min(window, system.max_depth)
    if system.stationary_flag:
        n = _least_flattening_power(system.bond(0).germs)
        if n is not None and n <= window:
            return Flattening(tuple(range(window % n, window + 1, n)))
        witness = None if n is not None else not_lamination_certificate(system)
        return NotFlatteningUpTo(window) if witness is None else NotLamination(witness)
    bond_germs: dict[int, GermMap] = {}
    # columns[k][i] is the germ map from level k down to level k - 1 - i
    columns: dict[int, list[GermMap]] = {}
    flat_memo: dict = {}

    def bond_germ(j):
        if j not in bond_germs:
            bond_germs[j] = system.bond(j).germs
        return bond_germs[j]

    def flat(k, k0):
        if (k, k0) not in flat_memo:
            column = columns.setdefault(k, [])
            while len(column) < k - k0:
                below = bond_germ(k - 1 - len(column))
                column.append(compose_germs(below, column[-1]) if column else below)
            flat_memo[k, k0] = germ_flattens(column[k - k0 - 1])
        return flat_memo[k, k0]

    reach = [False] * window + [True]
    greedy = [False] * window + [True]
    for j in range(window - 1, -1, -1):
        flattening = (k for k in range(j + 1, window + 1) if flat(k, j))
        least = next(flattening, None)
        if least is not None:
            greedy[j] = greedy[least]
            reach[j] = reach[least] or any(reach[k] for k in flattening)
    current = greedy.index(True) if any(greedy[:window]) else reach.index(True)
    if current < window:
        chain = [current]
        while current < window:
            current = next(
                k for k in range(current + 1, window + 1) if reach[k] and flat(k, current)
            )
            chain.append(current)
        return Flattening(tuple(chain))
    return NotFlatteningUpTo(window)


@dataclass(frozen=True)
class StarDisk:
    vertex: object


@dataclass(frozen=True)
class EdgeDisk:
    edge: object


@dataclass(frozen=True)
class VertexComponent:
    """Preimage vertex whose star maps bijectively onto the disk."""

    vertex: object


@dataclass(frozen=True)
class CrossingComponent:
    """Interior path junction passing over the disk's center."""

    edge: object
    step: int


@dataclass(frozen=True)
class SegmentComponent:
    """Open subinterval of an edge covering an edge-interior disk."""

    edge: object
    step: int
    orientation: int


class NotLocallyTrivial(Exception):
    """A preimage component fails to map bijectively onto the disk."""

    def __init__(self, level: int, detail: str):
        super().__init__(f"not locally trivial at level {level}: {detail}")
        self.level = level
        self.detail = detail


@dataclass(frozen=True)
class LocalBox:
    disk: Union[StarDisk, EdgeDisk]
    components: dict  # level -> tuple of components

    def counts(self) -> dict:
        return {k: len(v) for k, v in self.components.items()}


def local_box(system: InverseSystem, thread: Thread, k0: int) -> LocalBox:
    """Decompose preimages of a small disk around the thread's level-k0 cell.

    The disk is the closed star for a vertex cell and the edge's interior
    for an edge-point cell.  At each level k0 < k <= depth the preimage of
    the disk must fall apart into components mapped bijectively onto it;
    any failure raises :class:`NotLocallyTrivial`, which is exactly a
    flattening failure over this disk.
    """
    if not 0 <= k0 <= thread.depth:
        raise ValueError("k0 must lie within the thread's depth")
    if not is_coherent(system, thread):
        raise ValueError("thread is not coherent with the bonding maps")
    cell = thread.cells[k0]
    components: dict[int, tuple] = {}
    if isinstance(cell, EdgePoint):
        disk: Union[StarDisk, EdgeDisk] = EdgeDisk(cell.edge)
        for k in range(k0 + 1, thread.depth + 1):
            f = system.composite(k, k0)
            found = []
            for e in sorted(f.edge_map, key=repr):
                for j, (d, s) in enumerate(f.edge_map[e]):
                    if d == cell.edge:
                        found.append(SegmentComponent(e, j, s))
            components[k] = tuple(found)
        return LocalBox(disk, components)
    v = cell.vertex
    star_v = system.level(k0).half_edges_at(v)
    for k in range(k0 + 1, thread.depth + 1):
        f = system.composite(k, k0)
        upper = system.level(k)
        found = []
        for u in _vertex_preimages(f, v):
            images = {h: half_edge_image(f, h) for h in upper.half_edges_at(u)}
            if len(set(images.values())) != len(images):
                raise NotLocallyTrivial(k, f"star of {u!r} folds over {v!r}")
            if set(images.values()) != star_v:
                raise NotLocallyTrivial(
                    k, f"star of {u!r} misses directions of star({v!r})"
                )
            found.append(VertexComponent(u))
        for e in sorted(f.edge_map, key=repr):
            path = f.edge_map[e]
            for j in range(1, len(path)):
                (d0, s0), (d1, s1) = path[j - 1], path[j]
                arrived = (d0, DST if s0 == 1 else SRC)
                if arrived not in star_v:
                    continue  # the junction is not at v
                leaving = (d1, SRC if s1 == 1 else DST)
                if arrived == leaving:
                    raise NotLocallyTrivial(k, f"edge {e!r} folds at step {j} over {v!r}")
                if {arrived, leaving} != star_v:
                    raise NotLocallyTrivial(
                        k,
                        f"edge {e!r} crosses {v!r} at step {j} through an arc, "
                        f"but star({v!r}) is branched",
                    )
                found.append(CrossingComponent(e, j))
        components[k] = tuple(found)
    return LocalBox(StarDisk(v), components)
