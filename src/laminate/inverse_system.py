"""Projective systems of branched graphs and the lamination verdict.

A system is a tower of branched graphs with onto cellular bonding maps,
materialized lazily and memoized.  The module enumerates coherent threads
to finite depth, telescopes towers, searches bounded windows for a
flattening telescoping, certifies non-laminations of stationary systems by
an invariant pair of smooth sections, and decomposes preimages of small
disks into product components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

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
    germ_image,
    germs_at,
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
    telescoping, so it certifies that no telescoping flattens.
    """
    if not system.stationary_flag:
        raise ValueError("certificate search needs a stationary system")
    f = system.bond(0)
    g = system.level(0)
    for v in sorted(g.vertices, key=repr):
        if f.vertex_map[v] != v:
            continue
        germs = germs_at(g, v)
        images = {germ: germ_image(f, germ) for germ in germs}
        pairs = [
            (g0, g1)
            for i, g0 in enumerate(germs)
            for g1 in germs[i + 1 :]
        ]
        # prefer pairs of disjoint germs, the cleanest witnesses
        pairs.sort(key=lambda p: bool(p[0].half_edges() & p[1].half_edges()))
        for g0, g1 in pairs:
            if {images[g0], images[g1]} != {g0, g1}:
                continue
            unique = all(
                sum(1 for other in germs if images[other] == images[gi]) == 1
                for gi in (g0, g1)
            )
            if unique:
                return DoubleSectionWitness(v, (g0, g1))
    return None


def is_flattening_system(system: InverseSystem, window: int = 8) -> FlatteningVerdict:
    """Bounded search for a telescoping with all bonds flattening.

    Exhaustive over the window and canonical.  Working down from the
    window edge, level j *reaches* the edge when the composite from some
    reaching level k > j down to j flattens, and the *greedy* chain from j
    takes, repeatedly, the least level whose composite down to the current
    one flattens.  The chain starts at the least level whose greedy chain
    reaches the edge or, when there is none, at the least reaching level,
    and takes, repeatedly, the least reaching level whose composite down to
    the current one flattens (from a greedy start this is the greedy
    chain).  A chain found this way is a certified flattening telescoping
    of the inspected window.  When no level reaches the edge the result is
    inconclusive, except that stationary systems are additionally probed
    for an invariant double section, which settles non-lamination outright.

    Flattening reads only germs, so the search composes the bonds' germ
    maps by the chain rule instead of their edge paths.  For a stationary
    system the composite k -> k0 depends only on the gap k - k0, and so is
    built and tested once per gap.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if system.max_depth is not None:
        window = min(window, system.max_depth)
    stationary = system.stationary_flag
    bond_germs: dict[int, GermMap] = {}
    # columns[k][i] is the germ map from level k down to level k - 1 - i;
    # a stationary system has the single column 0, indexed by gap - 1
    columns: dict[int, list[GermMap]] = {}
    flat_memo: dict = {}

    def bond_germ(j):
        if j not in bond_germs:
            bond_germs[j] = system.bond(j).germs
        return bond_germs[j]

    def flat(k, k0):
        key = k - k0 if stationary else (k, k0)
        if key not in flat_memo:
            column = columns.setdefault(0 if stationary else k, [])
            while len(column) < k - k0:
                below = bond_germ(0 if stationary else k - 1 - len(column))
                column.append(compose_germs(below, column[-1]) if column else below)
            flat_memo[key] = germ_flattens(column[k - k0 - 1])
        return flat_memo[key]

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
    if stationary:
        witness = not_lamination_certificate(system)
        if witness is not None:
            return NotLamination(witness)
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
