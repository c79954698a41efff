"""Projective systems of branched graphs and the lamination verdict.

A system is a tower of branched graphs with onto cellular bonding maps,
materialized lazily.  The module enumerates coherent threads to finite
depth, telescopes towers, and decides whether some telescoping
flattens: exactly for a stationary system, from the powers of its bond's
germ map, and for any other tower over a window, in one monotone sweep.
Stationary non-laminations are certified by an invariant pair of smooth
sections.  Preimages of small disks decompose into product components.

Threads and local boxes read the bonds' index arrays, grouped once per
bond; labels appear only at the boundary, each output cell decoded once
and shared by the threads that extend it, in ``repr`` order of the ids:
index order on labelled graphs, one permutation per rank-indexed level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .branched_graph import (
    CellularMap,
    GermMap,
    Graph,
    SmoothGerm,
    compose,
    compose_germs,
    germ_flattens,
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
    h = f.codomain
    if isinstance(cell, VertexCell):
        return VertexCell(h.vertex_ids[int(f.vmap[f.domain.vindex[cell.vertex]])])
    e = f.domain.eindex[cell.edge]
    a, b = int(f.offsets[e]), int(f.offsets[e + 1])
    pos = (b - a) * cell.t
    j = int(pos)  # floor; 0 < pos < b - a
    u = pos - j
    if u == 0:  # on the junction that ends step j - 1 of the image path (j >= 1 since pos > 0)
        return VertexCell(h.vertex_ids[int(h.half_vertex[f.steps[a + j - 1] ^ 1])])
    step = int(f.steps[a + j])
    return EdgePoint(h.edge_ids[step >> 1], 1 - u if step & 1 else u)


class InverseSystem:
    """Lazily materialized tower of branched graphs and bonding maps.

    ``level_fn(k)`` supplies the level-k graph and ``bond_fn(k)`` the
    bonding map from level k+1 onto level k; the system keeps neither (see
    ``approximant_system`` for a tower that memoises its own).  Every read
    of a bond checks that it joins the adjacent levels and is onto on
    vertices and edges.  ``max_depth`` bounds the materializable range
    (None = unbounded, e.g. stationary systems).
    """

    def __init__(
        self,
        level_fn: Callable[[int], Graph],
        bond_fn: Callable[[int], CellularMap],
        *,
        stationary: bool = False,
        max_depth: Optional[int] = None,
    ):
        self._level_fn = level_fn
        self._bond_fn = bond_fn
        self.stationary_flag = stationary
        self.max_depth = max_depth

    @classmethod
    def stationary(cls, bond: CellularMap) -> "InverseSystem":
        if not bond.domain.indexed_alike(bond.codomain):
            raise ValueError("a stationary system needs a self-map")
        return cls(lambda k: bond.domain, lambda k: bond, stationary=True)

    @classmethod
    def from_lists(
        cls, levels: Sequence[Graph], bonds: Sequence[CellularMap]
    ) -> "InverseSystem":
        if len(bonds) != len(levels) - 1:
            raise ValueError("need one bond per consecutive pair of levels")
        levels, bonds = list(levels), list(bonds)
        return cls(levels.__getitem__, bonds.__getitem__, max_depth=len(levels) - 1)

    def _check_depth(self, k: int):
        if k < 0:
            raise ValueError("level index must be nonnegative")
        if self.max_depth is not None and k > self.max_depth:
            raise ValueError(f"level {k} beyond materializable depth {self.max_depth}")

    def level(self, k: int) -> Graph:
        self._check_depth(k)
        return self._level_fn(k)

    def bond(self, k: int) -> CellularMap:
        """Bonding map from level k+1 onto level k, checked against both."""
        self._check_depth(k + 1)
        f = self._bond_fn(k)
        if not (f.domain.indexed_alike(self.level(k + 1)) and f.codomain.indexed_alike(self.level(k))):
            raise ValueError(f"bond {k} does not join levels {k + 1} -> {k}")
        for onto, cells in zip(f.onto(), ("vertices", "edges")):
            if not onto:
                raise ValueError(f"bond {k} is not onto on {cells}")
        return f

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


def _repr_rank(ids: Sequence) -> np.ndarray:
    """The rank of every cell in ``repr`` order of its id: its index on a
    labelled graph, a permutation on a rank-indexed approximant level."""
    keys = list(map(repr, ids))
    return np.argsort(sorted(range(len(keys)), key=keys.__getitem__))  # inverts the repr order


def _preimages(image: np.ndarray, rank: np.ndarray, n: int, tops: np.ndarray):
    """(parent, position) of every position whose image (< n) is in ``tops``,
    grouped by parent, each group in rank order."""
    order = np.lexsort((rank, image))  # stable, so equal ranks keep position order
    start = np.concatenate([[0], np.cumsum(np.bincount(image, minlength=n))])
    counts = start[tops + 1] - start[tops]
    parent = np.repeat(np.arange(len(tops)), counts)
    return parent, order[np.repeat(start[tops] + counts - np.cumsum(counts), counts) + np.arange(len(parent))]


def enumerate_threads(system: InverseSystem, depth: int, base_cell: Cell) -> list[Thread]:
    """All coherent threads of matching cell type over ``base_cell``.

    A vertex base yields the iterated vertex preimages (threads whose cells
    are all vertices); an edge-point base yields edge-point threads.  The
    count over a vertex is the vertex fiber of the composite map.  Threads
    come in ``repr`` order of their cells' ids, level by level, and an edge
    point's preimages on one edge in the order of its image path.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    level0 = system.level(0)
    vertex = isinstance(base_cell, VertexCell)
    kind, label, index = ("vertex", base_cell.vertex, level0.vindex) if vertex else (
        "edge", base_cell.edge, level0.eindex)
    if label not in index:
        raise ValueError(f"unknown {kind} {label!r} at level 0")
    tops, ts, paths = np.array([index[label]]), [None if vertex else base_cell.t], [(base_cell,)]
    for k in range(depth):
        f = system.bond(k)
        g = f.domain
        if vertex:
            parent, tops = _preimages(f.vmap, _repr_rank(g.vertex_ids), f.codomain.nv, tops)
            parent, cells = parent.tolist(), [VertexCell(g.vertex_ids[u]) for u in tops.tolist()]
        else:  # a position is a step of an image path, on its edge
            lengths = np.diff(f.offsets)
            owner = np.repeat(np.arange(g.ne), lengths)
            parent, at = _preimages(f.steps >> 1, _repr_rank(g.edge_ids)[owner], f.codomain.ne, tops)
            tops, parent = owner[at], parent.tolist()
            ts = [(j + 1 - ts[p] if back else j + ts[p]) / m for p, j, m, back in zip(
                parent, (at - f.offsets[tops]).tolist(), lengths[tops].tolist(), (f.steps[at] & 1).tolist())]
            cells = [EdgePoint(g.edge_ids[e], t) for e, t in zip(tops.tolist(), ts)]
        paths = [paths[p] + (c,) for p, c in zip(parent, cells)]
    return [Thread(cells) for cells in paths]


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
        a_side, b_side = (sorted(at[g.side[at] == bit].tolist(),
                                 key=lambda h: (repr(g.edge_ids[h >> 1]), h & 1)) for bit in (0, 1))
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
            return DoubleSectionWitness(g.vertex_ids[v], tuple(
                SmoothGerm(g.vertex_ids[v], g.half_edge_label(a_side[i]), g.half_edge_label(b_side[j]))
                for i, j in pair))
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


def _least_flattening_levels(bonds: Sequence[GermMap]) -> list[int]:
    """m[j], the least level k > j whose composite down to j flattens, for
    the levels j whose composite from the top W = len(bonds) flattens.

    Flattening survives composition on either side, so m is nondecreasing
    and one sweep of two pointers finds it in at most 2W flattening tests.
    """
    m: list[int] = []
    k, column = 0, []  # column[i] is the germ map from level k down to level k - 1 - i
    for j in range(len(bonds)):
        while k <= j or not germ_flattens(column[k - j - 1]):
            if k == len(bonds):
                return m
            k += 1
            column = list(itertools.accumulate(reversed(bonds[j:k]), lambda f, g: compose_germs(g, f)))
        m.append(k)
    return m


def is_flattening_system(system: InverseSystem, window: int = 8) -> FlatteningVerdict:
    """A telescoping of levels 0..window whose bonds all flatten.

    A stationary system is decided exactly: f^m flattens iff m >= n, the
    least flattening power of its germ map, so the chain is [window mod n,
    window mod n + n, ..., window] when n <= window and none exists when
    n > window.  When no power flattens, an invariant double section
    certifies non-lamination; without one the verdict is inconclusive.

    Other towers are decided over the window W.  A composite flattens as
    soon as one of its factors does, so m(j), the least level whose
    composite down to j flattens, is nondecreasing in j, and level j
    *reaches* W (some chain of flattening composites joins them) exactly
    when the composite from W down to j flattens.  Some telescoping
    flattens iff level 0 reaches W, and the chain starts at the least
    level whose m-steps land exactly on W, else at level 0, and steps by m
    while the next level still reaches W, then jumps to W.  Flattening
    reads only germs, so the bonds' germ maps compose by the chain rule;
    the sweep makes at most 2W flattening tests.
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
    # bonds are validated from the window edge down, so an error names the highest bad one
    m = _least_flattening_levels([system.bond(j).germs for j in range(window - 1, -1, -1)][::-1])
    if not m:
        return NotFlatteningUpTo(window)
    lands = {window}  # the levels whose m-steps land exactly on the window edge
    for j in range(len(m) - 1, -1, -1):
        if m[j] in lands:
            lands.add(j)
    chain = [min(lands - {window}, default=0)]
    while chain[-1] < window:
        step = m[chain[-1]]
        chain.append(step if step < len(m) else window)
    return Flattening(tuple(chain))


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


def _along_edges(f: CellularMap, at: np.ndarray) -> tuple[np.ndarray, list, list]:
    """Positions ``at`` of f's step table in ``repr`` order of their edges and
    in path order on each, with the edge ids and the step numbers."""
    owner = np.searchsorted(f.offsets, at, side="right") - 1
    order = np.lexsort((at, _repr_rank(f.domain.edge_ids)[owner]))
    at, owner = at[order], owner[order]
    return at, [f.domain.edge_ids[e] for e in owner.tolist()], (at - f.offsets[owner]).tolist()


def local_box(system: InverseSystem, thread: Thread, k0: int) -> LocalBox:
    """Decompose preimages of a small disk around the thread's level-k0 cell.

    The disk is the closed star for a vertex cell and the edge's interior
    for an edge-point cell.  At each level k0 < k <= depth the preimage of
    the disk must fall apart into components mapped bijectively onto it;
    any failure raises :class:`NotLocallyTrivial`, which is exactly a
    flattening failure over this disk.  Components come in ``repr`` order
    of their ids, vertices before crossings, and by step along each path;
    the first failure in that order is raised.
    """
    if not 0 <= k0 <= thread.depth:
        raise ValueError("k0 must lie within the thread's depth")
    if not is_coherent(system, thread):
        raise ValueError("thread is not coherent with the bonding maps")
    cell, lower = thread.cells[k0], system.level(k0)
    if isinstance(cell, VertexCell):
        v, name = lower.vindex[cell.vertex], repr(cell.vertex)
        arms = np.count_nonzero(lower.half_vertex == v)
    components: dict[int, tuple] = {}
    for k in range(k0 + 1, thread.depth + 1):
        f = system.bond(k0) if k == k0 + 1 else compose(f, system.bond(k - 1))
        if isinstance(cell, EdgePoint):
            at, edges, js = _along_edges(f, np.flatnonzero(f.steps >> 1 == lower.eindex[cell.edge]))
            components[k] = tuple(map(SegmentComponent, edges, js, (1 - 2 * (f.steps[at] & 1)).tolist()))
            continue
        g = f.domain
        _, pre = _preimages(f.vmap, _repr_rank(g.vertex_ids), f.codomain.nv, np.array([v]))
        # the half-edges at preimages of v, and how many distinct images in star(v) each vertex's have
        at = np.flatnonzero(f.vmap[g.half_vertex] == v)
        degree = np.bincount(g.half_vertex[at], minlength=g.nv)[pre]
        pairs = np.unique(g.half_vertex[at] * 2 * lower.ne + f.germs.image[at])
        hit = np.bincount(pairs // (2 * lower.ne), minlength=g.nv)[pre]
        bad = np.flatnonzero((hit < degree) | (hit != arms))
        if len(bad):
            u, i = repr(g.vertex_ids[pre[bad[0]]]), bad[0]
            raise NotLocallyTrivial(k, f"star of {u} folds over {name}" if hit[i] < degree[i]
                                    else f"star of {u} misses directions of star({name})")
        # junctions inside image paths at v: a path arrives by one half-edge and leaves by another
        at = 1 + np.flatnonzero(lower.half_vertex[f.steps[:-1] ^ 1] == v)
        at, edges, js = _along_edges(f, at[~np.isin(at, f.offsets)])
        folds = f.steps[at] == (f.steps[at - 1] ^ 1)
        bad = np.flatnonzero(folds | (arms != 2))
        if len(bad):
            e, j = repr(edges[bad[0]]), js[bad[0]]
            raise NotLocallyTrivial(k, f"edge {e} folds at step {j} over {name}" if folds[bad[0]] else
                                    f"edge {e} crosses {name} at step {j} through an arc, "
                                    f"but star({name}) is branched")
        vertices = [VertexComponent(g.vertex_ids[u]) for u in pre.tolist()]
        components[k] = (*vertices, *map(CrossingComponent, edges, js))
    return LocalBox(EdgeDisk(cell.edge) if isinstance(cell, EdgePoint) else StarDisk(cell.vertex), components)
