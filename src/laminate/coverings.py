"""Graph coverings, deck transformation groups, and covering towers.

Graphs here are plain directed multigraphs standing in for 1-manifolds and
roses; coverings are graph maps that are bijections on every vertex star.
A deck transformation is held as its vertex permutation, which fixes it
because lifts are unique, and a deck group as the rows of one array.  They
are computed by path lifting, for every candidate at once: the candidate
images of a fiber base point fill one column each of an image matrix, which
propagates down a spanning tree of the total graph by one lift gather per
tree step; then every edge is checked for consistency and every column for
bijectivity in bulk.  Towers stack coverings over a fixed base, carry a
coherent thread of base points, and expose the composite coverings whose
deck groups feed the profinite layer.

The cell data lives in numpy index arrays.  A tower builds a level only
when a question reads it, through one hook; a tower read from a file has
each level checked against the star axioms as it is built.  Cyclic towers
answer threads, holonomy and the group law in closed form, at any depth.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Mapping, Optional, Sequence

import numpy as np

Step = tuple  # (edge_id, +1 | -1)

# entries per array when deck candidates propagate in blocks; bounds the
# memory of large enumerations
_BLOCK = 1 << 17


class Graph:
    """Directed multigraph with indexed cells.

    ``vertex_ids`` and ``edge_ids`` are indexable sequences (tuples for
    hand-built graphs, ranges for generated ones); ``esrc``/``edst`` give
    the endpoint vertex indices per edge index.
    """

    def __init__(self, vertex_ids: Sequence, edge_ids: Sequence,
                 esrc: np.ndarray, edst: np.ndarray):
        self._set_cells(vertex_ids, edge_ids, esrc, edst)
        if len(self.esrc) != len(edge_ids) or len(self.edst) != len(edge_ids):
            raise ValueError("endpoint arrays must match the edge count")
        if len(edge_ids) and (self.esrc.max(initial=-1) >= len(vertex_ids)
                              or self.edst.max(initial=-1) >= len(vertex_ids)):
            raise ValueError("endpoint index out of range")

    def _set_cells(self, vertex_ids: Sequence, edge_ids: Sequence, esrc, edst):
        self.vertex_ids = vertex_ids
        self.edge_ids = edge_ids
        self.esrc = np.asarray(esrc, dtype=np.int64)
        self.edst = np.asarray(edst, dtype=np.int64)
        self._trees: dict[int, list] = {}  # spanning trees walked so far, by root

    def _set_labelled_cells(self, vertices, edges: Mapping):
        """Index labelled cells in ``repr`` order of their ids; a ValueError
        names an edge with an unknown endpoint.  The endpoint indices come
        from the vertex index, so they need no range check."""
        vertex_ids, edge_ids = tuple(sorted(vertices, key=repr)), tuple(sorted(edges, key=repr))
        vidx = {v: i for i, v in enumerate(vertex_ids)}
        ends = list(map(vidx.get, chain(*map(edges.__getitem__, edge_ids)), repeat(-1)))
        if -1 in ends:
            e, end = edge_ids[ends.index(-1) >> 1], ends.index(-1) & 1
            raise ValueError(f"edge {e!r}: unknown {('source', 'target')[end]} {edges[e][end]!r}")
        self._set_cells(vertex_ids, edge_ids, ends[0::2], ends[1::2])
        self.vindex = vidx

    @classmethod
    def from_edges(cls, vertices: Sequence, edges: Mapping) -> "Graph":
        g = cls.__new__(cls)
        g._set_labelled_cells(vertices, edges)
        return g

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        """Cycle graph C_n: vertex i, edge i running i -> i+1 (mod n)."""
        idx = np.arange(n, dtype=np.int64)
        return cls(range(n), range(n), idx, (idx + 1) % n)

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

    def spanning_tree(self, root: int) -> list[tuple[int, int, int, int]]:
        """Steps (u, edge, sign, w) of a spanning tree of root's component.

        One depth-first pass per root over the edges read as undirected: each
        step reaches the new vertex w from u, which an earlier step reached;
        sign is +1 when the edge runs u -> w and -1 when it runs w -> u.
        """
        if root in self._trees:
            return self._trees[root]
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
        self._trees[root] = steps
        return steps

    def is_connected(self) -> bool:
        """Whether a spanning tree, from any root already walked, has nv - 1 steps."""
        if self.nv <= 1:
            return True
        tree = next(iter(self._trees.values())) if self._trees else self.spanning_tree(0)
        return len(tree) == self.nv - 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and tuple(self.vertex_ids) == tuple(other.vertex_ids)
            and tuple(self.edge_ids) == tuple(other.edge_ids)
            and np.array_equal(self.esrc, other.esrc)
            and np.array_equal(self.edst, other.edst)
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.nv} vertices, {self.ne} edges)"


class GraphMap:
    """Graph morphism with single-edge, orientation-preserving images."""

    def __init__(self, domain: Graph, codomain: Graph,
                 vmap: np.ndarray, emap: np.ndarray):
        self.domain = domain
        self.codomain = codomain
        self.vmap = np.asarray(vmap, dtype=np.int64)
        self.emap = np.asarray(emap, dtype=np.int64)
        if len(self.vmap) != domain.nv or len(self.emap) != domain.ne:
            raise ValueError("map arrays must cover the domain cells")
        if not (np.array_equal(codomain.esrc[self.emap], self.vmap[domain.esrc])
                and np.array_equal(codomain.edst[self.emap], self.vmap[domain.edst])):
            raise ValueError("edge images do not respect endpoints")

    @classmethod
    def from_dicts(cls, domain: Graph, codomain: Graph,
                   vertex_map: Mapping, edge_map: Mapping) -> "GraphMap":
        vindex, eindex = codomain.vindex, codomain.eindex
        return cls(domain, codomain, [vindex[vertex_map[v]] for v in domain.vertex_ids],
                   [eindex[edge_map[e]] for e in domain.edge_ids])

    def compose(self, inner: "GraphMap") -> "GraphMap":
        """self after inner."""
        if inner.codomain is not self.domain and inner.codomain != self.domain:
            raise ValueError("maps are not composable")
        return GraphMap(inner.domain, self.codomain,
                        self.vmap[inner.vmap], self.emap[inner.emap])


class GraphCovering:
    """A graph map asserted (and checkable) to be a covering."""

    def __init__(self, graph_map: GraphMap):
        self.map = graph_map
        self._problems: Optional[list[str]] = None
        self._transport: dict[tuple[int, int], np.ndarray] = {}
        self._trees: dict[int, list] = {}
        self._edge_key: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def total(self) -> Graph:
        return self.map.domain

    @property
    def base(self) -> Graph:
        return self.map.codomain

    def fiber(self, base_vi: int) -> np.ndarray:
        """Sorted total-vertex indices over the base vertex index."""
        return np.flatnonzero(self.map.vmap == base_vi)

    def degree(self) -> int:
        sizes = np.bincount(self.map.vmap, minlength=self.base.nv)
        return int(sizes[0]) if self.base.nv else 0

    def validate(self) -> list[str]:
        """Covering-axiom violations, as strings; [] means a covering."""
        problems = []
        total, base, m = self.total, self.base, self.map
        if not total.is_connected():
            problems.append("total graph is not connected")
        if not base.is_connected():
            problems.append("base graph is not connected")
        vsizes = np.bincount(m.vmap, minlength=base.nv)
        if base.nv and (vsizes == 0).any():
            problems.append("not surjective on vertices")
        if base.ne and (np.bincount(m.emap, minlength=base.ne) == 0).any():
            problems.append("not surjective on edges")
        if base.nv and not (vsizes == vsizes[0]).all():
            problems.append("fiber sizes are not constant")
        return problems + self.star_problems()

    def star_problems(self) -> list[str]:
        """Star-bijectivity violations: the out-edges (in-edges) at a total vertex
        u meet each base edge leaving (entering) vmap[u] once, so sorted (u, base
        edge) keys repeat none, and u has as many of them as vmap[u]."""
        problems, stars_match = [], True
        total, base, m = self.total, self.base, self.map
        for direction, ends, base_ends in ("out", total.esrc, base.esrc), ("in", total.edst, base.edst):
            key = np.sort(ends * max(base.ne, 1) + m.emap)
            if (key[1:] == key[:-1]).any():
                problems.append(f"two {direction}-edges at one vertex share a base edge")
            stars_match &= np.array_equal(np.bincount(ends, minlength=total.nv),
                                          np.bincount(base_ends, minlength=base.nv)[m.vmap])
        if not stars_match:
            problems.append("some vertex star does not match its image star")
        return problems

    # -- lifting ----------------------------------------------------------

    def _step_transport(self, base_ei: int, sign: int) -> np.ndarray:
        """Per total vertex, where the unique lift of one base step lands."""
        cache = self._transport
        if (base_ei, sign) not in cache:
            sel = np.flatnonzero(self.map.emap == base_ei)
            nxt = -np.ones(self.total.nv, dtype=np.int64)
            if sign == 1:
                nxt[self.total.esrc[sel]] = self.total.edst[sel]
            else:
                nxt[self.total.edst[sel]] = self.total.esrc[sel]
            cache[(base_ei, sign)] = nxt
        return cache[(base_ei, sign)]

    def check_loop(self, loop: Sequence[Step], base_vi: int = 0):
        cur = base_vi
        for edge_id, sign in loop:
            ei = self.base.eindex[edge_id]
            s, t = int(self.base.esrc[ei]), int(self.base.edst[ei])
            start, end = (s, t) if sign == 1 else (t, s)
            if start != cur:
                raise ValueError("loop is not a path at the base point")
            cur = end
        if cur != base_vi:
            raise ValueError("loop does not close up at the base point")

    def lift(self, starts: np.ndarray, path: Sequence[Step]) -> np.ndarray:
        """End vertex indices of the lifts of a base edge path, one per start."""
        cur = np.asarray(starts, dtype=np.int64)
        for edge_id, sign in path:
            cur = self._step_transport(self.base.eindex[edge_id], sign)[cur]
            if (cur < 0).any():
                raise ValueError("loop does not lift; the map is not a covering here")
        return cur

    def monodromy(self, loop: Sequence[Step], base_vi: int = 0) -> np.ndarray:
        """Endpoint-of-lift permutation of fiber positions over base_vi.

        The loop must be a closed edge path at the base vertex; lifting a
        step and its reverse cancels automatically, so homotopic words act
        identically.
        """
        self.check_loop(loop, base_vi)
        fiber = self.fiber(base_vi)
        pos = -np.ones(self.total.nv, dtype=np.int64)
        pos[fiber] = np.arange(len(fiber))
        return pos[self.lift(fiber, loop)]

    # -- deck group --------------------------------------------------------

    def require_covering(self):
        """Raise ``ValueError`` naming the first failed covering axiom;
        the axioms are checked once per covering."""
        if self._problems is None:
            self._problems = self.validate()
        if self._problems:
            raise ValueError(f"not a covering: {self._problems[0]}")

    def _edge_images(self, vimg: np.ndarray) -> np.ndarray:
        """Edge images under vertex images ``vimg``, one column per candidate:
        each edge goes to the lift of its base edge at its source's image,
        read from the edges sorted by (source, base edge)."""
        nb = max(self.base.ne, 1)
        if self._edge_key is None:
            key = self.total.esrc * nb + self.map.emap
            order = np.argsort(key)
            self._edge_key = (key[order], order)
        key, order = self._edge_key
        return order[np.searchsorted(key, vimg[self.total.esrc] * nb + self.map.emap[:, None])]

    def _deck_elements(self, t0: int, images: np.ndarray) -> tuple[list[int], np.ndarray]:
        """The candidates t0 -> images[i] that extend to deck transformations.

        Returns the surviving images and their vertex permutations, one row
        each, in candidate order.  Candidates propagate in blocks of columns
        of an image matrix (one row per total vertex), so temporaries stay
        within ``_BLOCK`` entries.  Raises ``ValueError`` when the map is not
        a covering, where a step could have two lifts.
        """
        self.require_covering()
        total, emap = self.total, self.map.emap
        if t0 not in self._trees:
            self._trees[t0] = [(u, self._step_transport(int(emap[e]), sign), w)
                               for u, e, sign, w in total.spanning_tree(t0)]
        steps = self._trees[t0]
        images = np.asarray(images, dtype=np.int64)
        images = images[self.map.vmap[images] == self.map.vmap[t0]]
        block = max(1, _BLOCK // max(total.nv, total.ne, 1))
        orbit = []
        vperms = np.empty((len(images), total.nv), dtype=np.int64)
        for lo in range(0, len(images), block):
            cand = images[lo:lo + block]
            img = np.empty((total.nv, len(cand)), dtype=np.int64)
            img[t0] = cand
            for u, transport, w in steps:
                img[w] = transport[img[u]]
            # each edge's image must end at its target's image
            ok = (total.edst[self._edge_images(img)] == img[total.edst]).all(axis=0)
            # vertex images must be bijective; lifts being unique, the edge
            # images then are too
            cols = np.arange(len(cand)) * total.nv
            hits = np.bincount((img + cols).ravel(), minlength=len(cand) * total.nv)
            ok &= (hits.reshape(len(cand), total.nv) == 1).all(axis=1)
            vperms[len(orbit):len(orbit) + int(ok.sum())] = img.T[ok]
            orbit.extend(cand[ok].tolist())
        return orbit, vperms[:len(orbit)]

    def deck_transformation_from(self, t0: int, image: int) -> Optional[np.ndarray]:
        """The vertex permutation of the deck transformation sending t0 to
        image, or None."""
        _, vperms = self._deck_elements(t0, [image])
        return vperms[0] if len(vperms) else None

    def deck_group(self, base_vi: int = 0) -> "DeckGroup":
        """All deck transformations: every fiber point is a candidate image
        of the least one, and all candidates propagate at once."""
        fiber = self.fiber(base_vi)
        if not len(fiber):
            raise ValueError("empty fiber; the map is not onto this vertex")
        t0 = int(fiber[0])
        orbit, vperms = self._deck_elements(t0, fiber)
        return DeckGroup(vperms, fiber, t0, tuple(orbit))


@dataclass(frozen=True, eq=False)
class DeckGroup:
    """Deck transformations of one covering, with the inspected fiber.

    A deck element is a row of ``vperms``: its vertex permutation, which
    fixes it because lifts are unique.  ``orbit`` lists each row's image of
    ``basepoint``, the least fiber point.
    """

    vperms: np.ndarray
    fiber: np.ndarray
    basepoint: int
    orbit: tuple

    def order(self) -> int:
        return len(self.vperms)

    @property
    def regular(self) -> bool:
        """Whether the group is transitive on the fiber; the orbit holds the
        distinct fiber points reached, so that is order equal to degree."""
        return self.order() == len(self.fiber)


class CoveringTower:
    """Levels S_1 <- S_2 <- ... with a coherent thread of base points.

    The thread starts at ``base_vertex`` (default: the least vertex) and
    lifts deterministically (least-index lifts); every fiber, deck group and
    identification is relative to it.  A transversal point at depth k is a
    coherent thread of fiber points, fixed by its level-k vertex:
    :meth:`thread` projects it down, :meth:`loop_endpoint` lifts a base loop
    to one and :meth:`deck_power` moves one by a deck transformation.
    Levels are cached as built, each by the one hook :meth:`_build` when
    first read, in ascending order; a tower given its coverings starts built.
    """

    def __init__(self, coverings: Sequence[GraphCovering], *, base_vertex=None):
        coverings = list(coverings)
        if not coverings:
            raise ValueError("a tower needs at least one covering")
        for lower, upper in zip(coverings, coverings[1:]):
            if upper.base is not lower.total and upper.base != lower.total:
                raise ValueError("consecutive coverings do not stack")
        self._open(len(coverings) + 1, [coverings[0].base, *coverings], base_vertex)

    def _open(self, depth: int, built: list, base_vertex=None):
        self.depth = depth  # largest level index (levels are 1-based)
        self._built = built  # [k - 1]: the base graph for k = 1, else the bond f_k
        self._thread = [0 if base_vertex is None else self.base.vindex[base_vertex]]
        self._composites: dict[tuple[int, int], GraphMap] = {}
        self._composite_covers: dict[tuple[int, int], GraphCovering] = {}
        self._fibers: dict[int, np.ndarray] = {}
        self._fiber_positions: dict[int, Sequence[int]] = {}

    def _build(self, k: int):
        """The hook that builds level k once the levels below it are built."""
        raise NotImplementedError  # a tower given its coverings starts built

    def _level(self, k: int):
        while len(self._built) < k:
            self._built.append(self._build(len(self._built) + 1))
        return self._built[k - 1]

    def _check_level(self, k: int):
        if not 1 <= k <= self.depth:
            raise ValueError(f"level {k} is outside the tower's levels 1..{self.depth}")

    def _check_bond(self, k: int):
        if not 2 <= k <= self.depth:
            raise ValueError(f"covering {k} is outside the tower's coverings 2..{self.depth}")

    @property
    def base(self) -> Graph:
        return self._level(1)

    def graph(self, k: int) -> Graph:
        self._check_level(k)
        return self.base if k == 1 else self._level(k).total

    def covering(self, k: int) -> GraphCovering:
        """The bonding covering f_k : S_k -> S_{k-1}, for k >= 2."""
        self._check_bond(k)
        return self._level(k)

    def composite_map(self, k: int, k0: int) -> GraphMap:
        """The composite covering map from level k down to level k0 <= k.

        Each composite is one bond composed onto the memoised composite from
        the level below, so every pair (k, k0) is built once.
        """
        if (k, k0) not in self._composites:
            self._check_level(k)
            self._check_level(k0)
            if k < k0:
                raise ValueError(f"composite needs k >= k0, got {k} < {k0}")
            if k == k0:
                g = self.graph(k)
                m = GraphMap(g, g, np.arange(g.nv), np.arange(g.ne))
            else:
                m = self.covering(k0 + 1).map
                for j in range(k0 + 2, k + 1):
                    if (j, k0) not in self._composites:
                        self._composites[(j, k0)] = m.compose(self.covering(j).map)
                    m = self._composites[(j, k0)]
            self._composites[(k, k0)] = m
        return self._composites[(k, k0)]

    def composite_covering(self, k: int, k0: int = 1) -> GraphCovering:
        if (k, k0) not in self._composite_covers:
            self._composite_covers[(k, k0)] = GraphCovering(self.composite_map(k, k0))
        return self._composite_covers[(k, k0)]

    def base_point(self, k: int) -> int:
        """Vertex index of the thread point x_k, lifting x_{k-1}."""
        self._check_level(k)
        while len(self._thread) < k:
            j = len(self._thread) + 1
            below = self._thread[-1]
            lifts = np.flatnonzero(self.covering(j).map.vmap == below)
            if not len(lifts):
                raise ValueError(f"bonding covering {j} misses the base thread")
            self._thread.append(int(lifts[0]))
        return self._thread[k - 1]

    def fiber(self, k: int) -> np.ndarray:
        """Total-vertex indices of level k over x_1, sorted (read-only)."""
        if k not in self._fibers:
            fiber = np.flatnonzero(self.composite_map(k, 1).vmap == self.base_point(1))
            fiber.setflags(write=False)
            self._fibers[k] = fiber
        return self._fibers[k]

    def fiber_position(self, k: int) -> Sequence[int]:
        """Per level-k vertex, its index in ``fiber(k)``; -1 off the fiber."""
        if k not in self._fiber_positions:
            fiber = self.fiber(k)
            pos = -np.ones(self.graph(k).nv, dtype=np.int64)
            pos[fiber] = np.arange(len(fiber))
            pos.setflags(write=False)
            self._fiber_positions[k] = pos
        return self._fiber_positions[k]

    def thread(self, k: int, top: int) -> tuple[int, ...]:
        """Vertices at levels 1..k of the thread through the level-k vertex
        ``top``, each the image of the one above under the bond; ``top``
        must lie over x_1."""
        self._check_level(k)
        top = operator.index(top)
        if not 0 <= top < self.graph(k).nv:
            raise ValueError(f"vertex {top} is outside level {k}")
        points = [top]
        for j in range(k, 1, -1):
            points.append(int(self.covering(j).map.vmap[points[-1]]))
        if points[-1] != self.base_point(1):
            raise ValueError(f"vertex {top} of level {k} does not lie over the base point")
        return tuple(reversed(points))

    def loop_endpoint(self, loop: Sequence[Step], k: int) -> int:
        """Where the lift of a base loop from x_k ends, lifted once through
        f_{k,1}; raises ``ValueError`` when that composite is not a
        covering."""
        cov = self.composite_covering(k, 1)
        cov.require_covering()
        cov.check_loop(loop, self.base_point(1))
        return int(cov.lift([self.base_point(k)], loop)[0])

    def deck_group(self, k: int) -> DeckGroup:
        """The deck group of f_{k,1} over x_1, by enumeration (meant for desk sizes)."""
        return self.composite_covering(k, 1).deck_group(self.base_point(1))

    def deck_power(self, k: int, target: int, n: int, point: int) -> int:
        """Image of the level-k vertex ``point`` under g^n, where g is the
        deck transformation of f_{k,1} sending x_k to ``target``; raises
        ``ValueError`` when there is none."""
        perm = self.composite_covering(k, 1).deck_transformation_from(self.base_point(k), target)
        if perm is None:
            raise ValueError("no deck element reaches that fiber point")
        perm = perm if n >= 0 else np.argsort(perm)
        n = abs(n)
        while n:
            if n & 1:
                point = int(perm[point])
            perm = perm[perm]
            n >>= 1
        return point

    def generator_monodromies(self, k: int) -> dict:
        """Monodromy fiber permutation of each base edge at level k."""
        out = {}
        cov = self.composite_covering(k, 1)
        for e in self.base.edge_ids:
            out[e] = cov.monodromy(((e, 1),), self.base_point(1))
        return out


def cyclic_tower(degrees: Sequence[int]) -> "CyclicTower":
    return CyclicTower(degrees)


class CyclicTower(CoveringTower):
    """Tower of cycle graphs C_1 <- C_{d_1} <- C_{d_1 d_2} <- ...

    Closed form: vertex i of level k is the residue i mod n_k, bonds reduce
    residues mod the order below, a base loop lifts by its winding number
    and the deck transformations are the rotations.  Threads, holonomy and
    the group law therefore cost O(K) integer operations at any depth.
    Each level's cycle graph and bond is built by :meth:`_build` on the
    first read of :meth:`graph` or :meth:`covering`, once, and shared, so
    deck groups and composites see real graphs; the closed form is verified
    on them, not assumed (see :meth:`verify_rotation_witness`).
    """

    def __init__(self, degrees: Sequence[int]):
        degrees = list(degrees)
        if any(d < 1 for d in degrees):
            raise ValueError("covering degrees must be positive")
        self.degrees = degrees
        sizes = [1]
        for d in degrees:
            sizes.append(sizes[-1] * d)
        self.sizes = sizes  # sizes[k-1] = order of level k
        self._open(len(sizes), [])

    def _build(self, k: int):
        g = Graph.cycle(self.sizes[k - 1])
        if k == 1:
            return g
        idx = np.arange(g.nv, dtype=np.int64) % self.sizes[k - 2]
        return GraphCovering(GraphMap(g, self.graph(k - 1), idx, idx))

    def base_point(self, k: int) -> int:
        """x_k: the least lift of x_{k-1} is x_{k-1} itself."""
        self._check_level(k)
        return self._thread[min(k, len(self._thread)) - 1]

    def fiber(self, k: int) -> np.ndarray:
        """Every vertex of level k, all over the one base vertex (read-only)."""
        if k not in self._fibers:
            self._check_level(k)
            fiber = np.arange(self.sizes[k - 1], dtype=np.int64)
            fiber.setflags(write=False)
            self._fibers[k] = fiber
        return self._fibers[k]

    def fiber_position(self, k: int) -> Sequence[int]:
        """The identity on level k's vertices, as a range."""
        self._check_level(k)
        return self._fiber_positions.setdefault(k, range(self.sizes[k - 1]))

    def thread(self, k: int, top: int) -> tuple[int, ...]:
        self._check_level(k)
        top = operator.index(top)
        if not 0 <= top < self.sizes[k - 1]:
            raise ValueError(f"vertex {top} is outside level {k}")
        return tuple(top % n for n in self.sizes[:k])

    def loop_endpoint(self, loop: Sequence[Step], k: int) -> int:
        for edge, _ in loop:
            self.base.eindex[edge]  # a KeyError names an unknown edge
        return (self.base_point(k) + sum(sign for _, sign in loop)) % self.sizes[k - 1]

    def deck_power(self, k: int, target: int, n: int, point: int) -> int:
        return (point + n * (target - self.base_point(k))) % self.sizes[k - 1]

    def verify_rotation_witness(self, k: int) -> bool:
        """Check that rotation by 1 is deck and acts transitively at level k.

        This certifies that f_{k,1} is regular without enumerating the group:
        the rotation commutes with the projection, is an automorphism, and
        its orbit exhausts the fiber, so the deck group has full size.
        """
        g = self.graph(k)
        n = g.nv
        rot = (np.arange(n, dtype=np.int64) + 1) % n
        m = self.composite_map(k, 1)
        automorphic = (np.array_equal(g.esrc[rot], rot[g.esrc])
                       and np.array_equal(g.edst[rot], rot[g.edst]))
        commutes = (np.array_equal(m.vmap[rot], m.vmap)
                    and np.array_equal(m.emap[rot], m.emap))
        transitive = int(np.count_nonzero(m.vmap == self.base_point(1))) == n
        return bool(automorphic and commutes and transitive)
