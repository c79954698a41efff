"""Graph coverings, deck transformation groups, and covering towers.

Graphs here are plain directed multigraphs standing in for 1-manifolds and
roses: :class:`branched_graph.Graph` with its default sides, in-edges on
side A and out-edges on side B, so a tower's levels and bonds also read as
a system of branched graphs.  A covering is a graph map, onto on vertices,
that is a bijection on every vertex star, and it is checked once, when it
is made.
A deck transformation is held as its vertex permutation, which fixes it
because lifts are unique, and a deck group as the rows of one array.  They
are computed by path lifting, for every candidate at once: the candidate
images of a fiber base point fill one column each of an image matrix, which
propagates down a spanning tree of the total graph by one lift gather per
tree step.  Tree edges then hold by construction, and every other edge is
checked against the lift table of its base edge.  Towers stack coverings
over a fixed base, carry a coherent thread of base points, and expose the
composite coverings whose deck groups feed the profinite layer.

The cell data lives in numpy index arrays.  A tower builds a level only
when a question reads it, through one hook, so a level read from a file is
checked against the local axioms as it is built; the deck and lifting
questions check that the total graph is connected.  Cyclic towers answer
threads, holonomy and the group law in closed form, at any depth.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .branched_graph import Graph

Step = tuple  # (edge_id, +1 | -1)

# bounds the entries of every working array of a deck enumeration (_BLOCK // nv candidates a block)
_BLOCK = 1 << 17


class GraphCovering:
    """A covering map of graphs: single-edge, orientation-preserving images.

    The constructor checks every local covering axiom, naming the first that
    fails: edge images join vertex images, every vertex star maps bijectively
    onto its image's star, and every base vertex is hit.  Over a connected
    base these force constant fibers and onto edges.  Connectivity of the
    total graph, the one global axiom, is checked by the questions that need
    it.  Compositions and identities are coverings by construction and are
    not checked again.
    """

    def __init__(self, total: Graph, base: Graph, vmap: np.ndarray, emap: np.ndarray):
        self._set(total, base, vmap, emap)
        if len(self.vmap) != total.nv or len(self.emap) != total.ne:
            raise ValueError("map arrays must cover the domain cells")
        problem = self._local_problem()
        if problem:
            raise ValueError(f"not a covering: {problem}")

    def _set(self, total: Graph, base: Graph, vmap, emap) -> "GraphCovering":
        self.total, self.base = total, base
        self.vmap = np.asarray(vmap, dtype=np.int64)
        self.emap = np.asarray(emap, dtype=np.int64)
        self._transport: dict[tuple[int, int], np.ndarray] = {}
        return self

    def _local_problem(self) -> Optional[str]:
        """The first local axiom broken, or None.  Stars: the out-edges
        (in-edges) at a total vertex u meet each base edge leaving (entering)
        vmap[u] once, so sorted (u, base edge) keys repeat none, and u has as
        many of them as vmap[u]."""
        total, base, vmap, emap = self.total, self.base, self.vmap, self.emap
        if not (np.array_equal(base.esrc[emap], vmap[total.esrc])
                and np.array_equal(base.edst[emap], vmap[total.edst])):
            return "edge images do not respect endpoints"
        stars_match = True
        for direction, ends, base_ends in ("out", total.esrc, base.esrc), ("in", total.edst, base.edst):
            key = np.sort(ends * max(base.ne, 1) + emap)
            if (key[1:] == key[:-1]).any():
                return f"two {direction}-edges at one vertex share a base edge"
            stars_match &= np.array_equal(np.bincount(ends, minlength=total.nv),
                                          np.bincount(base_ends, minlength=base.nv)[vmap])
        if not stars_match:
            return "some vertex star does not match its image star"
        if np.count_nonzero(np.bincount(vmap, minlength=base.nv)) < base.nv:
            return "not surjective on vertices"
        return None

    @classmethod
    def from_dicts(cls, total: Graph, base: Graph,
                   vertex_map: Mapping, edge_map: Mapping) -> "GraphCovering":
        """The covering read off label maps, one lookup per id; a ValueError
        names a missing entry or an unknown image."""
        arrays = []
        for what, ids, mapping, index in (("vertex", total.vertex_ids, vertex_map, base.vindex),
                                          ("edge", total.edge_ids, edge_map, base.eindex)):
            try:
                arrays.append([index[mapping[x]] for x in ids])
            except KeyError:
                for x in ids:
                    try:
                        image = mapping[x]
                    except KeyError:
                        raise ValueError(f"{what}_map has no entry for {what} {x!r}") from None
                    if image not in index:
                        raise ValueError(f"{what} {x!r} maps to unknown {what} {image!r}") from None
        return cls(total, base, *arrays)

    @classmethod
    def identity(cls, g: Graph) -> "GraphCovering":
        return cls.__new__(cls)._set(g, g, np.arange(g.nv), np.arange(g.ne))

    def compose(self, inner: "GraphCovering") -> "GraphCovering":
        """self after inner, which covers self's total graph."""
        return GraphCovering.__new__(GraphCovering)._set(
            inner.total, self.base, self.vmap[inner.vmap], self.emap[inner.emap])

    def fiber(self, base_vi: int) -> np.ndarray:
        """Sorted total-vertex indices over the base vertex index."""
        return np.flatnonzero(self.vmap == base_vi)

    def degree(self) -> int:
        sizes = np.bincount(self.vmap, minlength=self.base.nv)
        return int(sizes[0]) if self.base.nv else 0

    # -- lifting ----------------------------------------------------------

    def _step_transport(self, base_ei: int, sign: int) -> np.ndarray:
        """Per total vertex, where the unique lift of one base step lands."""
        cache = self._transport
        if (base_ei, sign) not in cache:
            sel = np.flatnonzero(self.emap == base_ei)
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
                raise ValueError("the path does not lift from every start")
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

    def _deck_elements(self, t0: int, images: np.ndarray) -> tuple[list[int], np.ndarray]:
        """The candidates t0 -> images[i] that extend to deck transformations.

        Returns the surviving images and their vertex permutations, one row
        each, in candidate order.  Candidates propagate in blocks of
        ``_BLOCK // nv`` columns of an int32 image matrix, one row per total
        vertex, so no working array exceeds ``_BLOCK`` entries.  Tree edges
        hold by construction, the +1 and -1 lifts of a base edge being inverse
        bijections; every other edge is checked against the lift table of its
        base edge.  Raises ``ValueError`` when the total graph is not connected.
        """
        total, emap = self.total, self.emap
        tree = total.spanning_tree(t0)
        if len(tree) < total.nv - 1:
            raise ValueError("not a covering: total graph is not connected")
        steps = [(u, self._step_transport(int(emap[e]), sign), w) for u, e, sign, w in tree]
        rest = np.delete(np.arange(total.ne), [e for _, e, _, _ in tree])
        rest = rest[np.argsort(emap[rest])]  # the non-tree edges, by base edge
        checks = [(self._step_transport(int(emap[over[0]]), 1), total.esrc[over], total.edst[over])
                  for over in np.split(rest, np.flatnonzero(np.diff(emap[rest])) + 1) if len(over)]
        images = np.asarray(images, dtype=np.int64)
        images = images[self.vmap[images] == self.vmap[t0]]
        block = max(1, _BLOCK // max(total.nv, 1))
        orbit = []
        vperms = np.empty((len(images), total.nv), dtype=np.int64)
        for lo in range(0, len(images), block):
            cand = images[lo:lo + block]
            img = np.empty((total.nv, len(cand)), dtype=np.int32)
            img[t0] = cand
            for u, transport, w in steps:
                img[w] = transport[img[u]]
            ok = np.ones(len(cand), dtype=bool)
            for transport, src, dst in checks:
                ok &= (transport[img[src]] == img[dst]).all(axis=0)
            # no bijectivity check: on a connected finite covering, edge-consistent self-maps are bijective
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
            if not upper.base.indexed_alike(lower.total):
                raise ValueError("consecutive coverings do not stack")
        self._open(len(coverings) + 1, [coverings[0].base, *coverings], base_vertex)

    def _open(self, depth: int, built: list, base_vertex=None):
        self.depth = depth  # largest level index (levels are 1-based)
        self._built = built  # [k - 1]: the base graph for k = 1, else the bond f_k
        if base_vertex is not None and base_vertex not in self.base.vindex:
            raise ValueError(f"unknown base vertex {base_vertex!r}")
        self._thread = [0 if base_vertex is None else self.base.vindex[base_vertex]]
        self._composites: dict[tuple[int, int], GraphCovering] = {}

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

    def composite_map(self, k: int, k0: int = 1) -> GraphCovering:
        """The composite covering f_{k,k0} from level k down to level k0 <= k.

        Each composite is one bond composed onto the memoised composite from
        the level below, so every pair (k, k0) is built once.
        """
        if (k, k0) not in self._composites:
            self._check_level(k)
            self._check_level(k0)
            if k < k0:
                raise ValueError(f"composite needs k >= k0, got {k} < {k0}")
            if k == k0:
                m = GraphCovering.identity(self.graph(k))
            else:
                m = self.covering(k0 + 1)
                for j in range(k0 + 2, k + 1):
                    if (j, k0) not in self._composites:
                        self._composites[(j, k0)] = m.compose(self.covering(j))
                    m = self._composites[(j, k0)]
            self._composites[(k, k0)] = m
        return self._composites[(k, k0)]

    def base_point(self, k: int) -> int:
        """Vertex index of the thread point x_k, lifting x_{k-1}."""
        self._check_level(k)
        while len(self._thread) < k:  # every covering is onto, so x_{k-1} has a lift
            self._thread.append(int(self.covering(len(self._thread) + 1).fiber(self._thread[-1])[0]))
        return self._thread[k - 1]

    def fiber(self, k: int) -> np.ndarray:
        """Total-vertex indices of level k over x_1, sorted."""
        return self.composite_map(k).fiber(self.base_point(1))

    def fiber_position(self, k: int) -> Sequence[int]:
        """Per level-k vertex, its index in ``fiber(k)``; -1 off the fiber."""
        fiber = self.fiber(k)
        pos = -np.ones(self.graph(k).nv, dtype=np.int64)
        pos[fiber] = np.arange(len(fiber))
        return pos

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
            points.append(int(self.covering(j).vmap[points[-1]]))
        if points[-1] != self.base_point(1):
            raise ValueError(f"vertex {top} of level {k} does not lie over the base point")
        return tuple(reversed(points))

    def loop_endpoint(self, loop: Sequence[Step], k: int) -> int:
        """Where the lift of a base loop from x_k ends, lifted once through
        f_{k,1}; raises ``ValueError`` when level k is not connected."""
        cov = self.composite_map(k)
        if not cov.total.is_connected:
            raise ValueError("not a covering: total graph is not connected")
        cov.check_loop(loop, self.base_point(1))
        return int(cov.lift([self.base_point(k)], loop)[0])

    def deck_group(self, k: int) -> DeckGroup:
        """The deck group of f_{k,1} over x_1, by enumeration (meant for desk sizes)."""
        return self.composite_map(k).deck_group(self.base_point(1))

    def deck_power(self, k: int, target: int, n: int, point: int) -> int:
        """Image of the level-k vertex ``point`` under g^n, where g is the
        deck transformation of f_{k,1} sending x_k to ``target``; raises
        ``ValueError`` when there is none."""
        perm = self.composite_map(k).deck_transformation_from(self.base_point(k), target)
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
        cov = self.composite_map(k)
        return {e: cov.monodromy(((e, 1),), self.base_point(1)) for e in self.base.edge_ids}


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
        return GraphCovering(g, self.graph(k - 1), idx, idx)

    def base_point(self, k: int) -> int:
        """x_k: the least lift of x_{k-1} is x_{k-1} itself."""
        self._check_level(k)
        return self._thread[min(k, len(self._thread)) - 1]

    def fiber(self, k: int) -> np.ndarray:
        """Every vertex of level k, all over the one base vertex."""
        self._check_level(k)
        return np.arange(self.sizes[k - 1], dtype=np.int64)

    def fiber_position(self, k: int) -> Sequence[int]:
        """The identity on level k's vertices, as a range."""
        self._check_level(k)
        return range(self.sizes[k - 1])

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
        m = self.composite_map(k)
        automorphic = (np.array_equal(g.esrc[rot], rot[g.esrc])
                       and np.array_equal(g.edst[rot], rot[g.edst]))
        commutes = (np.array_equal(m.vmap[rot], m.vmap)
                    and np.array_equal(m.emap[rot], m.emap))
        transitive = int(np.count_nonzero(m.vmap == self.base_point(1))) == n
        return bool(automorphic and commutes and transitive)
