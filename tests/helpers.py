"""Shared generators and independent oracles for the test suite.

Oracles here deliberately re-derive results by brute force (transitive
closures, long-word factor collection, modular arithmetic) so the library
is checked against computations that share none of its code paths.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable, Optional

import numpy as np

from laminate.approximants import quotient_cell
from laminate.branched_graph import (
    CellularMap,
    GermMap,
    Graph,
    SmoothGerm,
    compose_germs,
    germ_flattens,
)
from laminate.coverings import GraphCovering
from laminate.inverse_system import (
    CrossingComponent,
    DoubleSectionWitness,
    EdgeDisk,
    EdgePoint,
    Flattening,
    InverseSystem,
    LocalBox,
    NotFlatteningUpTo,
    NotLocallyTrivial,
    SegmentComponent,
    StarDisk,
    Thread,
    VertexCell,
    VertexComponent,
)
from laminate.local_model import BranchTree, HalfSpace, Sector, sector_contains
from laminate.subshift import LanguageOracle, Substitution, word_keys, word_ranks


# -- local model -------------------------------------------------------------

def brute_force_glue_classes(tree: BranchTree, x) -> list[frozenset]:
    """Transitive closure of the generating relation, pair by pair."""
    related = {v: {v} for v in tree.vertices}
    for s, t in tree.edges:
        if not sector_contains(tree.sector_of[s], x):
            related[s].add(t)
            related[t].add(s)
    changed = True
    while changed:
        changed = False
        for v in tree.vertices:
            merged = set(related[v])
            for w in list(related[v]):
                merged |= related[w]
            if merged != related[v]:
                related[v] = merged
                changed = True
    blocks = {frozenset(related[v]) for v in tree.vertices}
    return sorted(blocks, key=lambda b: sorted(map(repr, b)))


def random_branch_tree(rng: Random, max_dim: int = 3, max_vertices: int = 5) -> BranchTree:
    n = rng.randint(1, max_dim)
    size = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(size)]
    edges = []
    for i in range(1, size):
        parent = rng.randrange(i)
        pair = (vertices[i], vertices[parent])
        edges.append(pair if rng.random() < 0.5 else pair[::-1])
    sectors = {}
    for v in vertices:
        halfspaces = []
        for _ in range(rng.randint(0, 3)):
            normal = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            if any(normal):
                halfspaces.append(HalfSpace(tuple(normal)))
        sectors[v] = Sector(n, tuple(halfspaces))
    return BranchTree(n, tuple(vertices), tuple(edges), sectors)


def random_disk_point(rng: Random, n: int) -> tuple[Fraction, ...]:
    while True:
        point = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)
        )
        if sum(c * c for c in point) <= 1:
            return point


# -- languages ----------------------------------------------------------------

def long_word_factors(rules: dict, seed: str, iterations: int, length: int) -> set:
    """Factors of a long substitution iterate; independent of the oracle."""
    word = seed
    for _ in range(iterations):
        word = "".join(rules[c] for c in word)
    return {word[i : i + length] for i in range(len(word) - length + 1)}


def enumerated_sft_words(alphabet, forbidden, length: int, margin: int = 8) -> set:
    """Legal words as centers of longer forbidden-free words, by enumeration.

    A word is kept when it extends ``margin`` letters on both sides without
    forbidden factors, which over-approximates bi-extendability well enough
    for the small test systems (margin exceeds any synchronization length
    used here).  Costs |alphabet|^(length + 2 margin); see brute_sft_words.
    """
    out = set()
    for t in itertools.product(alphabet, repeat=length + 2 * margin):
        w = "".join(t)
        if any(f in w for f in forbidden):
            continue
        out.add(w[margin : margin + length])
    return out


def brute_sft_words(alphabet, forbidden, length: int, margin: int = 8) -> set:
    """The same set as enumerated_sft_words, by dynamic programming.

    A forbidden-free word is read left to right; whether the next letter
    creates a forbidden factor depends only on the last (longest forbidden
    length - 1) letters, the state.  The DP keeps the states after
    ``margin`` letters, then (center, state) pairs over ``length`` letters,
    and keeps a center when its state still admits ``margin`` more letters.
    """
    keep = max(map(len, forbidden), default=1) - 1

    def step(state: str, c: str):
        w = state + c
        if any(w.endswith(f) for f in forbidden):
            return None
        return w[-keep:] if keep else ""

    @functools.cache
    def extends(state: str, more: int) -> bool:
        return more == 0 or any(
            t is not None and extends(t, more - 1) for t in (step(state, c) for c in alphabet)
        )

    states = {""}
    for _ in range(margin):
        states = {t for s in states for c in alphabet if (t := step(s, c)) is not None}
    pairs = {("", s) for s in states}
    for _ in range(length):
        pairs = {(w + c, t) for w, s in pairs for c in alphabet
                 if (t := step(s, c)) is not None}
    return {w for w, s in pairs if extends(s, margin)}


def _random_sfts(rng: Random, count: int) -> list[tuple[str, list]]:
    """(alphabet, forbidden) over 2-3 letters, forbidden words of length 2-3,
    whose language is not empty by the DP oracle."""
    out = []
    while len(out) < count:
        alphabet = "abc"[: rng.randint(2, 3)]
        forbidden = ["".join(rng.choice(alphabet) for _ in range(rng.randint(2, 3)))
                     for _ in range(rng.randint(1, 4))]
        if brute_sft_words(alphabet, forbidden, 1, margin=12):
            out.append((alphabet, forbidden))
    return out


def _random_primitive_substitutions(rng: Random, count: int) -> list[Substitution]:
    out = []
    while len(out) < count:
        alphabet = "abc"[: rng.randint(2, 3)]
        rules = {a: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                 for a in alphabet}
        subst = Substitution(tuple(alphabet), rules)
        if subst.is_primitive and any(len(w) > 1 for w in rules.values()):
            out.append(subst)
    return out


def random_oracles(seed: int) -> list[Callable[[], LanguageOracle]]:
    """Factories of fresh oracles: random SFTs and primitive substitutions."""
    rng = Random(seed)
    sfts = [lambda a=a, f=f: LanguageOracle.from_forbidden(list(a), f) for a, f in _random_sfts(rng, 20)]
    substs = [lambda s=s: LanguageOracle.from_substitution(s)
              for s in _random_primitive_substitutions(rng, 12)]
    return sfts + substs


class StringClopens:
    """Clopen sets as (radius, frozenset of windows), by set comprehensions
    over a language given as ``words(length) -> set of strings``; the
    reference for the flags of ``laminate.transversal``."""

    def __init__(self, words: Callable[[int], set]):
        self.words = words

    def make(self, radius: int, windows) -> tuple:
        return radius, frozenset(windows) & frozenset(self.words(2 * radius + 1))

    def cylinder(self, word: str, mark: int) -> tuple:
        r = max(mark, len(word) - 1 - mark)
        left = r - mark
        return self.make(r, (u for u in self.words(2 * r + 1)
                             if u[left : left + len(word)] == word))

    def canonicalize(self, s: tuple, radius: int) -> tuple:
        r, windows = s
        pad = radius - r
        return self.make(radius, (u for u in self.words(2 * radius + 1)
                                  if u[pad : pad + 2 * r + 1] in windows))

    def common(self, a: tuple, b: tuple) -> tuple:
        r = max(a[0], b[0])
        return r, self.canonicalize(a, r)[1], self.canonicalize(b, r)[1]

    def union(self, a, b):
        r, x, y = self.common(a, b)
        return self.make(r, x | y)

    def intersect(self, a, b):
        r, x, y = self.common(a, b)
        return self.make(r, x & y)

    def subtract(self, a, b):
        r, x, y = self.common(a, b)
        return self.make(r, x - y)

    def complement(self, a):
        return self.subtract(self.canonicalize(self.make(0, self.words(1)), a[0]), a)

    def is_subset(self, a, b) -> bool:
        _, x, y = self.common(a, b)
        return x <= y

    def shift(self, s: tuple, steps: int) -> tuple:
        r, windows = s
        n = abs(steps)
        lo = 0 if steps > 0 else 2 * n
        return self.make(r + n, (u for u in self.words(2 * (r + n) + 1)
                                 if u[lo : lo + 2 * r + 1] in windows))

    def compose_domain(self, words: list) -> tuple:
        """The domain of a composite of (displacement, domain) shift words."""
        domain, travelled = self.make(0, self.words(1)), 0
        for displacement, d in words:
            domain = self.intersect(domain, self.shift(d, -travelled))
            travelled += displacement
        return domain


def reference_approximant(oracle, k: int) -> Graph:
    """Approximant level k built word by word from strings."""
    vertices = oracle.words(2 * k)
    edges = {w: (w[:-1], w[1:]) for w in oracle.words(2 * k + 1)}
    incoming: dict = {v: set() for v in vertices}
    outgoing: dict = {v: set() for v in vertices}
    for w, (src, dst) in edges.items():
        outgoing[src].add((w, "+"))
        incoming[dst].add((w, "-"))
    sides = {v: (incoming[v], outgoing[v]) for v in vertices}
    return Graph.from_edges(vertices, edges, sides)


def reference_drop_one_letter(upper: Graph, lower: Graph) -> CellularMap:
    """The drop-one-letter bond from strings, through the validating constructor."""
    vmap = {w: w[1:-1] for w in upper.vertices}
    emap = {w: ((w[1:-1], 1),) for w in upper.edges}
    return CellularMap(upper, lower, vmap, emap)


# -- the subshift layer by search and re-test --------------------------------------
# The paths the library ran before it read ranks and legality off the sorted,
# factor-closed rows; answers and error messages must equal them.

def searched_drop_one_letter(upper, lower) -> CellularMap:
    """The bond between two collared complexes by two middle-slice searches."""
    vmap = word_ranks(lower.vertices, upper.vertices[:, 1:-1])
    emap = word_ranks(lower.edges, upper.edges[:, 1:-1])
    k = lower.k
    if min(vmap.min(), emap.min()) < 0:
        raise ValueError(f"bond {k}: a trimmed word is not legal")
    if not (np.array_equal(lower.src[emap], vmap[upper.src])
            and np.array_equal(lower.dst[emap], vmap[upper.dst])):
        raise ValueError(f"bond {k}: edge images do not join vertex images")
    f = CellularMap.edgewise(upper.graph, lower.graph, vmap, emap)
    if not all(f.onto()):
        raise ValueError(f"bond {k} is not onto")
    return f


def checked_separation_depth(oracle, x_word: str, x_mark: int, y_word: str, y_mark: int,
                             max_k: int) -> Optional[int]:
    """separation_depth testing both quotient cells' legality at every radius."""
    if max_k < 0:
        raise ValueError(f"max_k must be nonnegative, got {max_k}")
    for word, mark in ((x_word, x_mark), (y_word, y_mark)):
        if mark - max_k < 0 or mark + max_k + 1 > len(word):
            raise ValueError(f"marked word of length {len(word)} cannot supply windows up "
                             f"to radius {max_k}")
    for k in range(max_k + 1):
        if quotient_cell(oracle, k, x_word, x_mark) != quotient_cell(oracle, k, y_word, y_mark):
            return k
    return None


def pulled_back_cylinder(oracle, word: str, mark: int) -> tuple[int, np.ndarray]:
    """(radius, window flags) of a cylinder by ``is_legal``, then the ranks of
    the windows' slices among the word's length."""
    if not oracle.is_legal(word):
        raise ValueError(f"cylinder word {word!r} is not legal")
    r, n = max(mark, len(word) - 1 - mark), len(word)
    flags = (oracle.rows(n) == [oracle.alphabet.index(c) + 1 for c in word]).all(axis=1)
    windows = oracle.rows(2 * r + 1)
    at = word_ranks(oracle.rows(n), windows[:, r - mark : r - mark + n])
    return r, (at >= 0) & flags[at]


def unique_prefix_rows(rows: np.ndarray, length: int) -> np.ndarray:
    """The distinct length-prefixes of a sorted word matrix, by a string sort."""
    prefixes = rows[:, :length]
    return prefixes[np.unique(word_keys(prefixes), return_index=True)[1]]


# -- random systems -------------------------------------------------------------

def random_rose_words(rng: Random, petals: tuple[str, ...]) -> dict:
    """Image words for a rose self-map, onto on edges."""
    while True:
        words = {
            e: "".join(rng.choice(petals) for _ in range(rng.randint(1, 3)))
            for e in petals
        }
        if set("".join(words.values())) == set(petals):
            return words


def rose_graph(petals: tuple[str, ...]) -> Graph:
    return Graph.from_edges(
        vertices={"w"},
        edges={e: ("w", "w") for e in petals},
        sides={"w": ({(e, "+") for e in petals}, {(e, "-") for e in petals})},
    )


def rose_map(petals: tuple[str, ...], words: dict) -> CellularMap:
    g = rose_graph(petals)
    return CellularMap(
        g, g, {"w": "w"}, {e: tuple((d, 1) for d in w) for e, w in words.items()}
    )


def cycle_branched(n: int) -> Graph:
    """Cycle as a branched graph: incoming side A, outgoing side B."""
    vertices = {f"u{i}" for i in range(n)}
    edges = {f"c{i}": (f"u{i}", f"u{(i + 1) % n}") for i in range(n)}
    sides = {
        f"u{i}": (
            {(f"c{(i - 1) % n}", "-")},
            {(f"c{i}", "+")},
        )
        for i in range(n)
    }
    return Graph.from_edges(vertices, edges, sides)


def cycle_cover_map(m: int, n: int) -> CellularMap:
    """The covering C_m -> C_n for n dividing m."""
    upper, lower = cycle_branched(m), cycle_branched(n)
    return CellularMap(
        upper,
        lower,
        {f"u{i}": f"u{i % n}" for i in range(m)},
        {f"c{i}": ((f"c{i % n}", 1),) for i in range(m)},
    )


def random_small_system(rng: Random, depth: int = 5) -> InverseSystem:
    """A valid system with levels of at most 4 vertices and 6 edges."""
    kind = rng.randrange(3)
    if kind == 0:
        petals = tuple("ab") if rng.random() < 0.7 else tuple("abc")
        bonds = [
            rose_map(petals, random_rose_words(rng, petals)) for _ in range(depth)
        ]
        return InverseSystem.from_lists([rose_graph(petals)] * (depth + 1), bonds)
    if kind == 1:
        # cycle tower with degrees 1 or 2, capped at 4 vertices
        sizes = [1]
        for _ in range(depth):
            grow = rng.random() < 0.5 and sizes[-1] * 2 <= 4
            sizes.append(sizes[-1] * 2 if grow else sizes[-1])
        levels = [cycle_branched(n) for n in sizes]
        bonds = [cycle_cover_map(m, n) for n, m in zip(sizes, sizes[1:])]
        return InverseSystem.from_lists(levels, bonds)
    petals = tuple("ab")
    bond = rose_map(petals, random_rose_words(rng, petals))
    return InverseSystem.from_lists(
        [rose_graph(petals)] * (depth + 1), [bond] * depth
    )


def theta_graph() -> Graph:
    """Branched circle: x and y run u -> v and merge at v; z runs back."""
    return Graph.from_edges(
        vertices={"u", "v"},
        edges={"x": ("u", "v"), "y": ("u", "v"), "z": ("v", "u")},
        sides={"u": ({("z", "-")}, {("x", "+"), ("y", "+")}),
               "v": ({("x", "-"), ("y", "-")}, {("z", "+")})},
    )


def random_walk_map(rng: Random, g: Graph, vertex_map: dict) -> CellularMap:
    """An onto cellular self-map of g with this vertex map, drawn until one
    is side-coherent and onto: each edge's image is a random walk of 1-4
    steps, forward or backward, between the images of the edge's ends."""
    leaving = {v: [(e, 1) for e, (s, _) in g.edges.items() if s == v]
               + [(e, -1) for e, (_, t) in g.edges.items() if t == v] for v in g.vertices}
    while True:
        edge_map = {}
        for e, (s, t) in g.edges.items():
            at = None
            while at != vertex_map[t]:
                at, path = vertex_map[s], []
                for _ in range(rng.randint(1, 4)):
                    d, sign = rng.choice(leaving[at])
                    path.append((d, sign))
                    at = g.edges[d][1 if sign == 1 else 0]
            edge_map[e] = tuple(path)
        try:
            f = CellularMap(g, g, vertex_map, edge_map)
        except ValueError:
            continue
        if all(f.onto()):
            return f


def random_stationary_maps(rng: Random, count: int) -> list[CellularMap]:
    """Onto self-maps: roses of 1-4 petals on ``random_rose_words``, read
    forward or (mapping side A onto side B) backward, and branched circles
    whose map fixes or swaps their two vertices."""
    out, theta = [], theta_graph()
    while len(out) < count:
        if rng.random() < 0.75:
            petals = tuple("abcd"[: rng.randint(1, 4)])
            words = random_rose_words(rng, petals)
            if rng.random() < 0.7:
                out.append(rose_map(petals, words))
            else:
                g = rose_graph(petals)
                out.append(CellularMap(g, g, {"w": "w"},
                                       {e: tuple((d, -1) for d in reversed(w)) for e, w in words.items()}))
        else:
            swap = rng.random() < 0.3
            out.append(random_walk_map(rng, theta, {"u": "v", "v": "u"} if swap else {"u": "u", "v": "v"}))
    return out


# -- the tower verdict by exhaustive search ---------------------------------------

def reference_tower_search(system: InverseSystem, window: int):
    """The flattening verdict of a tower by the reach/greedy search over the
    window, which assumes no monotonicity of flattening.

    Working down from the window edge, level j *reaches* the edge when the
    composite from some reaching level k > j down to j flattens, and the
    *greedy* chain from j takes, repeatedly, the least level whose
    composite down to the current one flattens.  The chain starts at the
    least level whose greedy chain reaches the edge or, when there is none,
    at the least reaching level, and takes, repeatedly, the least reaching
    level whose composite down to the current one flattens.  When no level
    reaches the edge the result is inconclusive."""
    if system.max_depth is not None:
        window = min(window, system.max_depth)
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


# -- threads and local boxes by labels -------------------------------------------

def half_edges_at(g: Graph, v) -> frozenset:
    """The star of v: every half-edge at v, read off the labelled sides."""
    return frozenset().union(*g.sides[v])


def _vertex_preimages(f: CellularMap, v) -> list:
    """The vertices mapping to v, in ``repr`` order, by a scan of the vertex map."""
    return sorted((u for u, w in f.vertex_map.items() if w == v), key=repr)


def _point_preimages(f: CellularMap, cell: EdgePoint) -> list[EdgePoint]:
    """The points mapping to an edge point, by a scan of the edge paths in
    ``repr`` order of their edges."""
    out = []
    for e in sorted(f.edge_map, key=repr):
        path = f.edge_map[e]
        m = len(path)
        for j, (d, s) in enumerate(path):
            if d == cell.edge:
                t = Fraction(j + cell.t, m) if s == 1 else Fraction(j + 1 - cell.t, m)
                out.append(EdgePoint(e, t))
    return out


def reference_apply_cell(f: CellularMap, cell):
    """Image of a cell, read off the labelled maps and edge ends."""
    if isinstance(cell, VertexCell):
        return VertexCell(f.vertex_map[cell.vertex])
    path = f.edge_map[cell.edge]
    m = len(path)
    pos = m * cell.t
    j = int(pos)
    u = pos - j
    if u == 0:
        d, s = path[j - 1]
        return VertexCell(f.codomain.edges[d][1 if s == 1 else 0])
    d, s = path[j]
    return EdgePoint(d, u if s == 1 else 1 - u)


def reference_threads(system: InverseSystem, depth: int, base_cell) -> list[Thread]:
    """All coherent threads over a base cell, each partial thread extended
    by the label scans above."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    level0 = system.level(0)
    if isinstance(base_cell, VertexCell):
        if base_cell.vertex not in level0.vertices:
            raise ValueError(f"unknown vertex {base_cell.vertex!r} at level 0")
    elif base_cell.edge not in level0.edges:
        raise ValueError(f"unknown edge {base_cell.edge!r} at level 0")
    partial = [(base_cell,)]
    for k in range(depth):
        f = system.bond(k)
        grown = []
        for cells in partial:
            top = cells[-1]
            if isinstance(top, VertexCell):
                pre = [VertexCell(u) for u in _vertex_preimages(f, top.vertex)]
            else:
                pre = _point_preimages(f, top)
            grown.extend(cells + (c,) for c in pre)
        partial = grown
    return [Thread(cells) for cells in partial]


def reference_local_box(system: InverseSystem, thread: Thread, k0: int) -> LocalBox:
    """The local box by labels: composites rebuilt at every level, stars
    compared as sets of labelled half-edges, edges scanned in ``repr`` order."""
    if not 0 <= k0 <= thread.depth:
        raise ValueError("k0 must lie within the thread's depth")
    if not all(reference_apply_cell(system.bond(k), thread.cells[k + 1]) == thread.cells[k]
               for k in range(thread.depth)):
        raise ValueError("thread is not coherent with the bonding maps")
    cell = thread.cells[k0]
    components: dict[int, tuple] = {}
    if isinstance(cell, EdgePoint):
        for k in range(k0 + 1, thread.depth + 1):
            f = system.composite(k, k0)
            components[k] = tuple(SegmentComponent(e, j, s) for e in sorted(f.edge_map, key=repr)
                                  for j, (d, s) in enumerate(f.edge_map[e]) if d == cell.edge)
        return LocalBox(EdgeDisk(cell.edge), components)
    v = cell.vertex
    star_v = half_edges_at(system.level(k0), v)
    for k in range(k0 + 1, thread.depth + 1):
        f = system.composite(k, k0)
        upper = system.level(k)
        found = []
        for u in _vertex_preimages(f, v):
            images = {h: path_half_edge_image(f, h) for h in half_edges_at(upper, u)}
            if len(set(images.values())) != len(images):
                raise NotLocallyTrivial(k, f"star of {u!r} folds over {v!r}")
            if set(images.values()) != star_v:
                raise NotLocallyTrivial(k, f"star of {u!r} misses directions of star({v!r})")
            found.append(VertexComponent(u))
        for e in sorted(f.edge_map, key=repr):
            path = f.edge_map[e]
            for j in range(1, len(path)):
                (d0, s0), (d1, s1) = path[j - 1], path[j]
                arrived = (d0, "-" if s0 == 1 else "+")
                if arrived not in star_v:
                    continue  # the junction is not at v
                leaving = (d1, "+" if s1 == 1 else "-")
                if arrived == leaving:
                    raise NotLocallyTrivial(k, f"edge {e!r} folds at step {j} over {v!r}")
                if {arrived, leaving} != star_v:
                    raise NotLocallyTrivial(
                        k, f"edge {e!r} crosses {v!r} at step {j} through an arc, "
                        f"but star({v!r}) is branched")
                found.append(CrossingComponent(e, j))
        components[k] = tuple(found)
    return LocalBox(StarDisk(v), components)


# -- the non-lamination certificate by labels -----------------------------------

def reference_germs_at(g: Graph, v) -> list[SmoothGerm]:
    """All two-sided germs at v, a half-edge of side A and one of side B,
    each side in ``repr`` order of (edge, end), side A first."""
    a_side, b_side = (sorted(side, key=lambda h: (repr(h[0]), h[1])) for side in g.sides[v])
    return [SmoothGerm(v, a, b) for a in a_side for b in b_side]


def path_half_edge_image(f: CellularMap, h: tuple) -> tuple:
    """The direction in which the image path of half-edge h leaves the
    image vertex, read off f's edge path: its first step at the source
    end, its last step reversed at the target end."""
    e, end = h
    d, s = f.edge_map[e][0 if end == "+" else -1]
    return (d, "+" if (s == 1) == (end == "+") else "-")


def reference_germ_image(f: CellularMap, germ: SmoothGerm) -> SmoothGerm:
    """Image germ, read off f's edge paths, with the image half-edges
    sorted back into the sides of the image vertex."""
    w = f.vertex_map[germ.vertex]
    slots = [None, None]
    for h in (germ.a, germ.b):
        if h not in half_edges_at(f.domain, germ.vertex):
            raise ValueError(f"half-edge {h!r} is not at vertex {germ.vertex!r}")
        image = path_half_edge_image(f, h)
        bit = 0 if image in f.codomain.sides[w][0] else 1
        if slots[bit] not in (None, image):
            raise ValueError("germ folds onto one side; image is not a germ")
        slots[bit] = image
    return SmoothGerm(w, *slots)


def reference_certificate(system: InverseSystem) -> Optional[DoubleSectionWitness]:
    """The invariant double section by labels: at the first fixed vertex in
    ``repr`` order that has one, the first pair of germs (disjoint pairs
    first) whose pair the bond maps onto itself and each of which is the
    only germ with its image."""
    f, g = system.bond(0), system.level(0)
    for v in sorted(g.vertices, key=repr):
        if f.vertex_map[v] != v:
            continue
        germs = reference_germs_at(g, v)
        images = {germ: reference_germ_image(f, germ) for germ in germs}
        pairs = [(g0, g1) for i, g0 in enumerate(germs) for g1 in germs[i + 1:]]
        pairs.sort(key=lambda p: bool({p[0].a, p[0].b} & {p[1].a, p[1].b}))
        for g0, g1 in pairs:
            if {images[g0], images[g1]} == {g0, g1} and all(
                list(images.values()).count(images[gi]) == 1 for gi in (g0, g1)
            ):
                return DoubleSectionWitness(v, (g0, g1))
    return None


# -- coverings ----------------------------------------------------------------


def reference_deck_transformation(cov: GraphCovering, t0: int, image: int):
    """Propagate t0 -> image by a dict-based search: the (vertex, edge)
    permutation pair, or None when inconsistent."""
    total, emap = cov.total, cov.emap
    out, inc = {}, {}
    adjacency = [[] for _ in range(total.nv)]
    for e in range(total.ne):
        out[(int(total.esrc[e]), int(emap[e]))] = e
        inc[(int(total.edst[e]), int(emap[e]))] = e
        adjacency[int(total.esrc[e])].append((e, 1))
        adjacency[int(total.edst[e])].append((e, -1))
    vperm = -np.ones(total.nv, dtype=np.int64)
    eperm = -np.ones(total.ne, dtype=np.int64)
    vperm[t0] = image
    stack = [t0]
    while stack:
        u = stack.pop()
        iu = int(vperm[u])
        for e, sign in adjacency[u]:
            e2 = (out if sign == 1 else inc).get((iu, int(emap[e])))
            if e2 is None:
                return None
            if eperm[e] == -1:
                eperm[e] = e2
            elif eperm[e] != e2:
                return None
            w = int(total.edst[e]) if sign == 1 else int(total.esrc[e])
            w2 = int(total.edst[e2]) if sign == 1 else int(total.esrc[e2])
            if vperm[w] == -1:
                vperm[w] = w2
                stack.append(w)
            elif vperm[w] != w2:
                return None
    if (vperm == -1).any() or (eperm == -1).any():
        return None
    if len(np.unique(vperm)) != total.nv or len(np.unique(eperm)) != total.ne:
        return None
    return vperm, eperm


def reference_deck_group(cov: GraphCovering, base_vi: int = 0) -> tuple[list, list]:
    """(elements, orbit): one search per fiber candidate from the least point."""
    fiber = cov.fiber(base_vi)
    t0 = int(fiber[0])
    found = [(int(c), reference_deck_transformation(cov, t0, int(c))) for c in fiber]
    return [d for _, d in found if d is not None], [c for c, d in found if d is not None]


def permutation_cover(perms: dict) -> GraphCovering:
    """Cover of the rose with one petal per key: edge (a, i) runs i -> perms[a][i]."""
    n = len(next(iter(perms.values())))
    edges = {(a, i): (i, perm[i]) for a, perm in perms.items() for i in range(n)}
    rose = Graph.from_edges(["w"], {a: ("w", "w") for a in perms})
    total = Graph.from_edges(range(n), edges)
    return GraphCovering.from_dicts(total, rose, {i: "w" for i in range(n)}, {e: e[0] for e in edges})


def dihedral(n: int) -> tuple[list, Callable]:
    """D_n as pairs (i, f) = r^i s^f, with its multiplication."""
    def mul(x, y):
        return ((x[0] + (-1) ** x[1] * y[0]) % n, x[1] ^ y[1])
    return [(i, f) for f in (0, 1) for i in range(n)], mul


def cayley_cover(elements: list, mul, gens: dict) -> GraphCovering:
    """Cayley graph of a group over the rose: petal a multiplies by gens[a] on the right."""
    index = {g: i for i, g in enumerate(elements)}
    return permutation_cover(
        {a: [index[mul(g, x)] for g in elements] for a, x in gens.items()})


def coset_cover(elements: list, mul, subgroup: set, gens: dict) -> GraphCovering:
    """The group acting on the left cosets of a subgroup, over the rose."""
    cosets = []
    for g in elements:
        coset = frozenset(mul(g, h) for h in subgroup)
        if coset not in cosets:
            cosets.append(coset)
    where = {g: i for i, c in enumerate(cosets) for g in c}
    return permutation_cover(
        {a: [where[mul(x, next(iter(c)))] for c in cosets] for a, x in gens.items()})


def random_graph_cover(rng: Random, g: Graph, degree: int) -> GraphCovering:
    """Degree-d cover of g: vertex (v, i); each edge lifts by a random permutation."""
    verts = [(v, i) for v in range(g.nv) for i in range(degree)]
    edges = {}
    for e in range(g.ne):
        perm = rng.sample(range(degree), degree)
        for i in range(degree):
            edges[(e, i)] = ((int(g.esrc[e]), i), (int(g.edst[e]), perm[i]))
    total = Graph.from_edges(verts, edges)
    return GraphCovering.from_dicts(
        total, g, {v: g.vertex_ids[v[0]] for v in verts}, {x: g.edge_ids[x[0]] for x in edges})


def reference_quotient_verify(tower, k: int) -> dict:
    """QuotientHom(tower, k).verify() from reference deck groups, composing
    and comparing whole (vertex, edge) permutation pairs."""
    upper = reference_deck_group(tower.composite_map(k), tower.base_point(1))[0]
    lower = reference_deck_group(tower.composite_map(k - 1), tower.base_point(1))[0]
    xu, xl = tower.base_point(k), tower.base_point(k - 1)
    vmap = tower.covering(k).vmap

    def image(g):
        found = [i for i, h in enumerate(lower) if h[0][xl] == vmap[g[0][xu]]]
        if not found:
            raise AssertionError("image is not a deck element below")
        return found[0]

    def compose(g, h):  # g after h
        return g[0][h[0]], g[1][h[1]]

    def same(g, h):
        return np.array_equal(g[0], h[0]) and np.array_equal(g[1], h[1])

    img = [image(g) for g in upper]
    for i, a in enumerate(upper):
        for j, b in enumerate(upper):
            if not same(lower[image(compose(a, b))], compose(lower[img[i]], lower[img[j]])):
                raise AssertionError("not a homomorphism")
    identity = (np.arange(len(lower[0][0])), np.arange(len(lower[0][1])))
    kernel = sum(same(lower[i], identity) for i in img)
    if set(img) != set(range(len(lower))):
        raise AssertionError("not surjective")
    if kernel != tower.covering(k).degree():
        raise AssertionError("kernel does not match the single covering's deck group")
    return {"upper_order": len(upper), "lower_order": len(lower), "kernel_order": kernel}


def random_permutation_cover(rng: Random, max_degree: int = 6) -> GraphCovering:
    """A connected cover of the two-petal rose by random permutations."""
    while True:
        n = rng.randint(1, max_degree)
        perms = {a: rng.sample(range(n), n) for a in "ab"}
        cov = permutation_cover(perms)
        if cov.total.is_connected:
            return cov


# -- graph maps that may fail to be coverings -----------------------------------


def reference_covering_problem(total: tuple, base: tuple, vertex_map: dict, edge_map: dict) -> Optional[str]:
    """The first local covering axiom a graph map breaks, or None, by dict
    lookups: edge images join vertex images; each vertex meets each base
    edge leaving (entering) its image once and no other, out-stars first;
    every base vertex is hit.  Graphs are (vertex ids, {edge id: (source,
    target)})."""
    (vertices, edges), (base_vertices, base_edges) = total, base
    if any(base_edges[edge_map[e]] != (vertex_map[s], vertex_map[t]) for e, (s, t) in edges.items()):
        return "edge images do not respect endpoints"
    stars = {}  # (vertex, end) -> (base edges met there, base edges at its image)
    for end, direction in ((0, "out"), (1, "in")):
        for u in vertices:
            met = [edge_map[e] for e, ends in edges.items() if ends[end] == u]
            if len(set(met)) < len(met):
                return f"two {direction}-edges at one vertex share a base edge"
            stars[(u, end)] = (set(met), {b for b, ends in base_edges.items() if ends[end] == vertex_map[u]})
    if any(met != at_image for met, at_image in stars.values()):
        return "some vertex star does not match its image star"
    if set(vertex_map.values()) != set(base_vertices):
        return "not surjective on vertices"
    return None


def reference_components(vertices, edges: dict) -> int:
    """Connected components of a graph read undirected, by closure."""
    left, count = set(vertices), 0
    while left:
        reach, count = {left.pop()}, count + 1
        while True:
            more = {x for s, t in edges.values() for x in (s, t) if s in reach or t in reach} - reach
            if not more:
                break
            reach |= more
        left -= reach
    return count


def random_graph_map(rng: Random) -> tuple:
    """(total, base, vertex_map, edge_map): a random covering of a rose, a
    cycle or a random graph (connected or not, of degree 1-3), then maybe
    broken once: an end moved, an image changed, an edge dropped or added,
    a whole fiber dropped or a base vertex added that nothing hits.  Graphs are (vertex ids, {edge id: ends})."""
    kind = rng.choice(["rose", "cycle", "random"])
    if kind == "rose":
        base = (["w"], {f"p{i}": ("w", "w") for i in range(rng.randint(1, 3))})
    elif kind == "cycle":
        n = rng.randint(1, 4)
        base = (list(range(n)), {f"c{i}": (i, (i + 1) % n) for i in range(n)})
    else:
        n = rng.randint(1, 4)
        base = (list(range(n)), {f"r{i}": (rng.randrange(n), rng.randrange(n)) for i in range(rng.randint(0, 5))})
    degree = rng.randint(1, 3)
    vertices = [(v, i) for v in base[0] for i in range(degree)]
    vertex_map = {(v, i): v for v, i in vertices}
    edges, edge_map = {}, {}
    for b, (s, t) in base[1].items():
        perm = list(range(degree)) if rng.random() < 0.3 else rng.sample(range(degree), degree)
        for i in range(degree):
            edges[(b, i)] = ((s, i), (t, perm[i]))
            edge_map[(b, i)] = b
    breakage = rng.choice(["none", "none", "end", "end in its fiber", "edge image", "vertex image",
                           "drop edge", "add edge", "drop fiber", "unhit base vertex"])
    if breakage.startswith("end") and edges:
        e, end = rng.choice(list(edges)), rng.randrange(2)
        ends = list(edges[e])
        ends[end] = (ends[end][0], rng.randrange(degree)) if breakage == "end in its fiber" else rng.choice(vertices)
        edges[e] = tuple(ends)
    elif breakage == "edge image" and edges:
        edge_map[rng.choice(list(edges))] = rng.choice(list(base[1]))
    elif breakage == "vertex image":
        vertex_map[rng.choice(vertices)] = rng.choice(base[0])
    elif breakage == "drop edge" and edges:
        e = rng.choice(list(edges))
        del edges[e], edge_map[e]
    elif breakage == "add edge" and base[1]:
        b = rng.choice(list(base[1]))
        s, t = base[1][b]
        edges[("extra", 0)] = ((s, rng.randrange(degree)), (t, rng.randrange(degree)))
        edge_map[("extra", 0)] = b
    elif breakage == "drop fiber" and len(base[0]) > 1:
        x = rng.choice(base[0])
        vertices = [v for v in vertices if v[0] != x]
        vertex_map = {v: vertex_map[v] for v in vertices}
        edges = {e: ends for e, ends in edges.items() if ends[0][0] != x and ends[1][0] != x}
        edge_map = {e: edge_map[e] for e in edges}
    elif breakage == "unhit base vertex":
        base = ([*base[0], "unhit"], base[1])
    return (vertices, edges), base, vertex_map, edge_map


# -- tower files -----------------------------------------------------------------

# labels whose repr order differs from list order and from str order
LABELS = ["b", "a10", "a9", "it's", 'say "x"', "ä", "Z", "-", "w w", "0", "01", "10", "2"]


def _labels(rng: Random, n: int, integers: bool) -> list:
    if integers:
        return rng.sample(range(-3, 3 * n + 3), n)
    pool = [f"{rng.choice(LABELS)}{i:03d}" for i in range(n)]  # distinct below 1000 cells
    rng.shuffle(pool)
    return pool


def random_tower_json(rng: Random, depth: int, integers: bool = False, max_degree: int = 3) -> dict:
    """A tower file (docs/formats.md) of random permutation covers, each
    level over the one below, with shuffled labels; ``integers`` makes every
    cell id an integer, which JSON object keys turn into strings."""
    base = rng.choice([
        {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"},
                                      {"id": "b", "src": "w", "dst": "w"}]},
        {"vertices": ["p", "q"], "edges": [{"id": "a", "src": "p", "dst": "q"},
                                           {"id": "b", "src": "q", "dst": "p"},
                                           {"id": "c", "src": "p", "dst": "p"}]},
    ])
    below, levels = base, []
    for _ in range(depth - 1):
        d = rng.randint(1, max_degree)
        cells = [(v, i) for v in below["vertices"] for i in range(d)]
        vid = dict(zip(cells, _labels(rng, len(cells), integers)))
        ends = {e["id"]: (e["src"], e["dst"]) for e in below["edges"]}
        lifts = [(e, i) for e in ends for i in range(d)]
        eid = dict(zip(lifts, _labels(rng, len(lifts), integers)))
        perms = {e: rng.sample(range(d), d) for e in ends}
        edges = [{"id": eid[(e, i)], "src": vid[(ends[e][0], i)], "dst": vid[(ends[e][1], perms[e][i])]}
                 for e, i in lifts]
        rng.shuffle(edges)
        total = {"vertices": rng.sample(list(vid.values()), len(vid)), "edges": edges}
        levels.append({"total": total,
                       "vertex_map": {str(vid[c]): c[0] for c in cells},
                       "edge_map": {str(eid[(e, i)]): e for e, i in lifts}})
        below = total
    return json.loads(json.dumps({"base": base, "levels": levels}))


def cayley_tower_json(orders: list[tuple[int, int]]) -> dict:
    """Tower of Cayley graphs of Z/m x Z/n over the two-petal rose, one level
    per (m, n); each order must divide the one after it."""
    rose = {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"},
                                         {"id": "b", "src": "w", "dst": "w"}]}
    levels, below = [], None
    for m, n in orders:
        cells = [(i, j) for i in range(m) for j in range(n)]
        edges = [{"id": f"{g}{i}.{j}", "src": f"{i}.{j}", "dst": f"{(i + (g == 'a')) % m}.{(j + (g == 'b')) % n}"}
                 for i, j in cells for g in "ab"]
        down = (lambda i, j: "w") if below is None else (lambda i, j: f"{i % below[0]}.{j % below[1]}")
        levels.append({"total": {"vertices": [f"{i}.{j}" for i, j in cells], "edges": edges},
                       "vertex_map": {f"{i}.{j}": down(i, j) for i, j in cells},
                       "edge_map": {f"{g}{i}.{j}": g if below is None else g + down(i, j)
                                    for i, j in cells for g in "ab"}})
        below = (m, n)
    return {"base": rose, "levels": levels}


def reference_tower_levels(data: dict, base_dir: Optional[Path] = None) -> list:
    """The base graph and, per level above it, its (total graph, vertex map,
    edge map), built eagerly: each graph by ``Graph.from_edges``, each map as
    index arrays by plain dict lookups, an integer id found under its string
    key; a KeyError names a missing or unknown id, and no covering axiom is
    checked."""
    def read(node):
        if isinstance(node, str):
            path = Path(node)
            return json.loads((path if path.is_absolute() or base_dir is None else base_dir / path).read_text())
        return node

    def graph(g):
        return Graph.from_edges(g["vertices"], {e["id"]: (e["src"], e["dst"]) for e in g["edges"]})

    def keyed(mapping, key):
        return mapping[key] if key in mapping else mapping[str(key)]

    below = graph(read(data["base"]))
    levels = [below]
    for node in map(read, data["levels"]):
        total = graph(read(node["total"]))
        vmap = np.array([below.vindex[keyed(node["vertex_map"], v)] for v in total.vertex_ids], dtype=np.int64)
        emap = np.array([below.eindex[keyed(node["edge_map"], e)] for e in total.edge_ids], dtype=np.int64)
        levels.append((total, vmap, emap))
        below = total
    return levels


def covering_system(tower) -> InverseSystem:
    """A covering tower read as a system of plain graphs (in-edges on side
    A, out-edges on side B): level k is the tower's level k + 1, and bond k
    sends each edge of level k + 2 onto its image edge."""
    def bond(k: int) -> CellularMap:
        c = tower.covering(k + 2)
        return CellularMap.edgewise(c.total, c.base, c.vmap, c.emap)
    return InverseSystem(lambda k: tower.graph(k + 1), bond, max_depth=tower.depth - 1)
