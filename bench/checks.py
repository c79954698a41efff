"""Independent answer checkers for the benchmark's questions.

Nothing here imports ``laminate``.  Each checker re-derives the expected
answer from the generator's own description of the input (plain dicts,
strings and group tables), by a different route than the program takes:

* flatten   -- half-edge germ maps composed by the chain rule,
               D(g o f) = Dg o Df, instead of composing edge paths;
* local     -- brute-force transitive closure of the gluing relation;
* subshift  -- language counts from closed forms (2^n, Fibonacci numbers,
               n + 1) or from the factors of long substitution iterates,
               clopen sets as plain window sets, separation by direct
               window comparison;
* coverings -- deck orders as |N(H)/H| from group tables, cyclic towers by
               modular arithmetic.

A checker raises :class:`CheckFailed` when an answer is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class CheckFailed(Exception):
    """The program's answer disagrees with the independent computation."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# -- flatten: germ maps ------------------------------------------------------

def half_edge_sides(graph: dict) -> dict:
    """Half-edge "e+"/"e-" -> (vertex, "A"|"B") of a branched graph's JSON."""
    return {h: (v, label) for v, ab in graph["sides"].items()
            for label in ("A", "B") for h in ab.get(label, [])}


def germ_map(bond: dict) -> tuple[dict, dict]:
    """(vertex map, half-edge germ map) of a cellular map's JSON form."""
    germs = {}
    for e, path in bond["edge_map"].items():
        first, last = path[0], path[-1]
        germs[e + "+"] = first[1:] + "-" if first.startswith("-") else first + "+"
        germs[e + "-"] = last[1:] + "+" if last.startswith("-") else last + "-"
    return dict(bond["vertex_map"]), germs


def chain(outer: tuple[dict, dict], inner: tuple[dict, dict]) -> tuple[dict, dict]:
    """Chain rule: the germ map of ``outer`` after ``inner``."""
    return ({v: outer[0][w] for v, w in inner[0].items()},
            {h: outer[1][g] for h, g in inner[1].items()})


def germ_flattens(sides: dict, germs: dict) -> bool:
    """Every side of every vertex sends all its half-edges one way."""
    images = {}
    for h, place in sides.items():
        images.setdefault(place, set()).add(germs[h])
    return all(len(s) == 1 for s in images.values())


class GermTower:
    """Germ maps of a tower's composites, built by the chain rule."""

    def __init__(self, system: dict):
        if "stationary" in system:
            graph = system["stationary"]["graph"]
            self.stationary = True
            self.depth = None
            self._sides = half_edge_sides(graph)
            self.bond_germs = [germ_map(system["stationary"]["map"])]
        else:
            self.stationary = False
            self._levels = [half_edge_sides(g) for g in system["levels"]]
            self.depth = len(self._levels) - 1
            self.bond_germs = [germ_map(b) for b in system["bonds"]]

    def sides(self, k: int) -> dict:
        return self._sides if self.stationary else self._levels[k]

    def bond(self, k: int) -> tuple[dict, dict]:
        return self.bond_germs[0] if self.stationary else self.bond_germs[k]

    def composite(self, k: int, k0: int) -> tuple[dict, dict]:
        out = self.bond(k - 1)
        for j in range(k - 2, k0 - 1, -1):
            out = chain(self.bond(j), out)
        return out

    def flattens(self, k: int, k0: int) -> bool:
        return germ_flattens(self.sides(k), self.composite(k, k0)[1])

    def chain_reaches(self, window: int) -> bool:
        """Some telescoping s = c0 < c1 < ... < cr = window flattens."""
        if self.stationary:
            # flattening survives post-composition, so f^n flattening for
            # some n <= window is the same as f^window flattening
            return self.flattens(window, 0)
        reach = {window: True}
        for j in range(window - 1, -1, -1):
            reach[j] = any(reach[k] and self.flattens(k, j)
                           for k in range(j + 1, window + 1))
        return any(reach[j] for j in range(window))


def check_flatten_verdict(system: dict, window: int, code: int, report: dict):
    """Exit code plus report of ``check-flatten`` against the germ maps."""
    tower = GermTower(system)
    window = window if tower.depth is None else min(window, tower.depth)
    data = report["data"]
    if code == 0:
        expect(data.get("verdict") == "flattening", "exit 0 without a flattening verdict")
        idx = data["indices"]
        expect(len(idx) >= 2 and idx[0] >= 0 and idx[-1] == window,
               f"telescoping {idx} does not reach window {window}")
        for lo, hi in zip(idx, idx[1:]):
            expect(hi > lo, f"telescoping {idx} is not increasing")
            expect(tower.flattens(hi, lo), f"composite {hi}->{lo} does not flatten")
    elif code == 2:
        expect(data.get("verdict") == "not-lamination", "exit 2 without a certificate")
        expect(tower.stationary, "non-lamination certified for a non-stationary tower")
        check_double_section(tower, data["witness"])
    elif code == 3:
        expect(data.get("verdict") == "inconclusive", "exit 3 without an inconclusive verdict")
        expect(data.get("window") == window, "inconclusive verdict names another window")
        expect(not tower.chain_reaches(window),
               f"a flattening telescoping reaches window {window}")
    else:
        raise CheckFailed(f"check-flatten exited {code}")


def check_double_section(tower: GermTower, witness: dict):
    """An invariant pair of germs at a fixed vertex, and no flattening power.

    Germ maps of f^n are eventually periodic with preperiod at most the
    number of half-edges N, and flattening survives post-composition, so
    some telescoping flattens iff f^N flattens.
    """
    sides = tower.sides(0)
    vmap, germs = tower.bond(0)
    v = witness["vertex"]
    expect(vmap.get(v) == v, f"witness vertex {v!r} is not fixed")
    pair = []
    for g in witness["germs"]:
        a, b = g["a"], g["b"]
        expect(a is None or sides.get(a) == (v, "A"), f"{a!r} is not on side A at {v!r}")
        expect(b is None or sides.get(b) == (v, "B"), f"{b!r} is not on side B at {v!r}")
        expect(a is not None or b is not None, "empty germ")
        pair.append((a, b))
    expect(len(pair) == 2 and pair[0] != pair[1], "witness needs two distinct germs")

    def image(germ):
        slots = {"A": None, "B": None}
        for h in germ:
            if h is not None:
                w, label = sides[germs[h]]
                expect(w == v, "germ image leaves the fixed vertex")
                slots[label] = germs[h]
        return (slots["A"], slots["B"])

    expect({image(pair[0]), image(pair[1])} == set(pair), "germ pair is not invariant")
    n = len(sides)
    expect(not tower.flattens(n, 0), f"f^{n} flattens, so some telescoping does")


# -- local models --------------------------------------------------------------

def brute_glue_classes(tree: dict, point: list[Fraction]) -> set[frozenset]:
    """Classes of the gluing relation by repeated closure over a matrix."""
    verts = list(tree["vertices"])
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    rel = [[i == j for j in range(n)] for i in range(n)]
    for s, t in tree["edges"]:
        normals = tree.get("sectors", {}).get(s, [])
        inside = all(sum(Fraction(c) * x for c, x in zip(normal, point)) > 0
                     for normal in normals)
        if not inside:
            rel[index[s]][index[t]] = rel[index[t]][index[s]] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return {frozenset(verts[j] for j in range(n) if rel[i][j]) for i in range(n)}


def check_glue_classes(tree: dict, point: list[Fraction], report: dict):
    got = {frozenset(block) for block in report["data"]["classes"]}
    expect(got == brute_glue_classes(tree, point), "glue classes differ from the closure")


# -- subshift languages -----------------------------------------------------

class Language:
    """Legal words of one of the four benchmark shifts, by its own route."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.alphabet = list(spec["alphabet"])
        self.rules = spec.get("rules")
        self._words: dict[int, frozenset] = {}
        self._iterates = None

    def count(self, n: int) -> int:
        """Closed forms where one exists; factor counts otherwise."""
        if self.kind == "full":
            return len(self.alphabet) ** n
        if self.kind == "golden":
            a, b = 1, 2  # F(2), F(3): words of length 0 and 1
            for _ in range(n):
                a, b = b, a + b
            return a
        if self.kind == "fibonacci":
            return n + 1
        return len(self.words(n))

    def words(self, n: int) -> frozenset:
        if n not in self._words:
            self._words[n] = frozenset(self._enumerate(n))
        return self._words[n]

    def _enumerate(self, n: int):
        if self.kind == "full":
            return ("".join(t) for t in product(self.alphabet, repeat=n))
        if self.kind == "golden":
            zero, one = self.alphabet
            words = [""]
            for _ in range(n):
                words = [w + c for w in words for c in (zero, one)
                         if not (c == one and w.endswith(one))]
            return words
        if self._iterates is None:
            # both substitutions are primitive, so their fixed points are
            # linearly recurrent: every factor of length up to 64 (the
            # longest asked) occurs in a 2^16-letter iterate
            self._iterates = []
            for a in self.alphabet:
                w = a
                while len(w) < 1 << 16:
                    w = "".join(self.rules[c] for c in w)
                self._iterates.append(w)
        return {w[i:i + n] for w in self._iterates for i in range(len(w) - n + 1)}


def check_approximant_counts(lang: Language, k: int, report: dict):
    rows = report["data"]["counts"]
    expect([r["k"] for r in rows] == list(range(k + 1)), "approximant levels missing")
    for r in rows:
        j = r["k"]
        expect(r["vertices"] == lang.count(2 * j),
               f"k={j}: {r['vertices']} vertices, expected {lang.count(2 * j)}")
        expect(r["edges"] == lang.count(2 * j + 1),
               f"k={j}: {r['edges']} edges, expected {lang.count(2 * j + 1)}")


def check_bond(lang: Language, k: int, bond):
    """Drop-one-letter bond k+1 -> k: right cells, onto and flattening."""
    upper_v, upper_e = lang.words(2 * k + 2), lang.words(2 * k + 3)
    lower_v, lower_e = lang.words(2 * k), lang.words(2 * k + 1)
    expect(set(bond.domain.vertices) == upper_v, "upper vertices are not the legal words")
    expect(set(bond.domain.edges) == upper_e, "upper edges are not the legal words")
    expect(set(bond.codomain.vertices) == lower_v, "lower vertices are not the legal words")
    expect(set(bond.codomain.edges) == lower_e, "lower edges are not the legal words")
    expect(all(bond.vertex_map[w] == w[1:-1] for w in upper_v), "vertex map drops no letters")
    expect(all(bond.edge_map[w] == ((w[1:-1], 1),) for w in upper_e), "edge map drops no letters")
    expect(set(bond.vertex_map.values()) == lower_v, "bond is not onto on vertices")
    expect({p[0][0] for p in bond.edge_map.values()} == lower_e, "bond is not onto on edges")
    # flattening: edges entering v (side A) all end in the same lower edge,
    # edges leaving v (side B) all start in the same lower edge
    incoming = {v: set() for v in upper_v}
    outgoing = {v: set() for v in upper_v}
    for w in upper_e:
        incoming[w[1:]].add((w, "-"))
        outgoing[w[:-1]].add((w, "+"))
    for v, (side_a, side_b) in bond.domain.sides.items():
        expect(set(side_a) == incoming[v], f"side A at {v!r} is not the incoming edges")
        expect(set(side_b) == outgoing[v], f"side B at {v!r} is not the outgoing edges")
        expect(len({bond.edge_map[e][-1][0] for e, _ in side_a}) <= 1, f"side A at {v!r} splits")
        expect(len({bond.edge_map[e][0][0] for e, _ in side_b}) <= 1, f"side B at {v!r} splits")


def expand(lang: Language, radius: int, windows, target: int) -> frozenset:
    """A window set at ``radius`` re-expressed at the larger ``target``."""
    pad, inner = target - radius, 2 * radius + 1
    windows = set(windows)
    return frozenset(u for u in lang.words(2 * target + 1) if u[pad:pad + inner] in windows)


def shifted(lang: Language, radius: int, windows, steps: int) -> frozenset:
    """Windows at radius + |steps| of the set moved ``steps`` tiles."""
    n = abs(steps)
    lo, width = (0 if steps > 0 else 2 * n), 2 * radius + 1
    windows = set(windows)
    return frozenset(u for u in lang.words(2 * (radius + n) + 1) if u[lo:lo + width] in windows)


def check_clopen(lang: Language, radius: int, windows, result):
    """A clopen answer against an expected (radius, window set)."""
    r = result.radius
    expect(r >= radius, "clopen answer lost radius")
    expect(set(result.windows) == expand(lang, radius, windows, r), "clopen windows differ")


def check_boolean(lang: Language, a: tuple, b: tuple, results: dict):
    """union / intersect / complement of (radius, windows) pairs.

    Each answer must equal the plain set operation on window sets at the
    common radius; the complement must also partition the whole
    transversal together with its set.
    """
    r = max(a[0], b[0])
    wa, wb = expand(lang, a[0], a[1], r), expand(lang, b[0], b[1], r)
    check_clopen(lang, r, wa | wb, results["union"])
    check_clopen(lang, r, wa & wb, results["intersect"])
    check_clopen(lang, a[0], lang.words(2 * a[0] + 1) - set(a[1]), results["complement"])
    c = results["complement"]
    inside = expand(lang, a[0], a[1], c.radius)
    expect(not set(c.windows) & inside, "complement meets its set")
    expect(set(c.windows) | inside == lang.words(2 * c.radius + 1),
           "complement and set miss part of the transversal")


def check_separation(x: tuple[str, int], y: tuple[str, int], max_k: int, report: dict):
    expected = None
    for k in range(max_k + 1):
        if x[0][x[1] - k:x[1] + k + 1] != y[0][y[1] - k:y[1] + k + 1]:
            expected = k
            break
    expect(report["data"]["separation"] == expected,
           f"separation {report['data']['separation']}, expected {expected}")


# -- coverings ---------------------------------------------------------------

class Group:
    """A finite group as a multiplication table over element indices."""

    def __init__(self, elements: list, mul):
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.mul = mul
        first = self.elements[0]
        self.one = next(i for i, g in enumerate(self.elements) if mul(g, first) == first)

    def __len__(self):
        return len(self.elements)

    def times(self, i: int, j: int) -> int:
        return self.index[self.mul(self.elements[i], self.elements[j])]

    def inverse(self, i: int) -> int:
        return next(j for j in range(len(self)) if self.times(i, j) == self.one)

    def normalizer(self, sub: set[int]) -> set[int]:
        return {g for g in range(len(self))
                if {self.times(self.times(g, h), self.inverse(g)) for h in sub} == sub}


def check_deck_group(degree: int, deck_order: int, report: dict, orbit=None):
    data = report["data"]
    expect(data["degree"] == degree, f"degree {data['degree']}, expected {degree}")
    expect(data["deck_order"] == deck_order, f"deck order {data['deck_order']}, expected {deck_order}")
    expect(data["regular"] == (deck_order == degree), "regularity flag is wrong")
    expect(data["free_transitive"] == (deck_order == degree), "free/transitive flag is wrong")
    if orbit is not None:
        expect(sorted(data["orbit"]) == sorted(orbit), "deck orbit of the base point is wrong")


def check_cyclic_rep(sizes: list[int], exponent: int, depth: int, report: dict):
    """Base-point orbit of generator^exponent: exponent mod n_k per level."""
    expected = [exponent % sizes[k] for k in range(depth)]
    expect(report["data"]["orbit"] == expected, "representation orbit is wrong")


def check_cyclic_metric(sizes: list[int], x: int, y: int, depth: int, report: dict):
    total = sum((Fraction(1, 2 ** k) for k in range(2, depth + 1)
                 if (x - y) % sizes[k - 1]), Fraction(0))
    text = str(total.numerator) if total.denominator == 1 else f"{total.numerator}/{total.denominator}"
    expect(report["data"]["metric"] == text, f"metric {report['data']['metric']}, expected {text}")
    expect(report["data"]["error_bound"] == f"1/{2 ** depth}", "metric tail bound is wrong")


def check_monodromy(group: Group, gens: dict, perms: dict):
    """Lifting generator x from g ends at g*x (right multiplication)."""
    expect(set(perms) == set(gens), "monodromy misses a base edge")
    for edge, x in gens.items():
        expected = [group.times(i, x) for i in range(len(group))]
        expect([int(p) for p in perms[edge]] == expected, f"monodromy of {edge!r} is wrong")


def check_quotient(upper: int, lower: int, result: dict):
    expect(result == {"upper_order": upper, "lower_order": lower,
                      "kernel_order": upper // lower},
           f"quotient orders {result}, expected {upper}/{lower}")
