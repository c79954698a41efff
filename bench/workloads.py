"""Seeded question streams for the three benchmark workloads.

``build(workload, seed, workdir)`` writes every input file of one run into
``workdir`` (schemas of docs/formats.md) and returns the round of
questions.  A question is either a ``laminate`` command line (asked through
``laminate.cli.main`` with ``--report``) or a call of a public library
function where the command line has no subcommand for the work.  Each
question carries its checker from ``checks``, bound to the generator's own
description of the input.

The seed picks labels, letter arrangements, cylinders, points and group
element orders.  The structure of every question, and so the work it
costs, is fixed per slot: matrices of the rose maps, windows, collar
radii, tower depths and group orders do not depend on the seed.  That
keeps the size distribution of a round, and with it the percentiles,
the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import checks

WORKLOADS = ("flatten", "subshift", "coverings")


@dataclass
class Question:
    kind: str
    check: Callable                       # cli: check(code, report); library: check(answer)
    argv: Optional[list] = None           # laminate command line, without --report
    call: Optional[Callable] = None       # library question
    label: str = ""                       # names a library question in traces

    def describe(self) -> str:
        if self.argv is None:
            return self.label
        return "laminate " + " ".join(Path(a).name if "/" in a else a for a in self.argv)


def build(workload: str, seed: int, workdir: Path) -> list[Question]:
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    questions = {"flatten": flatten, "subshift": subshift, "coverings": coverings}[workload](
        rng, Files(workdir))
    rng.shuffle(questions)
    return questions


class Files:
    """Numbered input files under one run's work directory."""

    def __init__(self, root: Path):
        self.root = root
        self.n = 0

    def write(self, stem: str, data) -> str:
        self.n += 1
        path = self.root / f"{self.n:04d}-{stem}.json"
        path.write_text(json.dumps(data))
        return str(path)


def fresh_names(rng: random.Random, n: int, pool: str = "abcdefghjkmnpqrstuvwxyz") -> list[str]:
    names: set[str] = set()
    while len(names) < n:
        names.add("".join(rng.choice(pool) for _ in range(rng.randint(1, 3))))
    return rng.sample(sorted(names), n)


# -- flatten -------------------------------------------------------------------

def rose_json(w: str, petals: list[str]) -> dict:
    return {"vertices": [w],
            "edges": [{"id": e, "src": w, "dst": w} for e in petals],
            "sides": {w: {"A": [e + "+" for e in petals], "B": [e + "-" for e in petals]}}}


def theta_json(u: str, v: str, x: str, y: str, z: str) -> dict:
    """Branched circle: x, y run u -> v and merge at v; z runs back."""
    return {"vertices": [u, v],
            "edges": [{"id": x, "src": u, "dst": v}, {"id": y, "src": u, "dst": v},
                      {"id": z, "src": v, "dst": u}],
            "sides": {u: {"A": [z + "-"], "B": [x + "+", y + "+"]},
                      v: {"A": [x + "-", y + "-"], "B": [z + "+"]}}}


# Never-flattening templates: letter -> (first letter, remaining letters).
# First letters form a bijection, so no power of the map flattens, and the
# whole window search runs; its cost is fixed by the incidence matrix.
ROSE_TEMPLATES = [
    {"a": ("b", "a"), "b": ("a", "")},                       # Fibonacci, lambda 1.618
    {"a": ("b", ""), "b": ("c", ""), "c": ("a", "b")},         # lambda 1.325
    {"a": ("b", "a"), "b": ("a", "b")},                      # lambda 2
    {"a": ("b", ""), "b": ("c", ""), "c": ("d", ""), "d": ("a", "d")},   # lambda 1.380
    {"a": ("b", "a"), "b": ("c", ""), "c": ("a", "")},         # lambda 1.466
    {"a": ("b", "aa"), "b": ("a", "b")},                     # lambda 2.618
]
# theta: x, y -> (first of x/y, remaining x/y letters); z -> x/y letters
THETA_TEMPLATES = [
    {"x": ("y", "x"), "y": ("x", ""), "z": "y"},
    {"x": ("y", ""), "y": ("x", ""), "z": "xy"},
]


def rose_words(rng, template: dict, labels: dict) -> dict:
    out = {}
    for e, (first, rest) in template.items():
        rest = list(rest)
        rng.shuffle(rest)
        out[labels[e]] = [labels[first]] + [labels[c] for c in rest]
    return out


def theta_words(rng, template: dict, lab: dict) -> dict:
    out = {}
    for e in "xy":
        first, rest = template[e]
        rest = list(rest)
        rng.shuffle(rest)
        path = [lab[first]]
        for c in rest:
            path += [lab["z"], lab[c]]
        out[lab[e]] = path
    ts = list(template["z"])
    rng.shuffle(ts)
    path = [lab["z"]]
    for c in ts:
        path += [lab[c], lab["z"]]
    out[lab["z"]] = path
    return out


def stationary_system(graph: dict, words: dict, vertex_map: dict) -> dict:
    return {"stationary": {"graph": graph,
                           "map": {"vertex_map": vertex_map, "edge_map": words}}}


def flatten_question(files: Files, stem: str, system: dict, window: int) -> Question:
    path = files.write(stem, system)
    return Question(
        stem, lambda code, report: checks.check_flatten_verdict(system, window, code, report),
        argv=["check-flatten", "--system", path, "--window", str(window)])


# Never-flattening searches, (template index, window).  Times are least
# times on a 2-CPU Xeon sandbox.  A tail of five, 1.07 s down to 0.1 s,
# starts at the rose-Fibonacci window-24 search and falls by the Fibonacci
# growth of its composite paths; a band of eleven at 30-75 ms holds the
# 90th percentile of a round; four more run 5-15 ms.
HEAVY_SLOTS = [
    (0, 24), (0, 22), (3, 26), (0, 20), (1, 25),
    (1, 23), (0, 18), (1, 20), (3, 21), (4, 19), (2, 13), (6, 11), (7, 9), (3, 20),
    (3, 19), (3, 18), (1, 15), (2, 10), (0, 12), (5, 6),
]


def flattening_rose(rng, petals: list[str], height: int) -> dict:
    """Words whose first- and last-letter maps collapse after ``height`` steps."""
    def collapse():
        order = rng.sample(petals, len(petals))
        m = {order[0]: order[0]}
        for i in range(1, len(order)):
            m[order[i]] = order[i - 1] if i <= height else rng.choice(order[:height])
        return m
    while True:
        first, last = collapse(), collapse()
        words = {e: [first[e]] + [rng.choice(petals) for _ in range(rng.randint(0, 1))] + [last[e]]
                 for e in petals}
        if {d for w in words.values() for d in w} == set(petals):
            return words


def tower_rose_bond(rng, petals: list[str], flattening: bool) -> dict:
    """Onto rose words that flatten (shared first and last letters) or that
    never flatten under composition (first letters a bijection)."""
    if flattening:
        first, last = rng.choice(petals), rng.choice(petals)
        middle = rng.sample(petals, len(petals))
        return {e: [first, middle[i], last] for i, e in enumerate(petals)}
    firsts = rng.sample(petals, len(petals))
    return {e: [firsts[i]] + [rng.choice(petals) for _ in range(rng.randint(0, 2))]
            for i, e in enumerate(petals)}


def cycle_track(names: list[str], edges: list[str]) -> dict:
    n = len(names)
    return {"vertices": names,
            "edges": [{"id": edges[i], "src": names[i], "dst": names[(i + 1) % n]} for i in range(n)],
            "sides": {names[i]: {"A": [edges[(i - 1) % n] + "-"], "B": [edges[i] + "+"]}
                      for i in range(n)}}


def flatten(rng: random.Random, files: Files) -> list[Question]:
    qs = []
    templates = ROSE_TEMPLATES + THETA_TEMPLATES
    for index, window in HEAVY_SLOTS:
        t = templates[index]
        if "z" in t:
            u, v = fresh_names(rng, 2, "UVWXYZ")
            x, y, z = fresh_names(rng, 3)
            lab = {"x": x, "y": y, "z": z}
            system = stationary_system(theta_json(u, v, x, y, z), theta_words(rng, t, lab),
                                       {u: u, v: v})
        else:
            w = fresh_names(rng, 1, "UVWXYZ")[0]
            names = fresh_names(rng, len(t))
            lab = dict(zip(sorted(t), names))
            system = stationary_system(rose_json(w, names), rose_words(rng, t, lab), {w: w})
        qs.append(flatten_question(files, "search", system, window))
    # flattening stationary roses: cheap chains, height 1-3
    for i in range(30):
        n = 2 + i % 3
        height = 1 + i % min(3, n - 1)
        names = fresh_names(rng, n)
        w = fresh_names(rng, 1, "UVWXYZ")[0]
        system = stationary_system(rose_json(w, names), flattening_rose(rng, names, height), {w: w})
        qs.append(flatten_question(files, "flat-rose", system, 8 + (i * 5) % 13))
    # non-stationary towers: roses whose bonds all flatten or whose bonds
    # never do, and cycle covers.  Towers mixing the two kinds are left
    # out: there the greedy window search can miss a telescoping that
    # exists (see CHANGES.md).
    for i in range(18):
        depth = 4 + i % 5
        if i % 3 < 2:
            names = fresh_names(rng, 2 + i % 2)
            w = fresh_names(rng, 1, "UVWXYZ")[0]
            levels = [rose_json(w, names)] * (depth + 1)
            bonds = [{"vertex_map": {w: w}, "edge_map": tower_rose_bond(rng, names, i % 3 == 0)}
                     for _ in range(depth)]
        else:
            sizes = [1]
            for _ in range(depth):
                sizes.append(sizes[-1] * 2 if sizes[-1] < 8 and rng.random() < 0.6 else sizes[-1])
            tracks = [(fresh_names(rng, n, "UVWXYZ") if n > 1 else ["V"],
                       [f"c{j}" for j in range(n)]) for n in sizes]
            levels = [cycle_track(vs, es) for vs, es in tracks]
            bonds = []
            for k in range(depth):
                (lv, le), (uv, ue) = tracks[k], tracks[k + 1]
                m = len(lv)
                bonds.append({"vertex_map": {uv[j]: lv[j % m] for j in range(len(uv))},
                              "edge_map": {ue[j]: [le[j % m]] for j in range(len(ue))}})
        qs.append(flatten_question(files, "tower", {"levels": levels, "bonds": bonds}, depth))
    # the two headline systems
    fig8 = stationary_system(rose_json("w", ["a", "b"]), {"a": ["a", "a"], "b": ["b", "b"]}, {"w": "w"})
    solenoid = stationary_system(
        {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}],
         "sides": {"v": {"A": ["e+"], "B": ["e-"]}}}, {"e": ["e", "e"]}, {"v": "v"})
    qs.append(flatten_question(files, "fig8", fig8, 8))
    qs.append(flatten_question(files, "solenoid", solenoid, 8))
    # local models on random branch trees
    for i in range(40):
        qs.append(local_model_question(rng, files, dim=1 + i % 3, size=2 + i % 5))
    return qs


def local_model_question(rng, files: Files, dim: int, size: int) -> Question:
    vertices = [f"v{i}" for i in range(size)]
    edges = []
    for i in range(1, size):
        pair = [vertices[i], vertices[rng.randrange(i)]]
        edges.append(pair if rng.random() < 0.5 else pair[::-1])
    sectors = {}
    for v in vertices:
        normals = []
        for _ in range(rng.randint(0, 3)):
            normal = [str(rng.randint(-2, 2)) for _ in range(dim)]
            if any(c != "0" for c in normal):
                normals.append(normal)
        sectors[v] = normals
    tree = {"dimension": dim, "vertices": vertices, "edges": edges, "sectors": sectors}
    while True:
        point = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(dim)]
        if sum(c * c for c in point) <= 1:
            break
    path = files.write("tree", tree)
    text = ",".join(str(c) for c in point)
    return Question("local-model", lambda code, report: checks.check_glue_classes(tree, point, report),
                    argv=["local-model", "classes", "--tree", path, f"--point={text}"])


# -- subshift --------------------------------------------------------------------

def shift_specs(rng: random.Random) -> dict:
    """The four shifts, each over freshly drawn single-character symbols."""
    pool = rng.sample("abcdefghijklmnopqrstuvwxyz0123456789", 8)
    full, golden, fib, tm = pool[0:2], pool[2:4], pool[4:6], pool[6:8]
    return {
        "full": {"kind": "full", "alphabet": full, "file": {"alphabet": full}},
        "golden": {"kind": "golden", "alphabet": golden,
                   "file": {"alphabet": golden, "forbidden": [golden[1] * 2]}},
        "fibonacci": {"kind": "fibonacci", "alphabet": fib, "rules": {fib[0]: fib[0] + fib[1], fib[1]: fib[0]},
                      "file": {"alphabet": fib, "rules": {fib[0]: fib[0] + fib[1], fib[1]: fib[0]}}},
        "thue-morse": {"kind": "thue-morse", "alphabet": tm, "rules": {tm[0]: tm[0] + tm[1], tm[1]: tm[1] + tm[0]},
                       "file": {"alphabet": tm, "rules": {tm[0]: tm[0] + tm[1], tm[1]: tm[1] + tm[0]}}},
    }


# Collar radii per shift, graded so that word counts grow smoothly.  On a
# 2-CPU Xeon sandbox the full-shift bond at k = 4, golden-mean approximants
# to k = 8 and full-shift separation at max-k 7 that parts late all take
# 25-45 ms; asked six, four and four times per round they make a band of
# mixed kinds that holds the 90th percentile.
APPROXIMANT_K = {"full": [2, 3, 4, 5, 6], "golden": [3, 5, 7, 8, 8, 8, 8, 9],
                 "fibonacci": [4, 8, 12, 16, 20], "thue-morse": [3, 6, 9, 12, 15]}
BOND_K = {"full": [3, 4, 4, 4, 4, 4, 4, 5, 6], "golden": [4, 6, 8],
          "fibonacci": [6, 12, 18, 24, 30], "thue-morse": [4, 8, 12, 16, 20]}
CLOPEN_RADII = {"full": [1, 2, 3, 4], "golden": [1, 3, 4, 5],
                "fibonacci": [2, 5, 8, 11], "thue-morse": [2, 4, 6, 8]}
# separation questions per max-k; their cost is the language up to length
# 2 max-k + 1
SEPARATION_MAX_K = {"full": {3: 4, 5: 4, 7: 6}, "golden": {4: 4, 6: 4, 8: 4},
                    "fibonacci": {5: 4, 10: 4, 15: 4}, "thue-morse": {4: 4, 8: 4, 12: 4}}


def random_clopen(rng, lang: checks.Language, radius: int) -> tuple[dict, tuple]:
    """Three random cylinders of widths 2r+1, r+1 and 1 inside radius r."""
    cylinders = []
    for width in (2 * radius + 1, radius + 1, 1):
        word = rng.choice(sorted(lang.words(width)))
        mark = rng.randint(max(0, width - 1 - radius), min(width - 1, radius))
        cylinders.append((word, mark))
    windows = set()
    for word, mark in cylinders:
        left = radius - mark
        windows |= {u for u in lang.words(2 * radius + 1) if u[left:left + len(word)] == word}
    return {"radius": radius, "cylinders": [f"{w}@{m}" for w, m in cylinders]}, (radius, frozenset(windows))


def subshift(rng: random.Random, files: Files) -> list[Question]:
    from laminate import approximants, formats, transversal

    qs = []
    for name, spec in shift_specs(rng).items():
        lang = checks.Language(spec)
        path = files.write(name, spec["file"])
        for k in APPROXIMANT_K[name]:
            qs.append(Question(
                "approximants",
                lambda code, report, lang=lang, k=k: checks.check_approximant_counts(lang, k, report),
                argv=["approximants", "--input", path, "--k", str(k)]))
        for k in BOND_K[name]:
            qs.append(Question(
                "bond", lambda bond, lang=lang, k=k: checks.check_bond(lang, k, bond),
                call=lambda path=path, k=k: approximants.approximant_system(formats.load_oracle(path)).bond(k),
                label=f"approximant_system({name}).bond({k})"))
        for max_k, count in SEPARATION_MAX_K[name].items():
            for i in range(count):
                # the language is built up to the radius where x and y
                # part, so that radius is fixed per slot, not drawn
                agree = [max_k, max_k - 1, max_k // 2, -1][i % 4]
                x, y = separation_pair(rng, lang, max_k, agree)
                qs.append(Question(
                    "separation",
                    lambda code, report, x=x, y=y, m=max_k: checks.check_separation(x, y, m, report),
                    argv=["separation", "--input", path, f"--x={x[0]}@{x[1]}",
                          f"--y={y[0]}@{y[1]}", "--max-k", str(max_k)]))
        for radius in CLOPEN_RADII[name]:
            for _ in range(3):
                qs.append(clopen_question(rng, files, lang, path, radius, formats, transversal))
            qs.append(shift_question(rng, files, lang, path, radius, formats, transversal))
            qs.append(holonomy_question(rng, files, lang, path, radius, formats, transversal))
            for q in qs[-5:]:
                q.label = f"{q.kind} {name} radius {radius}"
    return qs


def separation_pair(rng, lang: checks.Language, max_k: int, agree: int):
    """Two legal windows of radius max_k that agree up to radius ``agree``
    and, below max_k, part at the next radius."""
    words = sorted(lang.words(2 * max_k + 1))

    def window(w, r):
        return w[max_k - r:max_k + r + 1]
    while True:
        x = rng.choice(words)
        pool = [w for w in words if window(w, agree) == window(x, agree)
                and (agree == max_k or window(w, agree + 1) != window(x, agree + 1))]
        if pool:
            return (x, max_k), (rng.choice(pool), max_k)


def load_clopen(formats, oracle, path: str):
    return formats.clopen_from_json(json.loads(Path(path).read_text()), oracle)


def clopen_question(rng, files, lang, path, radius, formats, transversal) -> Question:
    a_file, a = random_clopen(rng, lang, radius)
    b_file, b = random_clopen(rng, lang, rng.randint(max(0, radius - 1), radius))
    a_path, b_path = files.write("clopen", a_file), files.write("clopen", b_file)

    def call():
        oracle = formats.load_oracle(path)
        sa, sb = load_clopen(formats, oracle, a_path), load_clopen(formats, oracle, b_path)
        return {"union": transversal.union(sa, sb), "intersect": transversal.intersect(sa, sb),
                "complement": transversal.complement(sa)}
    return Question("clopen", lambda ans: checks.check_boolean(lang, a, b, ans), call=call)


def shift_question(rng, files, lang, path, radius, formats, transversal) -> Question:
    s_file, s = random_clopen(rng, lang, radius)
    s_path = files.write("clopen", s_file)
    steps = rng.choice([-1, 1])

    def call():
        oracle = formats.load_oracle(path)
        moved = transversal.shift_set(load_clopen(formats, oracle, s_path), steps)
        return moved, transversal.shift_set(moved, -steps)

    def check(ans):
        moved, back = ans
        checks.check_clopen(lang, radius + abs(steps), checks.shifted(lang, radius, s[1], steps), moved)
        checks.check_clopen(lang, radius, s[1], back)
    return Question("shift", check, call=call)


def holonomy_question(rng, files, lang, path, radius, formats, transversal) -> Question:
    s_file, s = random_clopen(rng, lang, radius)
    s_path = files.write("clopen", s_file)
    steps = rng.choice([-1, 1])

    def call():
        oracle = formats.load_oracle(path)
        image, word = transversal.shift(load_clopen(formats, oracle, s_path), steps)
        return image, transversal.compose_holonomy([word, word.inverse()])

    def check(ans):
        image, loop = ans
        checks.check_clopen(lang, radius + abs(steps), checks.shifted(lang, radius, s[1], steps), image)
        checks.expect(loop.displacement == 0, "a word and its inverse move the mark")
        checks.check_clopen(lang, radius, s[1], loop.domain)
    return Question("holonomy", check, call=call)


# -- coverings --------------------------------------------------------------------

def cyclic_group(orders: tuple[int, int]):
    m, n = orders
    return checks.Group([(i, j) for i in range(m) for j in range(n)],
                        lambda g, h: ((g[0] + h[0]) % m, (g[1] + h[1]) % n))


def dihedral_group(n: int):
    """D_n = <r, s>; (k, f) stands for r^k s^f."""
    return checks.Group([(k, f) for k in range(n) for f in (0, 1)],
                        lambda g, h: ((g[0] + (h[0] if g[1] == 0 else -h[0])) % n, g[1] ^ h[1]))


# Cayley towers over the two-petal rose: the group of each level 2, 3, ...,
# the images of the generators a, b, and the reduction onto the level below.
ABELIAN_ORDERS = [(2, 1), (2, 2), (4, 2), (4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (32, 16)]
DIHEDRAL_N = [1, 2, 4, 8, 16, 32, 64, 128, 256]
IRREGULAR_N = 30


def cayley_levels(kind: str) -> list[tuple]:
    if kind == "abelian":
        return [(cyclic_group((m, n)), (1 % m, 0), (0, 1 % n),
                 lambda g, lo=ABELIAN_ORDERS[i - 1]: (g[0] % lo[0], g[1] % lo[1]))
                for i, (m, n) in enumerate(ABELIAN_ORDERS)]
    return [(dihedral_group(n), (1 % n, 0), (0, 1), lambda g, lo=DIHEDRAL_N[i - 1]: (g[0] % lo, g[1]))
            for i, n in enumerate(DIHEDRAL_N)]


ROSE_BASE = {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"},
                                          {"id": "b", "src": "w", "dst": "w"}]}


def cayley_tower(rng, kind: str) -> tuple[dict, list]:
    """Tower file and, per level 2.., (group in vertex order, a index, b index)."""
    levels, info = [], []
    below = None  # (group, ids)
    for group, a, b, reduce in cayley_levels(kind):
        order = list(range(len(group)))
        rng.shuffle(order)
        group = checks.Group([group.elements[i] for i in order], group.mul)
        width = len(str(len(group)))
        ids = [str(i).zfill(width) for i in range(len(group))]
        ai, bi = group.index[a], group.index[b]
        edges = []
        for i in range(len(group)):
            edges.append({"id": "a" + ids[i], "src": ids[i], "dst": ids[group.times(i, ai)]})
            edges.append({"id": "b" + ids[i], "src": ids[i], "dst": ids[group.times(i, bi)]})
        if below is None:
            vmap = {v: "w" for v in ids}
            emap = {e["id"]: e["id"][0] for e in edges}
        else:
            lower, lower_ids = below
            parent = [lower.index[reduce(g)] for g in group.elements]
            vmap = {ids[i]: lower_ids[parent[i]] for i in range(len(group))}
            emap = {"a" + ids[i]: "a" + lower_ids[parent[i]] for i in range(len(group))}
            emap.update({"b" + ids[i]: "b" + lower_ids[parent[i]] for i in range(len(group))})
        levels.append({"total": {"vertices": ids, "edges": edges}, "vertex_map": vmap, "edge_map": emap})
        info.append((group, ai, bi))
        below = (group, ids)
    return {"base": ROSE_BASE, "levels": levels}, info


def irregular_cover(rng) -> tuple[dict, int, int, list]:
    """D_n acting on the cosets of <s r^j>; n = 2 * odd, so deck order 2."""
    group = dihedral_group(IRREGULAR_N)
    j = rng.randrange(IRREGULAR_N)
    sub = {group.one, group.index[(j, 1)]}
    cosets, seen = [], {}
    for g in range(len(group)):
        coset = frozenset(group.times(g, h) for h in sub)
        if coset not in seen:
            seen[coset] = len(cosets)
            cosets.append(coset)
    base_coset = seen[frozenset(sub)]
    order = [base_coset] + rng.sample([c for c in range(len(cosets)) if c != base_coset], len(cosets) - 1)
    ids = {c: str(pos).zfill(2) for pos, c in enumerate(order)}
    coset_of = {g: seen[c] for c in seen for g in c}
    edges = []
    for c, members in enumerate(cosets):
        g = min(members)
        for name, x in (("a", group.index[(1, 0)]), ("b", group.index[(0, 1)])):
            # generators act on the left: g K -> x g K
            edges.append({"id": name + ids[c], "src": ids[c], "dst": ids[coset_of[group.times(x, g)]]})
    level = {"total": {"vertices": [ids[c] for c in range(len(cosets))], "edges": edges},
             "vertex_map": {ids[c]: "w" for c in range(len(cosets))},
             "edge_map": {e["id"]: e["id"][0] for e in edges}}
    normalizer = group.normalizer(sub)
    orbit = sorted({order.index(coset_of[group.times(nrm, group.one)]) for nrm in normalizer})
    return {"base": ROSE_BASE, "levels": [level]}, len(cosets), len(normalizer) // len(sub), orbit


DYADIC_DEPTH = 20     # levels 1..20, top degree 2^19
TRIADIC_DEPTH = 12    # levels 1..12, top degree 3^11
DECK_LEVELS = {2: [3, 4, 5, 6, 7, 8], 3: [3, 4, 5]}
# Differently labelled copies of each Cayley tower.  Every copy answers
# quotient and monodromy questions; the first also answers deck-group
# questions from level 3 up, to degree 128 (abelian) and 256 (dihedral).
CAYLEY_TOWERS = 3
CAYLEY_DECK_TOP = {"abelian": 8, "dihedral": 9}


def exponent(rng, sign: int) -> int:
    """20 bits, 10 of them set: profinite_pow does the same products."""
    return sign * ((1 << 19) | sum(1 << b for b in rng.sample(range(19), 9)))


def congruent_exponent(rng, x: int, modulus: int) -> int:
    """Another exponent of the same shape congruent to x, or x itself when
    the modulus leaves no other."""
    for _ in range(1000):
        y = x + rng.randrange(-(1 << 19), 1 << 19) // modulus * modulus
        if abs(y).bit_length() == 20 and bin(abs(y)).count("1") == 10 and y * x > 0:
            return y
    return x


def coverings(rng: random.Random, files: Files) -> list[Question]:
    from laminate import formats, profinite

    qs = []
    # deck groups of cyclic towers, each tower only as deep as the level asked
    for d, levels in DECK_LEVELS.items():
        for level in levels:
            path = files.write(f"cyclic{d}", {"circle_degrees": [d] * (level - 1)})
            n = d ** (level - 1)
            qs.append(Question("deck-cyclic", lambda code, report, n=n: checks.check_deck_group(n, n, report),
                               argv=["deck-group", "--tower", path, "--level", str(level)]))
    # deck groups, quotient homomorphisms and monodromy of Cayley towers
    for kind in ("abelian", "dihedral"):
        for copy in range(CAYLEY_TOWERS):
            tower, info = cayley_tower(rng, kind)
            path = files.write(f"cayley-{kind}", tower)
            for level in (range(3, CAYLEY_DECK_TOP[kind] + 1) if copy == 0 else []):
                n = len(info[level - 2][0])
                qs.append(Question("deck-cayley", lambda code, report, n=n: checks.check_deck_group(n, n, report),
                                   argv=["deck-group", "--tower", path, "--level", str(level)]))
            for level in (2, 3, 4, 5):
                upper = len(info[level - 2][0])
                lower = len(info[level - 3][0]) if level > 2 else 1
                qs.append(Question(
                    "quotient-verify", lambda ans, u=upper, lo=lower: checks.check_quotient(u, lo, ans),
                    call=lambda path=path, level=level: profinite.QuotientHom(formats.load_tower(path), level).verify(),
                    label=f"QuotientHom({kind}, {level}).verify()"))
            for level in (4, 6, 8, 10):
                group, ai, bi = info[level - 2]
                qs.append(Question(
                    "monodromy", lambda ans, g=group, a=ai, b=bi: checks.check_monodromy(g, {"a": a, "b": b}, ans),
                    call=lambda path=path, level=level: formats.load_tower(path).generator_monodromies(level),
                    label=f"generator_monodromies({kind}, {level})"))
    tower, degree, deck, orbit = irregular_cover(rng)
    path = files.write("irregular", tower)
    qs.append(Question("deck-irregular",
                       lambda code, report: checks.check_deck_group(degree, deck, report, orbit),
                       argv=["deck-group", "--tower", path, "--level", "2"]))
    # representation and metric on cyclic towers, graded by depth
    for d, top in ((2, DYADIC_DEPTH), (3, TRIADIC_DEPTH)):
        for i, depth in enumerate(range(top // 4 + 1, top + 1)):
            sizes = [d ** k for k in range(depth)]
            path = files.write(f"cyclic{d}", {"circle_degrees": [d] * (depth - 1)})
            word = [rng.choice(["0", "-0"]) for _ in range(4)]
            power = word.count("0") - word.count("-0")
            qs.append(Question(
                "rep", lambda code, report, s=sizes, e=power, k=depth: checks.check_cyclic_rep(s, e, k, report),
                argv=["rep", "--tower", path, f"--loop={' '.join(word)}", "--depth", str(depth)]))
            x = exponent(rng, 1 if i % 2 == 0 else -1)
            y = congruent_exponent(rng, x, d ** [0, depth // 2, depth - 2][i % 3])
            qs.append(Question(
                "metric", lambda code, report, s=sizes, x=x, y=y, k=depth: checks.check_cyclic_metric(s, x, y, k, report),
                argv=["metric", "--tower", path, f"--x={x}", f"--y={y}", "--depth", str(depth)]))
    return qs
