"""Acceptance suite: one test per criterion, exact verdicts, desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every expected value is either trivially forced, frozen from an
independent oracle (modular arithmetic, brute-force closures, long-word
factor collection), or a closed form checked in-line.
"""

import json
from fractions import Fraction as F
from random import Random

import pytest

from laminate import fixtures, formats
from laminate.approximants import (
    approximant_system,
    bonding_map,
    build_approximant,
    pattern_clopen,
    quotient_cell,
)
from laminate.branched_graph import is_flattening
from laminate.cli import main as cli_main
from laminate.coverings import cyclic_tower
from laminate.inverse_system import (
    EdgePoint,
    Flattening,
    InverseSystem,
    NotLamination,
    VertexCell,
    enumerate_threads,
    is_flattening_system,
    local_box,
    telescope,
)
from laminate.local_model import glue_classes
from laminate.profinite import (
    delta_infinity_rep,
    metric,
    profinite_id,
    profinite_inv,
    profinite_mul,
    profinite_pow,
)
from laminate.subshift import LanguageOracle, fibonacci, thue_morse
from laminate.transversal import (
    ClopenSet,
    canonicalize,
    complement,
    intersect,
    is_equal,
    is_subset,
    subtract,
    union,
)

from helpers import brute_force_glue_classes, random_branch_tree, random_disk_point, random_small_system


def _ok(n: int, text: str):
    print(f"\nACCEPTANCE PASS: criterion {n} - {text}")


def test_criterion_1_figure_eight_not_lamination(tmp_path):
    system = InverseSystem.stationary(fixtures.figure_eight_double())
    for window in range(1, 11):
        verdict = is_flattening_system(system, window)
        assert isinstance(verdict, NotLamination)
        assert verdict.witness.vertex == "w"
        g0, g1 = verdict.witness.germs
        assert g0 != g1 and {g0.vertex, g1.vertex} == {"w"}
    system_file = tmp_path / "fig8.json"
    system_file.write_text(
        json.dumps(
            {
                "stationary": {
                    "graph": formats.branched_graph_to_json(fixtures.figure_eight()),
                    "map": formats.cellular_map_to_json(fixtures.figure_eight_double()),
                }
            }
        )
    )
    assert cli_main(["check-flatten", "--system", str(system_file)]) == 2
    _ok(1, "figure-eight P2 certified NotLamination for windows 1..10, exit code 2")


def test_criterion_2_solenoid_flattening_and_local_boxes():
    system = InverseSystem.stationary(fixtures.circle_double())
    verdict = is_flattening_system(system, 10)
    assert verdict == Flattening(tuple(range(11)))
    center = EdgePoint("e", F(1, 2))
    threads = enumerate_threads(system, 10, center)
    assert len(threads) == 2 ** 10
    box = local_box(system, threads[0], 0)
    expected = {k: 2 ** k for k in range(1, 11)}
    assert box.counts() == expected
    for k in range(1, 11):
        assert len(enumerate_threads(system, k, center)) == box.counts()[k]
    _ok(2, "circle/p2 flattening with trivial telescoping; fibers 2^k up to k=10")


def test_criterion_3_telescoping_preserves_thread_counts():
    rng = Random(2024)
    checked = 0
    for _ in range(50):
        system = random_small_system(rng, depth=5)
        start = rng.choice([0, 0, 0, 1])
        rest = sorted(rng.sample(range(start + 1, 6), rng.randint(1, 5 - start)))
        indices = [start] + rest
        tel = telescope(system, indices)
        depth_t = len(indices) - 1
        down = system.composite(indices[0], 0)
        for u in sorted(system.level(indices[0]).vertices, key=repr):
            tel_count = len(enumerate_threads(tel, depth_t, VertexCell(u)))
            base = VertexCell(down.vertex_map[u])
            full = enumerate_threads(system, indices[-1], base)
            matching = [t for t in full if t.cells[indices[0]] == VertexCell(u)]
            assert tel_count == len(matching)
            checked += 1
        level0 = system.level(indices[0])
        edge = sorted(level0.edges, key=repr)[0]
        center = EdgePoint(edge, F(1, 2))
        from laminate.inverse_system import apply_cell

        image = center
        for j in range(indices[0], 0, -1):
            image = apply_cell(system.bond(j - 1), image)
        if isinstance(image, EdgePoint):
            tel_count = len(enumerate_threads(tel, depth_t, center))
            full = enumerate_threads(system, indices[-1], image)
            matching = [t for t in full if t.cells[indices[0]] == center]
            assert tel_count == len(matching)
            checked += 1
    assert checked >= 50
    _ok(3, f"thread counts agree across {checked} telescoped comparisons of 50 systems")


@pytest.mark.parametrize(
    "label,oracle_factory",
    [
        ("fibonacci", lambda: LanguageOracle.from_substitution(fibonacci())),
        ("thue-morse", lambda: LanguageOracle.from_substitution(thue_morse())),
        ("full-2-shift", lambda: LanguageOracle.full_shift(["0", "1"])),
    ],
)
def test_criterion_4_approximant_towers(label, oracle_factory):
    oracle = oracle_factory()
    for k in range(5):
        complex_k = build_approximant(oracle, k)
        assert len(complex_k.graph.vertices) == len(oracle.words(2 * k))
        assert len(complex_k.graph.edges) == len(oracle.words(2 * k + 1))
        if label == "full-2-shift":
            assert len(complex_k.graph.vertices) == 2 ** (2 * k)
            assert len(complex_k.graph.edges) == 2 ** (2 * k + 1)
    for k in range(5):
        assert is_flattening(bonding_map(oracle, k))
    rng = Random(99)
    words = sorted(oracle.words(11))
    mark = 5
    for _ in range(100):
        w = rng.choice(words)
        for k in range(4):
            upper = quotient_cell(oracle, k + 1, w, mark)
            lower = quotient_cell(oracle, k, w, mark)
            assert bonding_map(oracle, k).edge_map[upper] == ((lower, 1),)
    _ok(4, f"{label}: cell counts, flattening bonds, naturality on 100 words")


def test_criterion_5_clopen_nesting_and_boolean_laws():
    fib = LanguageOracle.from_substitution(fibonacci())
    tm = LanguageOracle.from_substitution(thue_morse())
    rng = Random(55)
    for oracle in (fib, tm):
        words = sorted(oracle.words(9))
        for _ in range(50):
            w = rng.choice(words)
            for k in range(4):
                wider = pattern_clopen(oracle, w[4 - (k + 1) : 5 + (k + 1)], k + 1)
                narrower = pattern_clopen(oracle, w[4 - k : 5 + k], k)
                assert is_subset(wider, narrower)

    def random_clopen(oracle):
        radius = rng.randint(0, 2)
        return ClopenSet(
            oracle,
            radius,
            [w for w in sorted(oracle.words(2 * radius + 1)) if rng.random() < 0.5],
        )

    laws = 0
    for oracle in (fib, tm):
        whole = ClopenSet.whole(oracle)
        for _ in range(100):
            x, y, z = (random_clopen(oracle) for _ in range(3))
            assert is_equal(union(x, y), union(y, x))
            assert is_equal(
                intersect(x, union(y, z)), union(intersect(x, y), intersect(x, z))
            )
            assert is_equal(
                complement(union(x, y)), intersect(complement(x), complement(y))
            )
            assert is_equal(subtract(whole, subtract(whole, x)), x)
            assert is_equal(
                canonicalize(x, x.radius + 1), x
            )
            laws += 1
    assert laws == 200
    _ok(5, "pattern nesting on 100 points; boolean laws on 200 random clopen sets")


def test_criterion_6_profinite_structure_matches_modular_oracles():
    rng = Random(66)
    dyadic = cyclic_tower([2] * 10)
    K = 10
    # the fast component equality below leans on free transitivity, so
    # certify that the tower is regular first (witness check at every level used)
    assert all(dyadic.verify_rotation_witness(k) for k in range(2, K + 1))
    gen = delta_infinity_rep(dyadic, ((0, 1),), K)
    for _ in range(50):
        m, n = rng.randrange(2 ** 10), rng.randrange(2 ** 10)
        x, y = profinite_pow(gen, m), profinite_pow(gen, n)
        z = profinite_mul(x, y)
        w = profinite_inv(x)
        for k in range(1, K + 1):
            modulus = dyadic.sizes[k - 1]
            assert z.basepoint_image(k) == (m + n) % modulus
            assert w.basepoint_image(k) == (-m) % modulus
    mixed = cyclic_tower([2, 3, 2, 3, 2, 3, 2])
    assert mixed.sizes[1:5] == [2, 6, 12, 36]
    K = 8
    gen = delta_infinity_rep(mixed, ((0, 1),), K)
    for _ in range(50):
        m, n = rng.randrange(432), rng.randrange(432)
        z = profinite_mul(profinite_pow(gen, m), profinite_pow(gen, n))
        w = profinite_inv(profinite_pow(gen, m))
        for k in range(1, K + 1):
            modulus = mixed.sizes[k - 1]
            assert z.basepoint_image(k) == (m + n) % modulus
            assert w.basepoint_image(k) == (-m) % modulus
    _ok(6, "mul/inv match mod 2^k and mod 2,6,12,36,... at every level")


def _ladder(gen, bits):
    out = [gen]
    for _ in range(bits):
        out.append(profinite_mul(out[-1], out[-1]))
    return out


def _power(ladder, ident, n):
    out = ident
    j = 0
    while n:
        if n & 1:
            out = profinite_mul(out, ladder[j])
        n >>= 1
        j += 1
    return out


def test_criterion_7_metric_invariance_and_truncation_error():
    rng = Random(77)
    for degrees in ([2] * 15, [2, 3] * 8):
        tower = cyclic_tower(degrees)
        K = 12
        assert all(tower.verify_rotation_witness(k) for k in range(2, K + 5))
        gen = delta_infinity_rep(tower, ((0, 1),), K)
        ident = profinite_id(tower, K)
        ladder = _ladder(gen, 22)
        top = tower.sizes[K - 1]
        for _ in range(1000):
            h, x, y = (_power(ladder, ident, rng.randrange(top)) for _ in range(3))
            lhs = metric(profinite_mul(h, x), profinite_mul(h, y))
            rhs = metric(x, y)
            assert lhs.partial_sum == rhs.partial_sum
        # tail bound: recompute at depth K+4 and compare
        gen16 = delta_infinity_rep(tower, ((0, 1),), K + 4)
        ident16 = profinite_id(tower, K + 4)
        ladder16 = _ladder(gen16, 22)
        top16 = tower.sizes[K + 3]
        for _ in range(10):
            x16 = _power(ladder16, ident16, rng.randrange(top16))
            y16 = _power(ladder16, ident16, rng.randrange(top16))
            deep = metric(x16, y16).partial_sum
            shallow = metric(x16.truncate(K), y16.truncate(K)).partial_sum
            assert abs(deep - shallow) <= F(1, 2 ** K)
    _ok(7, "metric left-invariant on 1000 triples per tower; tail below 2^-12")


def test_criterion_8_representation_faithful_at_depth():
    tower = cyclic_tower([2] * 12)
    depth = 13  # levels 1..13 carry the quotients mod 2^0 .. 2^12
    gen = delta_infinity_rep(tower, ((0, 1),), depth)
    ident = profinite_id(tower, depth)
    power = ident
    for n in range(1, 2 ** 12 + 1):
        power = profinite_mul(power, gen)
        for K in (4, 8, 12):
            vanishes = all(
                power.basepoint_image(k) == 0 for k in range(1, K + 2)
            )
            assert vanishes == (n % 2 ** K == 0), (n, K)
        if n % 512 == 0:
            assert (profinite_pow(gen, n) == ident) == (n % 2 ** 12 == 0)
    _ok(8, "generator^n trivial at depth K iff 2^K divides n, for n <= 4096")


def test_criterion_9_local_model_matches_brute_force_closure():
    rng = Random(909)
    total = 0
    for _ in range(20):
        tree = random_branch_tree(rng, max_dim=3, max_vertices=5)
        for _ in range(25):
            x = random_disk_point(rng, tree.dimension)
            assert glue_classes(tree, x) == brute_force_glue_classes(tree, x)
            total += 1
    assert total == 500
    _ok(9, "glue classes equal brute-force closure on 500 points across 20 trees")
