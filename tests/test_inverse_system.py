import functools
from collections import Counter
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

import helpers
from laminate import branched_graph, fixtures, inverse_system
from laminate.branched_graph import (
    CellularMap,
    compose_germs,
    germ_flattening_witness,
    germ_flattens,
    is_flattening,
)
from laminate.inverse_system import (
    EdgePoint,
    Flattening,
    InverseSystem,
    NotFlatteningUpTo,
    NotLamination,
    NotLocallyTrivial,
    Thread,
    VertexCell,
    apply_cell,
    enumerate_threads,
    is_coherent,
    is_flattening_system,
    local_box,
    not_lamination_certificate,
    telescope,
)

from helpers import (
    cycle_branched,
    cycle_cover_map,
    random_rose_words,
    random_small_system,
    random_walk_map,
    reference_tower_search,
    rose_graph,
    rose_map,
    theta_graph,
)


def solenoid():
    return InverseSystem.stationary(fixtures.circle_double())


def figure_eight_system():
    return InverseSystem.stationary(fixtures.figure_eight_double())


# -- telescoping ---------------------------------------------------------------


def test_telescope_identity_indices():
    system = solenoid()
    tel = telescope(system, [0, 1, 2, 3])
    for k in range(3):
        assert tel.bond(k).edge_map == system.bond(k).edge_map


def test_telescope_solenoid_to_degree_four():
    tel = telescope(solenoid(), [0, 2, 4])
    assert tel.stationary_flag
    for k in range(2):
        assert tel.bond(k).edge_map["e"] == (("e", 1),) * 4


def test_telescope_rejects_non_monotone_indices():
    with pytest.raises(ValueError):
        telescope(solenoid(), [0, 2, 1])


def test_telescope_rejects_indices_beyond_materializable_depth():
    P2 = fixtures.figure_eight_double()
    finite = InverseSystem.from_lists([P2.domain] * 3, [P2] * 2)
    with pytest.raises(ValueError):
        telescope(finite, [0, 4])


def test_from_lists_bond_levels_must_match():
    p2 = fixtures.circle_double()
    system = InverseSystem.from_lists(
        [fixtures.circle(), fixtures.figure_eight()], [p2]
    )
    with pytest.raises(ValueError):
        system.bond(0)


def test_telescoped_thread_sets_in_bijection():
    rng = Random(101)
    for _ in range(12):
        system = random_small_system(rng, depth=5)
        start = rng.choice([0, 0, 1])
        rest = sorted(rng.sample(range(start + 1, 6), rng.randint(1, 3)))
        indices = [start] + rest
        tel = telescope(system, indices)
        depth_t = len(indices) - 1
        level_start = system.level(indices[0])
        down = system.composite(indices[0], 0)
        for u in sorted(level_start.vertices, key=repr):
            tel_count = len(enumerate_threads(tel, depth_t, VertexCell(u)))
            base = VertexCell(down.vertex_map[u])
            full = enumerate_threads(system, indices[-1], base)
            matching = [
                t for t in full if t.cells[indices[0]] == VertexCell(u)
            ]
            assert tel_count == len(matching)
            # the correspondence itself: restrict matching threads to the
            # kept levels and compare as sets
            restricted = {
                tuple(t.cells[i] for i in indices) for t in matching
            }
            tel_threads = {
                t.cells for t in enumerate_threads(tel, depth_t, VertexCell(u))
            }
            assert restricted == tel_threads


# -- thread enumeration -----------------------------------------------------------


def test_identity_system_has_one_thread_per_vertex():
    g = fixtures.figure_eight()
    from laminate.branched_graph import identity_map

    system = InverseSystem.stationary(identity_map(g))
    threads = enumerate_threads(system, 4, VertexCell("w"))
    assert len(threads) == 1


def test_dyadic_cycle_tower_has_2_to_K_vertex_threads():
    from helpers import cycle_branched, cycle_cover_map

    sizes = [1, 2, 4, 8, 16]
    system = InverseSystem.from_lists(
        [cycle_branched(n) for n in sizes],
        [cycle_cover_map(m, n) for n, m in zip(sizes, sizes[1:])],
    )
    for depth in range(5):
        threads = enumerate_threads(system, depth, VertexCell("u0"))
        assert len(threads) == 2 ** depth


def test_figure_eight_wedge_vertex_is_totally_invariant():
    system = figure_eight_system()
    for depth in (1, 3, 5):
        assert len(enumerate_threads(system, depth, VertexCell("w"))) == 1


def test_threads_are_coherent():
    system = solenoid()
    for thread in enumerate_threads(system, 4, EdgePoint("e", F(1, 2))):
        assert is_coherent(system, thread)


def test_apply_cell_affine_parametrization():
    p2 = fixtures.circle_double()
    assert apply_cell(p2, EdgePoint("e", F(1, 4))) == EdgePoint("e", F(1, 2))
    assert apply_cell(p2, EdgePoint("e", F(1, 2))) == VertexCell("v")
    assert apply_cell(p2, EdgePoint("e", F(3, 4))) == EdgePoint("e", F(1, 2))


def test_unknown_base_cell_rejected():
    with pytest.raises(ValueError):
        enumerate_threads(solenoid(), 2, VertexCell("nope"))


# -- flattening verdicts -----------------------------------------------------------


def test_solenoid_flattening_trivial_telescoping():
    for window in (1, 4, 8):
        verdict = is_flattening_system(solenoid(), window)
        assert verdict == Flattening(tuple(range(window + 1)))


def test_figure_eight_not_lamination_for_every_window():
    for window in range(1, 11):
        verdict = is_flattening_system(figure_eight_system(), window)
        assert isinstance(verdict, NotLamination)
        assert verdict.witness.vertex == "w"


def _path_chain_reaches(system, window) -> bool:
    """Some telescoping of levels 0..window flattens, by full path composites."""
    reach = {window}
    for j in range(window - 1, -1, -1):
        if any(is_flattening(system.composite(k, j)) for k in sorted(reach)):
            reach.add(j)
    return len(reach) > 1


def test_flattening_verdict_soundness():
    rng = Random(303)
    seen_flattening = 0
    for _ in range(20):
        system = random_small_system(rng, depth=5)
        verdict = is_flattening_system(system, 5)
        if isinstance(verdict, Flattening):
            seen_flattening += 1
            tel = telescope(system, list(verdict.indices))
            for k in range(len(verdict.indices) - 1):
                assert is_flattening(tel.bond(k))
        else:
            # the search is exhaustive over the window
            assert not _path_chain_reaches(system, 5)
    assert seen_flattening > 0


def test_greedy_dead_end_still_finds_a_telescoping():
    # bond 0 flattens, but no composite from level 1 does: a chain through
    # level 1 gets stuck, yet composite(4, 0) flattens
    petals = ("a", "b")
    bond0 = rose_map(petals, {"a": "ab", "b": "ab"})
    swap = rose_map(petals, {"a": "ab", "b": "ba"})
    system = InverseSystem.from_lists([rose_graph(petals)] * 5, [bond0, swap, swap, swap])
    assert is_flattening(system.composite(4, 0))
    verdict = is_flattening_system(system, 4)
    assert verdict == Flattening((0, 4))


def test_greedy_chain_kept_where_it_succeeds():
    # only the powers f^n with n >= 3 flatten (first letters a -> b -> c -> d
    # -> d, last letters all d): the least greedy start is 2, not level 0,
    # which also reaches the window edge
    petals = ("a", "b", "c", "d")
    f = rose_map(petals, {"a": "bd", "b": "cd", "c": "dd", "d": "dad"})
    system = InverseSystem.stationary(f)
    assert not is_flattening(system.composite(2, 0))
    assert is_flattening(system.composite(3, 0))
    assert is_flattening_system(system, 8) == Flattening((2, 5, 8))


TOWERS = 2000


@functools.cache
def tower_sweep() -> list:
    """(tower, window) pairs: depths 1-12, windows 1-14, bonds drawn per level
    as rose maps read forward or backward, walk maps of the branched circle
    fixing or swapping its vertices (from a seeded pool of 60, since each
    takes many draws), or cycle covers of degree 1 or 2."""
    rng = Random(1818)
    theta = theta_graph()
    walks = [random_walk_map(rng, theta, {"u": "v", "v": "u"} if swap else {"u": "u", "v": "v"})
             for swap in [False] * 40 + [True] * 20]
    out = []
    for _ in range(TOWERS):
        depth, window, kind = rng.randint(1, 12), rng.randint(1, 14), rng.random()
        if kind < 0.5:
            petals = tuple("abc"[: rng.randint(2, 3)])
            levels = [rose_graph(petals)] * (depth + 1)
            bonds = []
            for _ in range(depth):
                words = random_rose_words(rng, petals)
                if rng.random() < 0.8:
                    bonds.append(rose_map(petals, words))
                else:  # side A onto side B
                    bonds.append(CellularMap(levels[0], levels[0], {"w": "w"},
                                             {e: tuple((d, -1) for d in reversed(w)) for e, w in words.items()}))
        elif kind < 0.8:
            levels = [theta] * (depth + 1)
            bonds = [rng.choice(walks) for _ in range(depth)]
        else:
            sizes = [1]
            for _ in range(depth):
                sizes.append(sizes[-1] * 2 if sizes[-1] < 8 and rng.random() < 0.5 else sizes[-1])
            levels = [cycle_branched(n) for n in sizes]
            bonds = [cycle_cover_map(m, n) for n, m in zip(sizes, sizes[1:])]
        out.append((InverseSystem.from_lists(levels, bonds), window))
    return out


def _least_flattening_level(system, j, window):
    """The least level k in (j, window] whose germ composite down to j
    flattens, None when there is none."""
    germ = system.bond(j).germs
    for k in range(j + 1, window + 1):
        if k > j + 1:
            germ = compose_germs(germ, system.bond(k - 1).germs)
        if germ_flattens(germ):
            return k
    return None


def test_tower_verdicts_equal_the_reference_search():
    kinds = Counter()
    for system, window in tower_sweep():
        verdict = is_flattening_system(system, window)
        assert verdict == reference_tower_search(system, window)
        if not isinstance(verdict, Flattening):
            kinds["inconclusive"] += 1
            continue
        chain = verdict.indices
        assert chain[-1] == min(window, system.max_depth)
        least = [_least_flattening_level(system, lo, chain[-1]) for lo in chain[:-1]]
        # every step but the last is the least flattening one
        assert list(chain[1:-1]) == least[:-1]
        kinds["m-steps" if chain[-1] == least[-1] else "jump"] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 40, kinds


def test_tower_sweep_makes_at_most_2w_tests_and_no_more_compositions(monkeypatch):
    counts = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def call(*args):
            counts[module.__name__, name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, call)

    for module in (inverse_system, helpers):
        counted(module, "compose_germs")
        counted(module, "germ_flattens")
    for system, window in tower_sweep():
        counts.clear()
        is_flattening_system(system, window)
        reference_tower_search(system, window)
        assert counts["laminate.inverse_system", "germ_flattens"] <= 2 * min(window, system.max_depth)
        assert counts["laminate.inverse_system", "compose_germs"] <= counts["helpers", "compose_germs"]


def test_germ_composites_match_path_composites():
    rng = Random(404)
    for _ in range(60):
        system = random_small_system(rng, depth=5)
        for k0 in range(5):
            germ = system.bond(k0).germs
            for k in range(k0 + 1, 6):
                if k > k0 + 1:
                    germ = compose_germs(germ, system.bond(k - 1).germs)
                path = system.composite(k, k0)
                assert np.array_equal(germ.image, path.germs.image)
                assert (germ_flattening_witness(germ) is None) == is_flattening(path)


def test_search_builds_no_path_composites(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the verdict composed edge paths")

    monkeypatch.setattr(branched_graph, "compose", refuse)
    monkeypatch.setattr(inverse_system, "compose", refuse)
    monkeypatch.setattr(InverseSystem, "composite", refuse)
    assert is_flattening_system(solenoid(), 8) == Flattening(tuple(range(9)))
    assert isinstance(is_flattening_system(figure_eight_system(), 8), NotLamination)
    rng = Random(505)
    for _ in range(10):
        is_flattening_system(random_small_system(rng, depth=6), 6)


def test_fibonacci_rose_window_200_is_inconclusive():
    # no power of the germ map flattens (a- and b- swap) and no germ pair is
    # invariant; the decision squares the germ map twice and builds no path
    petals = ("a", "b")
    system = InverseSystem.stationary(rose_map(petals, {"a": "ab", "b": "a"}))
    assert is_flattening_system(system, 200) == NotFlatteningUpTo(200)


def test_nonstationary_failure_is_inconclusive():
    # branch map tower built level-by-level is reported inconclusive, not
    # certified: the certificate needs stationarity
    P2 = fixtures.figure_eight_double()
    system = InverseSystem.from_lists([P2.domain] * 4, [P2] * 3)
    verdict = is_flattening_system(system, 3)
    assert verdict == NotFlatteningUpTo(3)


# -- the non-lamination certificate ---------------------------------------------------


def test_certificate_figure_eight():
    witness = not_lamination_certificate(figure_eight_system())
    assert witness is not None
    assert witness.vertex == "w"
    g0, g1 = witness.germs
    assert {g0.a, g0.b} == {("a", "+"), ("a", "-")}
    assert {g1.a, g1.b} == {("b", "+"), ("b", "-")}


def test_certificate_absent_for_circle():
    assert not_lamination_certificate(solenoid()) is None


def test_certificate_absent_for_two_disjoint_circles():
    from laminate.branched_graph import BranchedGraph, CellularMap

    g = BranchedGraph(
        vertices={"v1", "v2"},
        edges={"e1": ("v1", "v1"), "e2": ("v2", "v2")},
        sides={
            "v1": ({("e1", "+")}, {("e1", "-")}),
            "v2": ({("e2", "+")}, {("e2", "-")}),
        },
    )
    bond = CellularMap(
        g,
        g,
        {"v1": "v1", "v2": "v2"},
        {"e1": (("e1", 1), ("e1", 1)), "e2": (("e2", 1), ("e2", 1))},
    )
    assert not_lamination_certificate(InverseSystem.stationary(bond)) is None


def test_certificate_requires_stationary():
    P2 = fixtures.figure_eight_double()
    system = InverseSystem.from_lists([P2.domain] * 2, [P2])
    with pytest.raises(ValueError):
        not_lamination_certificate(system)


def test_certificate_witness_is_invariant_and_distinct():
    from helpers import reference_germ_image

    system = figure_eight_system()
    witness = not_lamination_certificate(system)
    bond = system.bond(0)
    g0, g1 = witness.germs
    assert g0 != g1
    assert {reference_germ_image(bond, g0), reference_germ_image(bond, g1)} == {g0, g1}


# -- local boxes -------------------------------------------------------------------


def test_local_box_solenoid_edge_disk_counts():
    system = solenoid()
    thread = enumerate_threads(system, 3, EdgePoint("e", F(1, 2)))[0]
    box = local_box(system, thread, 0)
    assert box.counts() == {1: 2, 2: 4, 3: 8}


def test_local_box_identity_system():
    from laminate.branched_graph import identity_map

    system = InverseSystem.stationary(identity_map(fixtures.circle()))
    thread = enumerate_threads(system, 3, EdgePoint("e", F(1, 2)))[0]
    box = local_box(system, thread, 0)
    assert box.counts() == {1: 1, 2: 1, 3: 1}


def test_local_box_figure_eight_star_fails():
    system = figure_eight_system()
    thread = enumerate_threads(system, 2, VertexCell("w"))[0]
    with pytest.raises(NotLocallyTrivial) as err:
        local_box(system, thread, 0)
    assert err.value.level == 1


def test_local_box_counts_match_point_fibers():
    # each component holds exactly one preimage of the disk's center
    system = solenoid()
    thread = enumerate_threads(system, 4, EdgePoint("e", F(1, 3)))[0]
    box = local_box(system, thread, 0)
    for level in range(1, 5):
        fiber = enumerate_threads(system, level, EdgePoint("e", F(1, 3)))
        assert box.counts()[level] == len(fiber)


def test_local_box_star_disk_on_cycle_tower():
    from helpers import cycle_branched, cycle_cover_map

    sizes = [1, 2, 4]
    system = InverseSystem.from_lists(
        [cycle_branched(n) for n in sizes],
        [cycle_cover_map(m, n) for n, m in zip(sizes, sizes[1:])],
    )
    thread = enumerate_threads(system, 2, VertexCell("u0"))[0]
    box = local_box(system, thread, 0)
    assert box.counts() == {1: 2, 2: 4}


# -- validation ----------------------------------------------------------------------


def test_bond_surjectivity_enforced():
    from laminate.branched_graph import CellularMap

    g = fixtures.figure_eight()
    partial = CellularMap(
        g, g, {"w": "w"}, {"a": (("a", 1),), "b": (("a", 1),)}
    )
    system = InverseSystem.stationary(partial)
    with pytest.raises(ValueError):
        system.bond(0)


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        is_flattening_system(solenoid(), 0)


def test_concurrent_materialization_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    from laminate.approximants import approximant_system
    from laminate.subshift import LanguageOracle, fibonacci

    system = approximant_system(LanguageOracle.from_substitution(fibonacci()))
    with ThreadPoolExecutor(max_workers=6) as pool:
        graphs = list(pool.map(system.level, [2] * 12))
        bonds = list(pool.map(system.bond, [1] * 12))
    assert all(g is graphs[0] for g in graphs)
    assert all(b is bonds[0] for b in bonds)
