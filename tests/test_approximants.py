import dataclasses
from random import Random

import numpy as np
import pytest

from laminate.approximants import (
    approximant_system,
    bonding_map,
    build_approximant,
    pattern_clopen,
    quotient_cell,
    separation_depth,
)
from laminate.branched_graph import Graph, is_flattening, validate_map
from laminate.inverse_system import Flattening, is_flattening_system
from laminate.subshift import LanguageOracle, fibonacci, thue_morse
from laminate.transversal import is_subset

from helpers import reference_approximant, reference_drop_one_letter


@pytest.fixture(scope="module")
def fib():
    return LanguageOracle.from_substitution(fibonacci())


@pytest.fixture(scope="module")
def full2():
    return LanguageOracle.full_shift(["0", "1"])


def test_fibonacci_k0_is_figure_eight(fib):
    c = build_approximant(fib, 0)
    assert c.graph.vertices == frozenset({""})
    assert set(c.graph.edges) == {"a", "b"}
    assert c.graph.is_branch_point("")


def test_fibonacci_k1_cells(fib):
    c = build_approximant(fib, 1)
    assert fib.words(2 * c.k) == frozenset({"aa", "ab", "ba"})
    assert fib.words(2 * c.k + 1) == frozenset({"aab", "aba", "baa", "bab"})
    g = c.graph  # its labels pass the validating constructor
    assert Graph.from_edges(g.vertices, g.edges, g.sides) == g


def test_full_shift_de_bruijn_counts(full2):
    for k in range(3):
        c = build_approximant(full2, k)
        assert len(c.graph.vertices) == 2 ** (2 * k)
        assert len(c.graph.edges) == 2 ** (2 * k + 1)


def test_cell_counts_match_oracle(fib):
    for k in range(4):
        c = build_approximant(fib, k)
        assert len(c.graph.vertices) == len(fib.words(2 * k))
        assert len(c.graph.edges) == len(fib.words(2 * k + 1))


def test_edges_run_prefix_to_suffix(fib):
    c = build_approximant(fib, 1)
    assert c.graph.edges["aab"] == ("aa", "ab")
    assert c.graph.edges["bab"] == ("ba", "ab")


def test_bonding_map_full_shift_k0(full2):
    f = bonding_map(full2, 0)
    for xyz in f.domain.edges:
        assert f.edge_map[xyz] == ((xyz[1], 1),)


def test_bonding_map_fibonacci_k0(fib):
    f = bonding_map(fib, 0)
    assert f.edge_map["aab"] == (("a", 1),)
    assert f.vertex_map["ab"] == ""


def test_bonding_maps_are_flattening(fib, full2):
    tm = LanguageOracle.from_substitution(thue_morse())
    for oracle in (fib, full2, tm):
        for k in range(4):
            assert is_flattening(bonding_map(oracle, k))


def test_bonding_maps_are_onto(fib):
    system = approximant_system(fib)
    for k in range(3):
        system.bond(k)  # materialization enforces surjectivity


def test_fibonacci_tower_verdict(fib):
    verdict = is_flattening_system(approximant_system(fib), 3)
    assert verdict == Flattening((0, 1, 2, 3))


def test_pattern_clopen_single_letter(fib):
    s = pattern_clopen(fib, "a", 0)
    assert not s.is_empty()
    assert {str(c) for c in s.cylinders()} == {"a@0"}


def test_pattern_clopen_bab(fib):
    assert not pattern_clopen(fib, "bab", 1).is_empty()


def test_pattern_clopen_rejects_illegal_word(fib):
    with pytest.raises(ValueError):
        pattern_clopen(fib, "abb", 0)


def test_pattern_nesting(fib):
    # the radius-(k+1) window of a point pins down a subset of its
    # radius-k window's cylinder
    rng = Random(5)
    words = sorted(fib.words(9))
    for _ in range(40):
        w = rng.choice(words)
        for k in range(4):
            wider = pattern_clopen(fib, w[4 - (k + 1) : 5 + (k + 1)], k + 1)
            narrower = pattern_clopen(fib, w[4 - k : 5 + k], k)
            assert is_subset(wider, narrower)


def test_quotient_cell_k0_is_marked_letter(fib):
    assert quotient_cell(fib, 0, "aabab", 3) == "a"


def test_quotient_cell_radius_one(fib):
    assert quotient_cell(fib, 1, "aabab", 2) == "aba"


def test_quotient_cell_window_overflow(fib):
    with pytest.raises(ValueError):
        quotient_cell(fib, 2, "aba", 1)


def test_naturality_square(fib):
    # bonding_map(k) sends the radius-(k+1) cell to the radius-k cell
    rng = Random(9)
    words = sorted(fib.words(11))
    for _ in range(100):
        w = rng.choice(words)
        mark = 5
        for k in range(2):
            upper = quotient_cell(fib, k + 1, w, mark)
            lower = quotient_cell(fib, k, w, mark)
            f = bonding_map(fib, k)
            assert f.edge_map[upper] == ((lower, 1),)


def test_separation_equal_points_undistinguished(fib):
    assert separation_depth(fib, "aabab", 2, "aabab", 2, 2) is None


def test_separation_differing_mark_letter(fib):
    assert separation_depth(fib, "aab", 1, "aba", 1, 1) == 0


def test_separation_at_distance(fib):
    # same center, first difference two tiles to the right
    assert separation_depth(fib, "aabab", 2, "aabaa", 2, 2) == 2
    words7 = sorted(fib.words(7))
    rng = Random(21)
    for _ in range(50):
        x = rng.choice(words7)
        y = rng.choice(words7)
        d = next((i for i in range(4) if x[3 - i] != y[3 - i] or x[3 + i] != y[3 + i]), None)
        assert separation_depth(fib, x, 3, y, 3, 3) == d


def test_separation_window_precondition(fib):
    with pytest.raises(ValueError):
        separation_depth(fib, "aba", 1, "aab", 1, 2)


def test_system_bond_joins_the_system_levels(fib, monkeypatch):
    import laminate.approximants as approximants

    built = []
    original = approximants.build_approximant

    def counting(oracle, k):
        built.append(k)
        return original(oracle, k)

    monkeypatch.setattr(approximants, "build_approximant", counting)
    system = approximant_system(fib)
    bond = system.bond(2)
    assert sorted(built) == [2, 3]
    assert bond.domain is system.level(3) and bond.codomain is system.level(2)
    system.bond(1)
    assert sorted(built) == [1, 2, 3]
    built.clear()
    alone = bonding_map(fib, 2)
    assert sorted(built) == [2, 3]
    assert alone.vertex_map == bond.vertex_map and alone.edge_map == bond.edge_map


SHIFTS = {
    "full": lambda: LanguageOracle.full_shift(["0", "1"]),
    "golden": lambda: LanguageOracle.from_forbidden(["a", "b"], ["bb"]),
    "fibonacci": lambda: LanguageOracle.from_substitution(fibonacci()),
    "thue-morse": lambda: LanguageOracle.from_substitution(thue_morse()),
    "sft3": lambda: LanguageOracle.from_forbidden(["z", "y", "x"], ["xz", "zzy"]),
}


@pytest.mark.parametrize("name", sorted(SHIFTS))
def test_levels_and_bonds_equal_the_string_reference(name):
    oracle = SHIFTS[name]()
    for k in range(5):
        level = build_approximant(oracle, k).graph
        reference = reference_approximant(oracle, k)
        assert level == reference  # built by the validating constructor
        assert len(build_approximant(oracle, k).edges) == len(reference.edges)
    system = approximant_system(oracle)
    for k in range(4):
        bond = bonding_map(oracle, k)
        reference = reference_drop_one_letter(reference_approximant(oracle, k + 1),
                                              reference_approximant(oracle, k))
        assert bond.domain == reference.domain and bond.codomain == reference.codomain
        assert bond.vertex_map == reference.vertex_map
        assert bond.edge_map == reference.edge_map
        assert validate_map(bond) == []
        assert system.bond(k).edge_map == reference.edge_map


def test_long_fibonacci_bonds(fib):
    for k in (30, 40):
        bond = approximant_system(fib).bond(k)
        assert len(bond.domain.edges) == 2 * k + 4 and len(bond.codomain.edges) == 2 * k + 2
        reference = reference_drop_one_letter(reference_approximant(fib, k + 1),
                                              reference_approximant(fib, k))
        assert bond.vertex_map == reference.vertex_map
        assert bond.edge_map == reference.edge_map


def test_system_bonds_do_not_run_validate_map(monkeypatch):
    import laminate.branched_graph as branched_graph

    def refuse(f):
        raise AssertionError("validate_map ran")

    monkeypatch.setattr(branched_graph, "validate_map", refuse)
    for name in sorted(SHIFTS):
        system = approximant_system(SHIFTS[name]())
        for k in range(4):
            assert system.bond(k).domain is system.level(k + 1)
    with pytest.raises(AssertionError, match="validate_map ran"):
        reference_drop_one_letter(reference_approximant(SHIFTS["full"](), 1),
                                  reference_approximant(SHIFTS["full"](), 0))


def test_bond_checks_run_on_the_arrays():
    from laminate.approximants import _drop_one_letter

    full, golden = SHIFTS["full"](), LanguageOracle.from_forbidden(["0", "1"], ["11"])
    with pytest.raises(ValueError, match="not legal"):
        _drop_one_letter(build_approximant(full, 2), build_approximant(golden, 1))
    with pytest.raises(ValueError, match="not onto"):
        _drop_one_letter(build_approximant(golden, 2), build_approximant(full, 1))
    lower = build_approximant(full, 1)
    other = _drop_one_letter(build_approximant(SHIFTS["full"](), 2), lower)
    assert other.vertex_map == bonding_map(full, 1).vertex_map
    scrambled = dataclasses.replace(lower, dst=np.roll(lower.dst, 1))
    with pytest.raises(ValueError, match="do not join"):
        _drop_one_letter(build_approximant(full, 2), scrambled)


def test_approximant_counts_do_not_build_graphs(full2):
    c = build_approximant(full2, 3)
    assert (len(c.vertices), len(c.edges)) == (64, 128)
    assert "graph" not in vars(c)
    assert c.graph is c.graph and "graph" in vars(c)


def test_full_shift_bond_allocates_no_labels():
    # the levels and the bond are index arrays: a bond at k = 7 leaves a few
    # dozen tracked objects alive, not one per cell (about 246,000 when they held labels)
    import gc

    gc.collect()
    before = len(gc.get_objects())
    bond = approximant_system(LanguageOracle.full_shift(["0", "1"])).bond(7)
    gc.collect()
    assert len(gc.get_objects()) - before < 1000
    assert (bond.domain.ne, bond.codomain.ne) == (2 ** 17, 2 ** 15)


def test_maps_join_only_graphs_indexed_alike():
    from laminate.branched_graph import CellularMap, compose, compose_germs, identity_map
    from laminate.inverse_system import InverseSystem

    oracle = SHIFTS["sft3"]()  # alphabet z, y, x: rank order is not repr order
    bond, reference = bonding_map(oracle, 1), reference_approximant(oracle, 2)
    level = bond.domain
    assert level == reference and not level.indexed_alike(reference)
    assert level.indexed_alike(build_approximant(oracle, 2).graph)
    same_cells = ({v: v for v in level.vertex_ids}, {e: ((e, 1),) for e in level.edge_ids})
    into_level, onto_reference = CellularMap(reference, level, *same_cells), identity_map(reference)
    expected = reference_drop_one_letter(reference, reference_approximant(oracle, 1))
    assert compose(bond, into_level).edge_map == expected.edge_map
    for join in (lambda: compose(bond, onto_reference),
                 lambda: compose_germs(bond.germs, onto_reference.germs)):
        with pytest.raises(ValueError, match="indexed alike"):
            join()
    with pytest.raises(ValueError, match="does not join"):
        InverseSystem.from_lists([bond.codomain, reference], [bond]).bond(0)
    with pytest.raises(ValueError, match="self-map"):
        InverseSystem.stationary(CellularMap(level, reference, *same_cells))


def test_full_shift_separation_builds_no_language_above_one_letter():
    oracle = LanguageOracle.full_shift(["0", "1"])
    x, y = "0110100110010110", "0110100110010111"
    assert separation_depth(oracle, x, 7, y, 7, 7) is None
    assert separation_depth(oracle, x, 8, y, 8, 7) == 7
    # each window of length up to 15 is tested letter by letter against the
    # one-letter language, the steps of the full shift's block graph
    assert max(oracle._rows) == 1 and max(oracle._words) == 1


def test_substitution_approximants_compute_one_language(tmp_path, monkeypatch, capsys):
    import json

    from laminate.cli import main

    calls = []
    original = LanguageOracle._substitution_words
    monkeypatch.setattr(LanguageOracle, "_substitution_words",
                        lambda self, length: calls.append(length) or original(self, length))
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}}))
    assert main(["approximants", "--input", str(path), "--k", "20"]) == 0
    assert calls == [41]
    assert capsys.readouterr().out.splitlines() == [
        f"k={k}: {2 * k + 1} vertices, {2 * k + 2} edges" for k in range(21)]


def test_a_legal_separation_tests_the_widest_windows_only(monkeypatch):
    # two legal windows of length 21 that differ only in their end letters
    words = LanguageOracle.from_substitution(fibonacci()).sorted_words(21)
    x, y = next((u, v) for u in words for v in words if u < v and u[1:-1] == v[1:-1])
    calls = {"is_legal": 0, "_decode": 0}
    for name in calls:
        original = getattr(LanguageOracle, name)
        monkeypatch.setattr(LanguageOracle, name, lambda self, arg, name=name, original=original:
                            calls.__setitem__(name, calls[name] + 1) or original(self, arg))
    depth = separation_depth(LanguageOracle.from_substitution(fibonacci()), x, 10, y, 10, 10)
    # both windows of length 21 are legal, so every narrower one is, and the
    # language they are looked up in comes from the strings, not decoded rows
    assert calls == {"is_legal": 2, "_decode": 0}
    assert depth == 10


def test_a_full_shift_bond_searches_once(monkeypatch):
    import laminate.approximants as approximants
    from laminate.subshift import word_ranks

    calls = []
    monkeypatch.setattr(approximants, "word_ranks", lambda *rows: calls.append(1) or word_ranks(*rows))
    approximant_system(LanguageOracle.full_shift(["0", "1"])).bond(4)
    assert len(calls) == 5  # edge ends at levels 4 and 5, and vertex prefixes for the bond
