import time
from random import Random

import numpy as np
import pytest

from helpers import (
    cayley_cover,
    coset_cover,
    dihedral,
    random_permutation_cover,
    reference_deck_group,
    reference_deck_transformation,
)
from laminate.coverings import (
    CoveringTower,
    Graph,
    GraphCovering,
    GraphMap,
    cyclic_tower,
)


def rose2() -> Graph:
    return Graph.from_edges(["w"], {"a": ("w", "w"), "b": ("w", "w")})


def cyclic_cover(m: int, n: int) -> GraphCovering:
    idx = np.arange(m)
    return GraphCovering(GraphMap(Graph.cycle(m), Graph.cycle(n), idx % n, idx % n))


def parity_cover_of_rose2() -> GraphCovering:
    """Degree-2 cover classified by the parity of the total a-exponent."""
    verts = [0, 1]
    edges = {("a", i): (i, 1 - i) for i in verts}
    edges.update({("b", i): (i, i) for i in verts})
    total = Graph.from_edges(verts, edges)
    return GraphCovering(
        GraphMap.from_dicts(
            total, rose2(), {i: "w" for i in verts}, {e: e[0] for e in edges}
        )
    )


def klein_four_cover() -> GraphCovering:
    verts = [(i, j) for i in range(2) for j in range(2)]
    edges = {}
    for i, j in verts:
        edges[("a", i, j)] = ((i, j), ((i + 1) % 2, j))
        edges[("b", i, j)] = ((i, j), (i, (j + 1) % 2))
    total = Graph.from_edges(verts, edges)
    return GraphCovering(
        GraphMap.from_dicts(
            total, rose2(), {v: "w" for v in verts}, {e: e[0] for e in edges}
        )
    )


def non_normal_degree3_cover() -> GraphCovering:
    # monodromy a -> (0 1), b -> (1 2): index-3 subgroup, not normal
    sigma_a = {0: 1, 1: 0, 2: 2}
    sigma_b = {0: 0, 1: 2, 2: 1}
    edges = {}
    for i in range(3):
        edges[("a", i)] = (i, sigma_a[i])
        edges[("b", i)] = (i, sigma_b[i])
    total = Graph.from_edges(range(3), edges)
    return GraphCovering(
        GraphMap.from_dicts(
            total, rose2(), {i: "w" for i in range(3)}, {e: e[0] for e in edges}
        )
    )


# -- validation and regular deck groups ---------------------------------------------


def test_cycle_halving_cover_is_valid_regular_degree_two():
    cov = cyclic_cover(4, 2)
    assert cov.validate() == []
    group = cov.deck_group()
    assert group.regular and len(group.fiber) == 2 and group.order() == 2


def test_parity_cover_has_a_regular_deck_group():
    cov = parity_cover_of_rose2()
    assert cov.validate() == []
    group = cov.deck_group()
    assert group.regular and group.order() == 2


def test_non_normal_cover_detected():
    cov = non_normal_degree3_cover()
    assert cov.validate() == []
    group = cov.deck_group()
    assert not group.regular
    assert group.order() < len(group.fiber) == 3


def test_broken_star_reported():
    # two a-edges out of one vertex cannot cover the rose
    edges = {("a", 0): (0, 0), ("a", 1): (0, 1), ("b", 0): (1, 0)}
    total = Graph.from_edges([0, 1], edges)
    base = rose2()
    gmap = GraphMap.from_dicts(
        total, base, {0: "w", 1: "w"}, {e: e[0] for e in edges}
    )
    assert GraphCovering(gmap).validate()


def test_degree_one_covering_is_valid():
    g = Graph.cycle(3)
    ident = GraphCovering(GraphMap(g, g, np.arange(3), np.arange(3)))
    assert ident.validate() == []


def _closure_connected(g: Graph) -> bool:
    reach = {0}
    while True:
        more = {int(g.edst[e]) for e in range(g.ne) if g.esrc[e] in reach}
        more |= {int(g.esrc[e]) for e in range(g.ne) if g.edst[e] in reach}
        if more <= reach:
            return len(reach) == g.nv
        reach |= more


def test_connectivity_and_spanning_tree_match_a_closure():
    rng = Random(5)
    for _ in range(200):
        nv = rng.randint(1, 7)
        edges = {i: (rng.randrange(nv), rng.randrange(nv)) for i in range(rng.randint(0, 8))}
        g = Graph.from_edges(range(nv), edges)
        assert g.is_connected() == _closure_connected(g)
        root = rng.randrange(nv)
        steps = g.spanning_tree(root)
        reached = {root}
        for u, e, sign, w in steps:
            assert u in reached and w not in reached
            ends = (int(g.esrc[e]), int(g.edst[e]))
            assert ends == ((u, w) if sign == 1 else (w, u))
            reached.add(w)
        assert g.is_connected() == (len(reached) == nv)
        # a tree from any root answers connectivity, and each root is walked once
        fresh = Graph.from_edges(range(nv), edges)
        assert fresh.spanning_tree(root) == steps and fresh.spanning_tree(root) is fresh.spanning_tree(root)
        assert fresh.is_connected() == _closure_connected(g) and list(fresh._trees) == [root]


def test_a_deck_question_walks_one_spanning_tree():
    elements, mul = dihedral(6)
    cov = cayley_cover(elements, mul, {"a": (1, 0), "b": (0, 1)})
    group = cov.deck_group()
    # the covering check and the deck propagation share the tree from vertex 0
    assert group.basepoint == 0 and list(cov.total._trees) == [0]
    assert sorted(group.orbit) == list(range(12)) == sorted(reference_deck_group(cov)[1])


# -- deck groups ---------------------------------------------------------------------


def test_cyclic_deck_group_matches_rotation_oracle():
    for d in (2, 3, 6):
        cov = cyclic_cover(d, 1)
        group = cov.deck_group()
        assert group.order() == d
        rotations = {
            tuple(((np.arange(d) + r) % d).tolist()) for r in range(d)
        }
        assert set(map(tuple, group.vperms.tolist())) == rotations


def test_identity_covering_trivial_deck_group():
    g = Graph.cycle(3)
    ident = GraphCovering(GraphMap(g, g, np.arange(3), np.arange(3)))
    assert ident.deck_group().order() == 1


def test_klein_four_deck_group():
    group = klein_four_cover().deck_group()
    assert group.order() == 4
    for vperm in group.vperms:
        assert np.array_equal(vperm[vperm], np.arange(4))
    assert group.regular and sorted(group.orbit) == group.fiber.tolist()


def test_deck_elements_commute_with_projection():
    cov = klein_four_cover()
    total, emap = cov.total, cov.map.emap
    out = {(int(total.esrc[e]), int(emap[e])): e for e in range(total.ne)}
    for vperm in cov.deck_group().vperms:
        assert np.array_equal(cov.map.vmap[vperm], cov.map.vmap)
        # the edge permutation the vertex one fixes: each edge goes to the
        # edge over the same base edge out of its source's image
        eperm = np.array([out[(int(vperm[total.esrc[e]]), int(emap[e]))] for e in range(total.ne)])
        assert sorted(eperm.tolist()) == list(range(total.ne))
        assert np.array_equal(total.edst[eperm], vperm[total.edst])
        assert np.array_equal(emap[eperm], emap)


def _abelian():
    elements = [(i, j) for i in range(4) for j in range(2)]
    return cayley_cover(elements, lambda x, y: ((x[0] + y[0]) % 4, (x[1] + y[1]) % 2),
                        {"a": (1, 0), "b": (0, 1)})


def _dihedral_cayley(n):
    elements, mul = dihedral(n)
    return cayley_cover(elements, mul, {"a": (1, 0), "b": (0, 1)})


def _dihedral_cosets(n, j):
    """D_n on the cosets of <s r^j>: deck order 1 for odd n, 2 for n = 2 * odd."""
    elements, mul = dihedral(n)
    return coset_cover(elements, mul, {(0, 0), mul((0, 1), (j, 0))}, {"a": (1, 0), "b": (0, 1)})


DECK_CASES = {
    "cyclic": lambda: cyclic_cover(12, 1),
    "cyclic-over-a-cycle": lambda: cyclic_cover(12, 4),
    "cyclic-composite": lambda: cyclic_tower([2, 3, 2]).composite_covering(4, 1),
    "identity": lambda: GraphCovering(GraphMap(Graph.cycle(3), Graph.cycle(3), np.arange(3), np.arange(3))),
    "parity": parity_cover_of_rose2,
    "klein-four": klein_four_cover,
    "cayley-abelian": _abelian,
    "cayley-dihedral": lambda: _dihedral_cayley(6),
    "non-normal": non_normal_degree3_cover,
    "cosets-odd": lambda: _dihedral_cosets(5, 2),
    "cosets-twice-odd": lambda: _dihedral_cosets(6, 1),
}


def _assert_matches_reference(cov, base_vi=0):
    group = cov.deck_group(base_vi)
    elements, orbit = reference_deck_group(cov, base_vi)
    assert group.vperms.tolist() == [vperm.tolist() for vperm, _ in elements]
    assert group.orbit == tuple(orbit)
    fiber = len(cov.fiber(base_vi))
    assert (group.regular, len(group.fiber), group.order()) == (len(elements) == fiber, fiber, len(elements))
    return group


@pytest.mark.parametrize("name", DECK_CASES)
def test_batched_deck_group_equals_reference(name):
    cov = DECK_CASES[name]()
    for base_vi in range(cov.base.nv):
        _assert_matches_reference(cov, base_vi)


def test_deck_orders_of_the_named_covers():
    orders = {name: DECK_CASES[name]().deck_group().order() for name in DECK_CASES}
    assert orders == {
        "cyclic": 12, "cyclic-over-a-cycle": 3, "cyclic-composite": 12, "identity": 1,
        "parity": 2, "klein-four": 4, "cayley-abelian": 8, "cayley-dihedral": 12,
        "non-normal": 1, "cosets-odd": 1, "cosets-twice-odd": 2,
    }


def test_batched_deck_group_equals_reference_on_random_covers():
    rng = Random(17)
    orders = set()
    for _ in range(150):
        orders.add(_assert_matches_reference(random_permutation_cover(rng)).order())
    assert {1, 2, 3, 5} <= orders  # trivial and nontrivial groups both occur


def test_candidate_blocks_give_the_same_group(monkeypatch):
    from laminate import coverings

    cov = _dihedral_cayley(6)
    whole = cov.deck_group()
    monkeypatch.setattr(coverings, "_BLOCK", 5 * cov.total.ne)  # blocks of 5 candidates
    assert np.array_equal(GraphCovering(cov.map).deck_group().vperms, whole.vperms)


def test_deck_enumeration_refuses_a_non_covering(monkeypatch):
    rose = Graph.from_edges(["w"], {"a": ("w", "w")})
    total = Graph.from_edges(["0", "1"], {"a0": ("0", "0"), "a1": ("0", "1")})
    cov = GraphCovering(GraphMap.from_dicts(total, rose, {"0": "w", "1": "w"},
                                            {"a0": "a", "a1": "a"}))
    calls, validate = [], GraphCovering.validate
    monkeypatch.setattr(GraphCovering, "validate",
                        lambda self: calls.append(self) or validate(self))
    for _ in range(2):
        with pytest.raises(ValueError, match="not a covering: two out-edges"):
            cov.deck_group()
    with pytest.raises(ValueError, match="not a covering"):
        cov.deck_transformation_from(0, 1)
    assert calls == [cov]  # memoised per covering


def test_one_candidate_call_agrees_with_the_reference():
    cov = non_normal_degree3_cover()
    assert np.array_equal(cov.deck_transformation_from(0, 0), np.arange(3))
    assert cov.deck_transformation_from(0, 1) is None
    cov = cyclic_cover(12, 4)
    assert cov.deck_transformation_from(0, 1) is None  # over another base vertex
    assert np.array_equal(cov.deck_transformation_from(0, 4), reference_deck_transformation(cov, 0, 4)[0])


def test_deck_group_never_walks_one_candidate_at_a_time(monkeypatch, tmp_path, capsys):
    from laminate.cli import main

    def refuse(*args):
        raise AssertionError("deck_transformation_from called")

    monkeypatch.setattr(GraphCovering, "deck_transformation_from", refuse)
    assert klein_four_cover().deck_group().order() == 4
    assert cyclic_tower([2, 3]).deck_group(3).order() == 6
    tower = tmp_path / "tower.json"
    tower.write_text('{"circle_degrees": [2, 3]}')
    assert main(["deck-group", "--tower", str(tower), "--level", "3"]) == 0
    assert capsys.readouterr().out == "level 3: degree 6, deck order 6, regular: True\n"


def test_tower_deck_group_at_degree_1024_is_fast():
    tower = cyclic_tower([2] * 10)
    start = time.perf_counter()
    group = tower.deck_group(11)
    assert time.perf_counter() - start < 2.0
    assert group.regular and group.order() == 1024
    assert group.orbit == tuple(range(1024))


# -- composition ------------------------------------------------------------------------


def test_composite_covering_degree_multiplies():
    # levels built separately: the tower stacks them by value
    tower = CoveringTower([cyclic_cover(2, 1), cyclic_cover(6, 2)])
    composite = tower.composite_covering(3, 1)
    assert composite.degree() == 6
    group = composite.deck_group()
    assert group.regular and group.order() == 6


def test_composite_covering_identity_range():
    tower = CoveringTower([cyclic_cover(2, 1), cyclic_cover(6, 2)])
    same = tower.composite_covering(2, 2)
    assert same.degree() == 1
    assert same.total == Graph.cycle(2)


def test_dyadic_tower_composite_degrees():
    tower = cyclic_tower([2] * 6)
    for k in range(1, 7):
        assert tower.composite_covering(k, 1).degree() == 2 ** (k - 1)


# -- monodromy ----------------------------------------------------------------------------


def test_trivial_loop_monodromy():
    cov = cyclic_cover(4, 1)
    assert np.array_equal(cov.monodromy(()), np.arange(4))


def test_cyclic_generator_monodromy_is_a_cycle():
    cov = cyclic_cover(5, 1)
    perm = cov.monodromy(((0, 1),))
    assert np.array_equal(perm, (np.arange(5) + 1) % 5)


def test_homotopic_words_share_monodromy():
    cov = parity_cover_of_rose2()
    direct = cov.monodromy((("a", 1),))
    detour = cov.monodromy((("b", 1), ("b", -1), ("a", 1)))
    assert np.array_equal(direct, detour)


def test_non_closed_loop_rejected():
    # on C_2 the single edge 0 is not a loop at the base point
    cov = cyclic_cover(4, 2)
    with pytest.raises(ValueError):
        cov.monodromy(((0, 1),))


# -- towers --------------------------------------------------------------------------------


def test_tower_base_thread_is_coherent():
    tower = cyclic_tower([2, 3, 2])
    for k in range(2, tower.depth + 1):
        x_here = tower.base_point(k)
        pushed = int(tower.covering(k).map.vmap[x_here])
        assert pushed == tower.base_point(k - 1)


def test_tower_rotation_witness_and_enumeration_agree():
    tower = cyclic_tower([2, 2, 3])
    for k in range(2, 5):
        assert tower.verify_rotation_witness(k)
        assert tower.deck_group(k).regular


def test_tower_levels_outside_the_tower_rejected():
    tower = cyclic_tower([2, 2, 2])
    for k, k0 in ((0, 1), (-1, 1), (5, 1), (2, 0), (2, 3)):
        with pytest.raises(ValueError):
            tower.composite_map(k, k0)
        with pytest.raises(ValueError):
            tower.composite_covering(k, k0)
    for k in (0, -1, 5):
        with pytest.raises(ValueError):
            tower.base_point(k)
    assert tower.composite_covering(4, 1).degree() == 8


def test_tower_stacking_validated():
    with pytest.raises(ValueError):
        CoveringTower([cyclic_cover(2, 1), cyclic_cover(4, 3)])


def test_generator_monodromies_rotate():
    tower = cyclic_tower([3, 2])
    perms = tower.generator_monodromies(3)
    assert np.array_equal(perms[0], (np.arange(6) + 1) % 6)


# -- one object per level -------------------------------------------------------------------


def test_cyclic_tower_builds_one_graph_per_level(monkeypatch):
    built = []
    original = Graph.cycle.__func__

    def counting(cls, n):
        built.append(n)
        return original(cls, n)

    monkeypatch.setattr(Graph, "cycle", classmethod(counting))
    tower = cyclic_tower([2] * 6)
    assert built == []  # construction builds no level
    for k in range(3, tower.depth + 1):
        assert tower.covering(k).base is tower.covering(k - 1).total
        assert tower.graph(k) is tower.covering(k).total
    assert tower.graph(1) is tower.base is tower.covering(2).base
    assert sorted(built) == [2 ** i for i in range(7)]  # each level built once


def test_a_deep_level_read_first_builds_the_levels_below_in_a_loop():
    # 400 levels of degree 1: building them by recursion would pass Python's frame limit
    tower = cyclic_tower([1] * 399)
    assert tower.graph(400).nv == 1
    assert tower.covering(400).base is tower.graph(399)
    assert cyclic_tower([1] * 399).verify_rotation_witness(400)


def test_tower_graph_and_covering_bounds():
    tower = cyclic_tower([2, 2, 2])
    for k in (0, -1, 5):
        with pytest.raises(ValueError):
            tower.graph(k)
    for k in (1, 0, -1, 5):
        with pytest.raises(ValueError):
            tower.covering(k)
    assert [tower.graph(k).nv for k in range(1, 5)] == [1, 2, 4, 8]
    assert [tower.covering(k).degree() for k in range(2, 5)] == [2, 2, 2]


def test_composites_chain_one_bond_onto_the_level_below(monkeypatch):
    composed = []
    original = GraphMap.compose

    def counting(self, inner):
        composed.append(inner)
        return original(self, inner)

    monkeypatch.setattr(GraphMap, "compose", counting)
    tower = cyclic_tower([2, 3, 2, 2, 3])
    top = tower.composite_map(6, 1)
    assert len(composed) == 4  # levels 3..6, each onto the composite below
    assert tower.composite_map(2, 1) is tower.covering(2).map
    for k in range(3, 7):
        assert composed[k - 3] is tower.covering(k).map
        below = tower.composite_map(k - 1, 1)
        expected = below.vmap[tower.covering(k).map.vmap]
        assert np.array_equal(tower.composite_map(k, 1).vmap, expected)
    assert len(composed) == 4
    assert np.array_equal(top.vmap, np.zeros(72, dtype=np.int64))
    tower.composite_map(5, 2)
    assert len(composed) == 6


def test_fibers_are_computed_once_per_level():
    tower = cyclic_tower([2, 3])
    assert tower.fiber(3) is tower.fiber(3)
    assert tower.fiber_position(3) is tower.fiber_position(3)
    assert np.array_equal(tower.fiber_position(3), np.arange(6))
    with pytest.raises(ValueError):
        tower.fiber(3)[0] = 5  # shared arrays are read-only


def test_lift_walks_every_start_at_once():
    cov = cyclic_cover(6, 2)
    ends = cov.lift(np.array([0, 2, 4]), ((0, 1), (1, 1), (0, 1)))
    assert np.array_equal(ends, [3, 5, 1])
    assert np.array_equal(cov.lift([4], ((1, -1),)), [3])
    assert np.array_equal(cov.lift([5], ()), [5])
    with pytest.raises(ValueError):
        cov.lift([1], ((0, 1),))  # vertex 1 does not lie over the path's start
