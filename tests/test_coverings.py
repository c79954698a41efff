import json
import time
import tracemalloc
from random import Random

import numpy as np
import pytest

from helpers import (
    cayley_cover,
    cayley_tower_json,
    coset_cover,
    dihedral,
    random_graph_map,
    random_permutation_cover,
    random_tower_json,
    reference_components,
    reference_covering_problem,
    reference_deck_group,
    reference_deck_transformation,
)
from laminate.branched_graph import CellularMap, Graph, compose, validate_map
from laminate.coverings import (
    CoveringTower,
    CyclicTower,
    GraphCovering,
    cyclic_tower,
)
from laminate.formats import tower_from_json


def rose2() -> Graph:
    return Graph.from_edges(["w"], {"a": ("w", "w"), "b": ("w", "w")})


def cyclic_cover(m: int, n: int) -> GraphCovering:
    idx = np.arange(m)
    return GraphCovering(Graph.cycle(m), Graph.cycle(n), idx % n, idx % n)


def parity_cover_of_rose2() -> GraphCovering:
    """Degree-2 cover classified by the parity of the total a-exponent."""
    verts = [0, 1]
    edges = {("a", i): (i, 1 - i) for i in verts}
    edges.update({("b", i): (i, i) for i in verts})
    total = Graph.from_edges(verts, edges)
    return GraphCovering.from_dicts(total, rose2(), {i: "w" for i in verts}, {e: e[0] for e in edges})


def klein_four_cover() -> GraphCovering:
    verts = [(i, j) for i in range(2) for j in range(2)]
    edges = {}
    for i, j in verts:
        edges[("a", i, j)] = ((i, j), ((i + 1) % 2, j))
        edges[("b", i, j)] = ((i, j), (i, (j + 1) % 2))
    total = Graph.from_edges(verts, edges)
    return GraphCovering.from_dicts(total, rose2(), {v: "w" for v in verts}, {e: e[0] for e in edges})


def non_normal_degree3_cover() -> GraphCovering:
    # monodromy a -> (0 1), b -> (1 2): index-3 subgroup, not normal
    sigma_a = {0: 1, 1: 0, 2: 2}
    sigma_b = {0: 0, 1: 2, 2: 1}
    edges = {}
    for i in range(3):
        edges[("a", i)] = (i, sigma_a[i])
        edges[("b", i)] = (i, sigma_b[i])
    total = Graph.from_edges(range(3), edges)
    return GraphCovering.from_dicts(total, rose2(), {i: "w" for i in range(3)}, {e: e[0] for e in edges})


# -- validation and regular deck groups ---------------------------------------------


def test_cycle_halving_cover_is_valid_regular_degree_two():
    cov = cyclic_cover(4, 2)
    assert cov.domain.is_connected
    group = cov.deck_group()
    assert group.regular and len(group.fiber) == 2 and group.order() == 2


def test_parity_cover_has_a_regular_deck_group():
    cov = parity_cover_of_rose2()
    assert cov.domain.is_connected
    group = cov.deck_group()
    assert group.regular and group.order() == 2


def test_non_normal_cover_detected():
    cov = non_normal_degree3_cover()
    assert cov.domain.is_connected
    group = cov.deck_group()
    assert not group.regular
    assert group.order() < len(group.fiber) == 3


def test_broken_star_reported():
    # two a-edges out of one vertex cannot cover the rose
    edges = {("a", 0): (0, 0), ("a", 1): (0, 1), ("b", 0): (1, 0)}
    total = Graph.from_edges([0, 1], edges)
    with pytest.raises(ValueError, match="^not a covering: two out-edges at one vertex share a base edge$"):
        GraphCovering.from_dicts(total, rose2(), {0: "w", 1: "w"}, {e: e[0] for e in edges})


def test_degree_one_covering_is_valid():
    g = Graph.cycle(3)
    ident = GraphCovering(g, g, np.arange(3), np.arange(3))
    assert ident.degree() == 1 and ident.domain.is_connected


def test_a_covering_is_made_exactly_when_the_local_axioms_hold():
    rng = Random(19)
    outcomes = {}
    for _ in range(2000):
        total, base, vertex_map, edge_map = random_graph_map(rng)
        problem = reference_covering_problem(total, base, vertex_map, edge_map)
        graphs = Graph.from_edges(*total), Graph.from_edges(*base)
        if problem is not None:
            with pytest.raises(ValueError) as refused:
                GraphCovering.from_dicts(*graphs, vertex_map, edge_map)
            assert str(refused.value) == f"not a covering: {problem}"
            outcomes[problem] = outcomes.get(problem, 0) + 1
            continue
        cov = GraphCovering.from_dicts(*graphs, vertex_map, edge_map)
        connected = reference_components(*total) == 1
        outcomes[connected] = outcomes.get(connected, 0) + 1
        tower = CoveringTower([cov])
        if connected:
            assert cov.deck_group().order() == len(reference_deck_group(cov)[0])
            assert tower.loop_endpoint((), 2) == tower.base_point(2)
            continue
        for ask in (cov.deck_group, lambda: tower.loop_endpoint((), 2)):
            with pytest.raises(ValueError, match="^not a covering: total graph is not connected$"):
                ask()
    assert len(outcomes) == 7 and min(outcomes.values()) >= 40, outcomes


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
        assert g.is_connected == _closure_connected(g)
        root = rng.randrange(nv)
        steps = g.spanning_tree(root)
        reached = {root}
        for u, e, sign, w in steps:
            assert u in reached and w not in reached
            ends = (int(g.esrc[e]), int(g.edst[e]))
            assert ends == ((u, w) if sign == 1 else (w, u))
            reached.add(w)
        assert g.is_connected == (len(reached) == nv)
        # a fresh graph walks the same tree and answers connectivity alike
        fresh = Graph.from_edges(range(nv), edges)
        assert fresh.spanning_tree(root) == steps
        assert fresh.is_connected == _closure_connected(g)


def _count_tree_walks(monkeypatch) -> list:
    """The roots of every spanning tree walked from now on, in call order."""
    roots, walk = [], Graph.spanning_tree
    monkeypatch.setattr(Graph, "spanning_tree", lambda g, root: roots.append(root) or walk(g, root))
    return roots


def test_a_deck_question_walks_one_spanning_tree(monkeypatch):
    elements, mul = dihedral(6)
    cov = cayley_cover(elements, mul, {"a": (1, 0), "b": (0, 1)})
    roots = _count_tree_walks(monkeypatch)
    group = cov.deck_group()
    # the connectivity check and the deck propagation share the tree from vertex 0
    assert group.basepoint == 0 and roots == [0]
    assert sorted(group.orbit) == list(range(12)) == sorted(reference_deck_group(cov)[1])



def test_a_loop_question_walks_one_spanning_tree(monkeypatch, tmp_path, capsys):
    from laminate.cli import main

    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps(cayley_tower_json([(2, 2), (4, 4)])))
    roots = _count_tree_walks(monkeypatch)
    # both loop-word points lift through the one 16-vertex top graph, whose
    # connectivity is decided once
    assert main(["metric", "--tower", str(tower), "--x=a", "--y=b", "--depth", "3"]) == 0
    assert roots == [0]
    assert main(["rep", "--tower", str(tower), "--loop", "a -b", "--depth", "3"]) == 0
    assert roots == [0, 0]
    capsys.readouterr()

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
    ident = GraphCovering(g, g, np.arange(3), np.arange(3))
    assert ident.deck_group().order() == 1


def test_klein_four_deck_group():
    group = klein_four_cover().deck_group()
    assert group.order() == 4
    for vperm in group.vperms:
        assert np.array_equal(vperm[vperm], np.arange(4))
    assert group.regular and sorted(group.orbit) == group.fiber.tolist()


def test_deck_elements_commute_with_projection():
    cov = klein_four_cover()
    total, emap = cov.domain, cov.emap
    out = {(int(total.esrc[e]), int(emap[e])): e for e in range(total.ne)}
    for vperm in cov.deck_group().vperms:
        assert np.array_equal(cov.vmap[vperm], cov.vmap)
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
    "cyclic-composite": lambda: cyclic_tower([2, 3, 2]).composite_map(4),
    "identity": lambda: CoveringTower([cyclic_cover(6, 3)]).composite_map(1),
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
    for base_vi in range(cov.codomain.nv):
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
    monkeypatch.setattr(coverings, "_BLOCK", 5 * cov.domain.nv)  # blocks of 5 candidates
    fresh = GraphCovering(cov.domain, cov.codomain, cov.vmap, cov.emap)
    assert np.array_equal(fresh.deck_group().vperms, whole.vperms)


def test_deck_kernel_equals_the_reference_on_random_multi_vertex_bases(monkeypatch):
    from laminate import coverings

    rng = Random(23)
    covers = []
    while len(covers) < 60:
        total, base, vertex_map, edge_map = random_graph_map(rng)
        if (base[0] == ["w"] or reference_covering_problem(total, base, vertex_map, edge_map) is not None
                or reference_components(*total) != 1):
            continue  # a rose base, not a covering, or not connected
        covers.append(GraphCovering.from_dicts(Graph.from_edges(*total), Graph.from_edges(*base),
                                               vertex_map, edge_map))
    kinds = set()
    for cov in covers:
        for candidates in (1, 2, 5):
            monkeypatch.setattr(coverings, "_BLOCK", candidates * cov.domain.nv)
            for base_vi in range(cov.codomain.nv):
                group = _assert_matches_reference(cov, base_vi)
                kinds.add((group.order(), group.regular))
                t0 = int(cov.fiber(base_vi)[0])
                for c in cov.fiber(base_vi).tolist():
                    found, expected = cov.deck_transformation_from(t0, c), reference_deck_transformation(cov, t0, c)
                    assert (found is None) == (expected is None)
                    assert found is None or np.array_equal(found, expected[0])
    # trivial, regular and non-regular groups all occur, at every degree
    assert {(1, True), (2, True), (3, True), (1, False)} <= kinds, kinds


def test_deck_enumeration_peak_memory_stays_near_its_answer():
    """Holds the memory claim of the deck kernel: at degree 256 the
    tracemalloc peak of ``deck_group()`` stays below three times the bytes
    of the vertex permutations it returns, as only the int32 image matrix,
    one base edge's lift check and a boolean bijectivity matrix are live
    beside them."""
    cov = _dihedral_cayley(128)
    tracemalloc.start()
    try:
        group = cov.deck_group()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.regular and group.order() == 256
    assert peak < 3 * group.vperms.nbytes, peak / group.vperms.nbytes


def test_deck_enumeration_refuses_a_non_covering(monkeypatch):
    rose = Graph.from_edges(["w"], {"a": ("w", "w")})
    total = Graph.from_edges(["0", "1"], {"a0": ("0", "0"), "a1": ("0", "1")})
    with pytest.raises(ValueError, match="^not a covering: two out-edges"):
        GraphCovering.from_dicts(total, rose, {"0": "w", "1": "w"}, {"a0": "a", "a1": "a"})
    # two loops over the petal: a covering at every star, but not connected
    total = Graph.from_edges(["0", "1"], {"a0": ("0", "0"), "a1": ("1", "1")})
    cov = GraphCovering.from_dicts(total, rose, {"0": "w", "1": "w"}, {"a0": "a", "a1": "a"})
    roots = _count_tree_walks(monkeypatch)
    for _ in range(2):
        with pytest.raises(ValueError, match="^not a covering: total graph is not connected$"):
            cov.deck_group()
    with pytest.raises(ValueError, match="^not a covering: total graph is not connected$"):
        cov.deck_transformation_from(0, 1)
    assert roots == [0, 0, 0]  # each refusal reads the one tree its deck question walks


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
    # levels built separately: the tower stacks them, being indexed alike
    tower = CoveringTower([cyclic_cover(2, 1), cyclic_cover(6, 2)])
    composite = tower.composite_map(3)
    assert composite.degree() == 6
    group = composite.deck_group()
    assert group.regular and group.order() == 6


def test_composite_covering_identity_range():
    tower = CoveringTower([cyclic_cover(2, 1), cyclic_cover(6, 2)])
    same = tower.composite_map(1)
    assert same.degree() == 1
    assert same.domain is same.codomain is tower.base
    assert np.array_equal(same.vmap, [0]) and np.array_equal(same.emap, [0])


def test_dyadic_tower_composite_degrees():
    tower = cyclic_tower([2] * 6)
    for k in range(1, 7):
        assert tower.composite_map(k).degree() == 2 ** (k - 1)


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
        pushed = int(tower.covering(k).vmap[x_here])
        assert pushed == tower.base_point(k - 1)


def test_tower_rotation_witness_and_enumeration_agree():
    tower = cyclic_tower([2, 2, 3])
    for k in range(2, 5):
        assert tower.verify_rotation_witness(k)
        assert tower.deck_group(k).regular


def test_tower_levels_outside_the_tower_rejected():
    tower = cyclic_tower([2, 2, 2])
    for k in (0, -1, 5):
        with pytest.raises(ValueError):
            tower.composite_map(k)
        with pytest.raises(ValueError):
            tower.base_point(k)
    assert tower.composite_map(4).degree() == 8


def test_tower_refuses_an_unknown_base_vertex():
    with pytest.raises(ValueError, match="^unknown base vertex 'nope'$"):
        CoveringTower([parity_cover_of_rose2()], base_vertex="nope")
    tower = CoveringTower([cyclic_cover(4, 2)], base_vertex=1)
    assert tower.base_point(1) == 1 and tower.base_point(2) == 1


def test_tower_stacking_validated():
    with pytest.raises(ValueError):
        CoveringTower([cyclic_cover(2, 1), cyclic_cover(4, 3)])


def test_tower_stacking_is_checked_on_indices_not_labels():
    # equal by labels, indexed differently: repr order puts 10 and 11 before 2
    below = cyclic_cover(12, 1)
    relabelled = Graph.from_edges(range(12), {i: (i, (i + 1) % 12) for i in range(12)})
    assert relabelled == below.domain and not relabelled.indexed_alike(below.domain)
    with pytest.raises(ValueError, match="consecutive coverings do not stack"):
        CoveringTower([below, GraphCovering(relabelled, relabelled, np.arange(12), np.arange(12))])
    assert CoveringTower([below, cyclic_cover(12, 12)]).depth == 3


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
        assert tower.covering(k).codomain is tower.covering(k - 1).domain
        assert tower.graph(k) is tower.covering(k).domain
    assert tower.graph(1) is tower.base is tower.covering(2).codomain
    assert sorted(built) == [2 ** i for i in range(7)]  # each level built once


def test_a_deep_level_read_first_builds_the_levels_below_in_a_loop():
    # 400 levels of degree 1: building them by recursion would pass Python's frame limit
    tower = cyclic_tower([1] * 399)
    assert tower.graph(400).nv == 1
    assert tower.covering(400).codomain is tower.graph(399)
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
    original = GraphCovering.compose

    def counting(self, inner):
        composed.append(inner)
        return original(self, inner)

    monkeypatch.setattr(GraphCovering, "compose", counting)
    tower = cyclic_tower([2, 3, 2, 2, 3])
    top = tower.composite_map(6)
    assert len(composed) == 4  # levels 3..6, each onto the composite below
    assert tower.composite_map(2) is tower.covering(2)
    for k in range(3, 7):
        assert composed[k - 3] is tower.covering(k)
        below = tower.composite_map(k - 1)
        expected = below.vmap[tower.covering(k).vmap]
        assert np.array_equal(tower.composite_map(k).vmap, expected)
    assert len(composed) == 4
    assert np.array_equal(top.vmap, np.zeros(72, dtype=np.int64))
    assert tower.composite_map(1).degree() == 1 and len(composed) == 4


def test_coverings_and_composites_are_cellular_maps_composed_edgewise():
    # the edgewise gather of GraphCovering.compose is the general path
    # composition on maps whose every edge goes forward onto one edge
    files = [cayley_tower_json([(2, 1), (2, 2), (4, 2), (4, 4)]),
             *(random_tower_json(Random(seed), 4, integers=seed % 2 == 1) for seed in range(40))]
    pairs = 0
    for tower in [cyclic_tower([2, 3, 2, 2]), *map(tower_from_json, files)]:
        assert validate_map(tower.composite_map(1)) == []
        for k in range(2, tower.depth + 1):
            bond = tower.covering(k)
            for outer in [tower.composite_map(k - 1), *([tower.covering(k - 1)] if k > 2 else [])]:
                edgewise, general = outer.compose(bond), compose(outer, bond)
                assert isinstance(edgewise, GraphCovering) and validate_map(edgewise) == []
                for name in ("vmap", "offsets", "steps"):
                    assert np.array_equal(getattr(edgewise, name), getattr(general, name)), name
                pairs += 1
            assert isinstance(bond, CellularMap) and validate_map(bond) == []
            assert validate_map(tower.composite_map(k)) == []
    assert pairs > 200


CLOSED_FORMS = ("base_point", "fiber", "fiber_position", "thread", "loop_endpoint", "deck_power")


@pytest.mark.parametrize("degrees", [[2, 3, 2], [3, 1, 2, 2], [5, 2], [1], []], ids=str)
def test_cyclic_tower_closed_forms_equal_the_generic_path(degrees):
    tower = cyclic_tower(degrees)
    assert all(name in CyclicTower.__dict__ for name in CLOSED_FORMS)
    loops = [(), ((0, 1),), ((0, -1),), ((0, 1),) * 3, ((0, 1), (0, -1), (0, -1)), ((0, -1),) * 7]
    for k in range(1, tower.depth + 1):
        fiber = tower.fiber(k)
        assert np.array_equal(fiber, CoveringTower.fiber(tower, k))
        assert tower.base_point(k) == CoveringTower.base_point(tower, k)
        assert list(tower.fiber_position(k)) == CoveringTower.fiber_position(tower, k).tolist()
        for top in fiber.tolist():
            assert tower.thread(k, top) == CoveringTower.thread(tower, k, top)
        for loop in loops:
            assert tower.loop_endpoint(loop, k) == CoveringTower.loop_endpoint(tower, loop, k)
        for target in fiber.tolist():
            for n in (-3, -1, 0, 1, 2, 5):
                for point in fiber.tolist():
                    assert (tower.deck_power(k, target, n, point)
                            == CoveringTower.deck_power(tower, k, target, n, point))


def test_cyclic_tower_fiber_positions_are_the_identity():
    tower = cyclic_tower([2, 3])
    assert np.array_equal(tower.fiber_position(3), np.arange(6))


def test_lift_walks_every_start_at_once():
    cov = cyclic_cover(6, 2)
    ends = cov.lift(np.array([0, 2, 4]), ((0, 1), (1, 1), (0, 1)))
    assert np.array_equal(ends, [3, 5, 1])
    assert np.array_equal(cov.lift([4], ((1, -1),)), [3])
    assert np.array_equal(cov.lift([5], ()), [5])
    with pytest.raises(ValueError):
        cov.lift([1], ((0, 1),))  # vertex 1 does not lie over the path's start
