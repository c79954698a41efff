from random import Random

import pytest

from laminate import fixtures
from laminate.branched_graph import (
    CellularMap,
    Graph,
    SmoothGerm,
    compose,
    flattening_witness,
    identity_map,
    is_flattening,
)

from helpers import (
    cycle_branched,
    cycle_cover_map,
    half_edges_at,
    path_half_edge_image,
    random_rose_words,
    random_stationary_maps,
    reference_germ_image,
    reference_germs_at,
    rose_map,
)


def test_circle_is_valid():
    g = fixtures.circle()
    assert g.sides == {"v": (frozenset({("e", "+")}), frozenset({("e", "-")}))}
    assert g.branch_points() == []


def test_figure_eight_is_valid_and_branched():
    g = fixtures.figure_eight()
    assert frozenset().union(*g.sides["w"]) == {(e, end) for e in "ab" for end in "+-"}
    assert g.branch_points() == ["w"]


def test_duplicated_half_edge_is_a_violation():
    with pytest.raises(ValueError, match="both sides"):
        Graph.from_edges(
            vertices={"v"},
            edges={"e": ("v", "v")},
            sides={"v": ({("e", "+"), ("e", "-")}, {("e", "-")})},
        )


def test_missing_half_edge_is_a_violation():
    with pytest.raises(ValueError, match="missing"):
        Graph.from_edges(
            vertices={"v"},
            edges={"e": ("v", "v")},
            sides={"v": ({("e", "+")}, set())},
        )


def test_half_edge_at_the_wrong_vertex_is_a_violation():
    with pytest.raises(ValueError, match="belongs at vertex 'v'"):
        Graph.from_edges(
            vertices={"u", "v"},
            edges={"e": ("u", "v")},
            sides={"u": ({("e", "-")}, set()), "v": (set(), {("e", "+")})},
        )


def test_views_are_read_only():
    f = fixtures.figure_eight_double()
    for view in (f.domain.edges, f.domain.sides, f.vertex_map, f.edge_map):
        with pytest.raises(TypeError):
            view["x"] = None


def test_compose_with_identity():
    p2 = fixtures.circle_double()
    assert compose(identity_map(p2.codomain), p2).edge_map == p2.edge_map
    assert compose(p2, identity_map(p2.domain)).edge_map == p2.edge_map


def test_circle_doubling_composes_to_degree_four():
    p2 = fixtures.circle_double()
    p4 = compose(p2, p2)
    assert p4.edge_map["e"] == (("e", 1),) * 4


def test_figure_eight_power_maps():
    P2 = fixtures.figure_eight_double()
    current = P2
    for m in range(2, 5):
        current = compose(P2, current)
        assert current.edge_map["a"] == (("a", 1),) * 2 ** m
        assert current.edge_map["b"] == (("b", 1),) * 2 ** m


def test_compose_is_associative():
    rng = Random(3)
    petals = ("a", "b")
    f, g, h = (
        rose_map(petals, random_rose_words(rng, petals)) for _ in range(3)
    )
    left = compose(h, compose(g, f))
    right = compose(compose(h, g), f)
    assert left.edge_map == right.edge_map
    assert left.vertex_map == right.vertex_map


# germ images of the label-based certificate in tests/helpers.py, read off
# edge paths


def test_germ_image_under_identity():
    g = fixtures.figure_eight()
    for germ in reference_germs_at(g, "w"):
        assert reference_germ_image(identity_map(g), germ) == germ


def test_germ_image_circle_double():
    p2 = fixtures.circle_double()
    germ = SmoothGerm("v", ("e", "+"), ("e", "-"))
    assert reference_germ_image(p2, germ) == germ


def test_germ_image_figure_eight_double():
    P2 = fixtures.figure_eight_double()
    germ = SmoothGerm("w", ("a", "+"), ("b", "-"))
    assert reference_germ_image(P2, germ) == germ


def test_germ_image_commutes_with_composition():
    rng = Random(17)
    petals = ("a", "b", "c")
    for _ in range(20):
        f = rose_map(petals, random_rose_words(rng, petals))
        g = rose_map(petals, random_rose_words(rng, petals))
        for germ in reference_germs_at(f.domain, "w"):
            via_composite = reference_germ_image(compose(g, f), germ)
            via_steps = reference_germ_image(g, reference_germ_image(f, germ))
            assert via_composite == via_steps


def test_circle_double_is_flattening():
    assert is_flattening(fixtures.circle_double())


def test_figure_eight_double_witness():
    w = flattening_witness(fixtures.figure_eight_double())
    assert w is not None
    assert w.vertex == "w"
    assert set(w.half_edges) == {("a", "+"), ("b", "+")}
    assert set(w.images) == {("a", "+"), ("b", "+")}


def petals_onto_circle() -> CellularMap:
    """Figure-eight onto the circle, both petals to the loop.  Flattening."""
    return CellularMap(fixtures.figure_eight(), fixtures.circle(), {"w": "v"},
                       {"a": (("e", 1),), "b": (("e", 1),)})


def test_everything_to_one_loop_is_flattening():
    assert is_flattening(petals_onto_circle())


def test_flattening_can_appear_under_composition():
    # collapse after a branch map: the composite irons the branching out
    P2 = fixtures.figure_eight_double()
    collapse = petals_onto_circle()
    assert not is_flattening(P2)
    assert is_flattening(compose(collapse, P2))


def test_flattening_absorbs_under_composition_both_ways():
    # with side-coherent maps a flattening factor forces flattening
    # composites; a tower can still have non-flattening composites that
    # avoid the flattening bond entirely
    rng = Random(29)
    petals = ("a", "b")
    collapse_words = {"a": "a", "b": "a"}
    flat = rose_map(petals, collapse_words)
    assert is_flattening(flat)
    for _ in range(10):
        other = rose_map(petals, random_rose_words(rng, petals))
        assert is_flattening(compose(flat, other))
        assert is_flattening(compose(other, flat))
    branch = fixtures.figure_eight_double()
    assert not is_flattening(compose(branch, branch))


def test_a_flattening_factor_flattens_the_path_composite():
    # the lemma behind the tower sweep, on edge paths: roses read forward or
    # backward, walk maps of the branched circle fixing or swapping its
    # vertices, and cycle covers
    rng = Random(31)
    by_graph: dict = {}
    for f in random_stationary_maps(rng, 400):
        by_graph.setdefault((f.domain.nv, f.domain.ne), []).append(f)
    pairs = [(f, rng.choice(maps)) for maps in by_graph.values() for f in maps]
    for _ in range(40):
        m, n = rng.choice([(4, 2), (6, 3), (8, 4), (6, 2), (3, 3)])
        p = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        pairs.append((cycle_cover_map(m, n), cycle_cover_map(n, p)))
    one_factor = 0
    for f, g in pairs:
        if is_flattening(f) or is_flattening(g):
            assert is_flattening(compose(g, f))
            one_factor += is_flattening(f) != is_flattening(g)
    assert len({(f.domain.nv, f.domain.ne) for f, _ in pairs}) >= 5
    assert one_factor >= 40


def test_star_of_circle_vertex_is_whole_graph():
    g = fixtures.circle()
    assert frozenset().union(*g.sides["v"]) == frozenset({("e", "+"), ("e", "-")})


def test_star_of_figure_eight_has_four_half_edges():
    hes = frozenset().union(*fixtures.figure_eight().sides["w"])
    assert hes == frozenset({("a", "+"), ("a", "-"), ("b", "+"), ("b", "-")})


def test_star_of_path_graph_middle_vertex():
    g = Graph.from_edges(
        vertices={"u", "v", "w"},
        edges={"e1": ("u", "v"), "e2": ("v", "w")},
        sides={
            "u": (set(), {("e1", "+")}),
            "v": ({("e1", "-")}, {("e2", "+")}),
            "w": ({("e2", "-")}, set()),
        },
    )
    assert frozenset().union(*g.sides["v"]) == frozenset({("e1", "-"), ("e2", "+")})


def test_flattening_agrees_with_star_oracle_on_covers():
    # for injective-vertex, single-edge-image maps, flattening must agree
    # with the brute-force "image of every star sits inside one germ" check
    for m, n in [(2, 1), (4, 2), (6, 3), (6, 2)]:
        f = cycle_cover_map(m, n)
        brute = True
        for v in f.domain.vertices:
            images = {
                path_half_edge_image(f, h) for h in half_edges_at(f.domain, v)
            }
            target_sides = f.codomain.sides[f.vertex_map[v]]
            one_germ = (
                len(images & target_sides[0]) <= 1
                and len(images & target_sides[1]) <= 1
            )
            brute = brute and one_germ
        assert is_flattening(f) == brute


def test_side_coherence_rejected_when_sides_collapse():
    g = fixtures.figure_eight()
    with pytest.raises(ValueError):
        # a maps forward but b maps backward: b+ lands on side B with a+
        CellularMap(
            g, g, {"w": "w"}, {"a": (("a", 1),), "b": (("b", -1),)}
        )


def test_invalid_path_rejected():
    g = fixtures.circle()
    h = fixtures.figure_eight()
    with pytest.raises(ValueError):
        CellularMap(g, h, {"v": "w"}, {"e": ()})


@pytest.mark.parametrize("path", [(("c0", 1), ("c0", 1)), (("c1", 1),), (("c0", 1), ("c1", -1))])
def test_image_path_must_walk_between_the_endpoint_images(path):
    # on the 2-cycle c0: u0 -> u1, c1: u1 -> u0, c0's image must walk from u0 to u1
    g = cycle_branched(2)
    with pytest.raises(ValueError, match="edge 'c0': image path is not a walk"):
        CellularMap(g, g, {"u0": "u0", "u1": "u1"}, {"c0": path, "c1": (("c1", 1),)})
