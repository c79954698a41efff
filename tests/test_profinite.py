from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from helpers import permutation_cover, random_graph_cover, reference_quotient_verify
from laminate.branched_graph import Graph
from laminate.coverings import CoveringTower, GraphCovering, cyclic_tower
from laminate.profinite import (
    ProfiniteElement,
    QuotientHom,
    SuspensionPoint,
    delta_infinity_rep,
    metric,
    profinite_id,
    profinite_inv,
    profinite_mul,
    profinite_pow,
    suspension_act,
)


@pytest.fixture(scope="module")
def dyadic():
    return cyclic_tower([2] * 8)


@pytest.fixture(scope="module")
def mixed():
    return cyclic_tower([2, 3, 2, 3, 2, 3, 2])


def generator(tower, depth):
    return delta_infinity_rep(tower, ((0, 1),), depth)


def orbit(x):
    return [x.basepoint_image(k) for k in range(1, x.depth + 1)]


# -- group structure against the modular oracle ----------------------------------------


def test_mul_matches_modular_arithmetic(dyadic):
    rng = Random(2)
    K = 8
    gen = generator(dyadic, K)
    for _ in range(40):
        m, n = rng.randrange(300), rng.randrange(300)
        x, y = profinite_pow(gen, m), profinite_pow(gen, n)
        z = profinite_mul(x, y)
        assert orbit(z) == [(m + n) % dyadic.sizes[k] for k in range(K)]


def test_inv_matches_modular_negation(dyadic):
    rng = Random(3)
    gen = generator(dyadic, 8)
    for _ in range(25):
        m = rng.randrange(500)
        assert orbit(profinite_inv(profinite_pow(gen, m))) == [
            (-m) % dyadic.sizes[k] for k in range(8)
        ]


def test_identity_laws(dyadic):
    gen = generator(dyadic, 6)
    x = profinite_pow(gen, 19)
    e = profinite_id(dyadic, 6)
    assert profinite_mul(x, e) == x
    assert profinite_mul(e, x) == x
    assert profinite_mul(x, profinite_inv(x)) == e


def test_associativity_randomized(dyadic):
    rng = Random(5)
    gen = generator(dyadic, 7)
    for _ in range(20):
        x, y, z = (profinite_pow(gen, rng.randrange(200)) for _ in range(3))
        assert profinite_mul(x, profinite_mul(y, z)) == profinite_mul(
            profinite_mul(x, y), z
        )


def test_mixed_tower_matches_mixed_moduli(mixed):
    rng = Random(7)
    K = 5
    gen = generator(mixed, K)
    assert mixed.sizes[:5] == [1, 2, 6, 12, 36]
    for _ in range(30):
        m, n = rng.randrange(200), rng.randrange(200)
        z = profinite_mul(profinite_pow(gen, m), profinite_pow(gen, n))
        assert orbit(z) == [(m + n) % mixed.sizes[k] for k in range(K)]


def test_coherence_validated(dyadic):
    # a thread is fixed by its top point, so an out-of-range top is all that
    # can be wrong
    assert profinite_pow(generator(dyadic, 6), 3).points == (0, 1, 3, 3, 3, 3)
    for top in (-1, 32, 10 ** 30):
        with pytest.raises(ValueError, match="outside level 6"):
            ProfiniteElement(dyadic, 6, top)
    idx = np.arange(4) % 2
    over_a_cycle = CoveringTower([GraphCovering(Graph.cycle(4), Graph.cycle(2), idx, idx)])
    assert ProfiniteElement(over_a_cycle, 2, 2).points == (0, 2)
    with pytest.raises(ValueError, match="does not lie over the base point"):
        ProfiniteElement(over_a_cycle, 2, 1)
    with pytest.raises(ValueError, match="outside level 2"):
        ProfiniteElement(over_a_cycle, 2, 4)


def test_element_from_point_round_trip(dyadic):
    for pos in (0, 5, 13, 127):
        x = ProfiniteElement(dyadic, 8, dyadic.fiber(8)[pos])
        assert x.basepoint_image(8) == pos


# -- quotient homomorphisms ----------------------------------------------------------------


def test_quotient_hom_is_reduction_mod_lower_order(dyadic):
    hom = QuotientHom(dyadic, 5)
    gen = generator(dyadic, 5)
    for m in range(10):
        x = profinite_pow(gen, m)
        image = hom.apply(x)
        assert image.depth == 4
        assert image.basepoint_image(4) == m % dyadic.sizes[3]
        assert image == profinite_pow(generator(dyadic, 4), m)
    with pytest.raises(ValueError):
        hom.apply(generator(dyadic, 4))


def test_quotient_hom_verifies(dyadic):
    for k in (2, 3, 4):
        stats = QuotientHom(dyadic, k).verify()
        assert stats["upper_order"] == 2 ** (k - 1)
        assert stats["lower_order"] == 2 ** (k - 2)
        assert stats["kernel_order"] == 2


def test_quotient_trivial_kernel_is_isomorphism():
    tower = cyclic_tower([2, 1, 3])
    stats = QuotientHom(tower, 3).verify()
    assert stats["kernel_order"] == 1
    assert stats["upper_order"] == stats["lower_order"]


def _parity_tower(beta0, beta1):
    """Rose <- parity cover <- a degree-3 cover of it whose b-edges over
    vertex s permute the three sheets by beta_s."""
    low = permutation_cover({"a": [1, 0], "b": [0, 1]})
    edges = {}
    for j in range(3):
        for s in (0, 1):
            edges[("a", j, s)] = ((j, s), (j, 1 - s))
            edges[("b", j, s)] = ((j, s), ((beta0, beta1)[s][j], s))
    top = Graph.from_edges([(j, s) for j in range(3) for s in (0, 1)], edges)
    up = GraphCovering.from_dicts(
        top, low.total, {v: v[1] for v in top.vertex_ids}, {e: (e[0], e[2]) for e in edges})
    return CoveringTower([low, up])


def test_quotient_not_surjective_on_an_irregular_stack():
    tower = _parity_tower([0, 1, 2], [1, 2, 0])
    assert tower.deck_group(2).order() == 2
    # three deck elements above, all over the identity below
    assert tower.deck_group(3).order() == 3
    with pytest.raises(AssertionError, match="not surjective"):
        QuotientHom(tower, 3).verify()


def test_quotient_kernel_mismatch_on_irregular_covers():
    tower = CoveringTower([permutation_cover({"a": [1, 0, 2], "b": [0, 2, 1]})])
    with pytest.raises(AssertionError, match="kernel does not match"):
        QuotientHom(tower, 2).verify()  # deck order 1 under a degree-3 covering
    with pytest.raises(AssertionError, match="kernel does not match"):
        QuotientHom(_parity_tower([0, 2, 1], [1, 0, 2]), 3).verify()


def test_quotient_verify_equals_reference_on_random_stacks():
    rng = Random(24)
    rose = Graph.from_edges(["w"], {"a": ("w", "w"), "b": ("w", "w")})
    outcomes = set()
    for _ in range(150):
        low = random_graph_cover(rng, rose, rng.randint(1, 4))
        up = random_graph_cover(rng, low.total, rng.randint(1, 3))
        if not (low.total.is_connected and up.total.is_connected):
            continue
        tower = CoveringTower([low, up])
        for k in (2, 3):
            results = []
            for verify in (QuotientHom(tower, k).verify, lambda: reference_quotient_verify(tower, k)):
                try:
                    results.append(verify())
                except AssertionError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            outcomes.add(str(results[0]))
    assert {"image is not a deck element below", "not surjective",
            "kernel does not match the single covering's deck group"} <= outcomes


def test_quotient_verify_reads_the_enumerated_groups(monkeypatch):
    def refuse(*args):
        raise AssertionError("deck_transformation_from called")

    tower = CoveringTower([
        GraphCovering(Graph.cycle(2), Graph.cycle(1), np.zeros(2), np.zeros(2)),
        GraphCovering(Graph.cycle(6), Graph.cycle(2), np.arange(6) % 2, np.arange(6) % 2),
    ])
    monkeypatch.setattr(GraphCovering, "deck_transformation_from", refuse)
    assert QuotientHom(tower, 3).verify() == {"upper_order": 6, "lower_order": 2, "kernel_order": 3}


def test_kernel_times_image_is_group_order(dyadic):
    for k in (3, 5):
        stats = QuotientHom(dyadic, k).verify()
        assert stats["kernel_order"] * stats["lower_order"] == stats["upper_order"]


# -- metric ------------------------------------------------------------------------------


def test_metric_of_equal_elements_is_zero(dyadic):
    x = profinite_pow(generator(dyadic, 8), 77)
    value = metric(x, x)
    assert value.partial_sum == 0
    assert value.error_bound == F(1, 256)


def test_metric_geometric_series_closed_form(dyadic):
    K = 8
    gen = generator(dyadic, K)
    ident = profinite_id(dyadic, K)
    # gen^1 differs from the identity at every level with a nontrivial group,
    # i.e. from level 2 on: sum 2^-2 .. 2^-K = 2^-1 - 2^-K
    value = metric(gen, ident)
    assert value.partial_sum == F(1, 2) - F(1, 2 ** K)
    # differing exactly from level m on: use gen^(2^(m-2)) for m = 3
    x = profinite_pow(gen, 2)
    value = metric(x, ident)
    assert value.partial_sum == F(1, 4) - F(1, 2 ** K)


def test_metric_delta_is_monotone_in_depth(dyadic):
    rng = Random(11)
    gen = generator(dyadic, 8)
    for _ in range(30):
        x = profinite_pow(gen, rng.randrange(250))
        y = profinite_pow(gen, rng.randrange(250))
        differs = [x.basepoint_image(k) != y.basepoint_image(k) for k in range(1, 9)]
        first = next((i for i, d in enumerate(differs) if d), None)
        if first is not None:
            assert all(differs[first:])


def test_metric_requires_depth_two():
    tower = cyclic_tower([2])
    with pytest.raises(ValueError):
        metric(profinite_id(tower, 1), profinite_id(tower, 1))


def test_metric_left_invariance(dyadic, mixed):
    rng = Random(13)
    for tower in (dyadic, mixed):
        K = min(8, tower.depth)
        gen = generator(tower, K)
        top = tower.sizes[K - 1]
        for _ in range(50):
            h, x, y = (profinite_pow(gen, rng.randrange(top)) for _ in range(3))
            left = metric(profinite_mul(h, x), profinite_mul(h, y))
            assert left.partial_sum == metric(x, y).partial_sum


def test_metric_truncation_compatibility(dyadic):
    rng = Random(17)
    gen = generator(dyadic, 8)
    for _ in range(20):
        x = profinite_pow(gen, rng.randrange(200))
        y = profinite_pow(gen, rng.randrange(200))
        full = metric(x, y).partial_sum
        trunc = metric(x.truncate(5), y.truncate(5)).partial_sum
        assert abs(full - trunc) <= F(1, 2 ** 5)
        assert profinite_mul(x, y).truncate(5) == profinite_mul(
            x.truncate(5), y.truncate(5)
        )


# -- representation -------------------------------------------------------------------------


def test_trivial_loop_represents_identity(dyadic):
    assert delta_infinity_rep(dyadic, (), 6) == profinite_id(dyadic, 6)


def test_generator_representation_orbit(dyadic):
    gen = generator(dyadic, 8)
    assert orbit(gen) == [0] + [1] * 7


def test_representation_is_a_homomorphism(dyadic):
    loop = ((0, 1), (0, 1), (0, -1))
    word_twice = loop + loop
    a = delta_infinity_rep(dyadic, loop, 7)
    b = delta_infinity_rep(dyadic, word_twice, 7)
    assert profinite_mul(a, a) == b


def test_faithfulness_at_depth(dyadic):
    K = 8
    gen = generator(dyadic, K)
    ident = profinite_id(dyadic, K)
    power = ident
    for n in range(1, 2 ** 8 + 1):
        power = profinite_mul(power, gen)
        assert (power == ident) == (n % dyadic.sizes[K - 1] == 0)


def test_rep_needs_a_level(dyadic):
    for depth in (0, -1):
        with pytest.raises(ValueError):
            delta_infinity_rep(dyadic, ((0, 1),), depth)


def test_non_closed_loop_rejected_by_rep():
    tower = cyclic_tower([2, 2])
    # the level-2 edge ids are not base edges; a bogus token fails
    with pytest.raises((ValueError, KeyError)):
        delta_infinity_rep(tower, (("nope", 1),), 2)


def test_rep_and_metric_answer_on_a_non_regular_tower():
    from test_coverings import non_normal_degree3_cover

    cov = non_normal_degree3_cover()
    tower = CoveringTower([cov])
    assert not tower.deck_group(2).regular
    total = cov.total

    def brute_lift(word):
        v = tower.base_point(2)
        for edge, sign in word:
            (v,) = [int((total.edst if sign == 1 else total.esrc)[e]) for e in range(total.ne)
                    if total.edge_ids[e][0] == edge and (total.esrc if sign == 1 else total.edst)[e] == v]
        return v

    rng = Random(31)
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    ends, ident = set(), profinite_id(tower, 2)
    for _ in range(60):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(7)))
        x = delta_infinity_rep(tower, word, 2)
        end = brute_lift(word)
        ends.add(end)
        assert x.points == (tower.base_point(1), end)
        assert x.basepoint_image(2) == int(np.flatnonzero(tower.fiber(2) == end)[0])
        assert metric(x, ident).partial_sum == (F(1, 4) if end != tower.base_point(2) else 0)
    assert ends == {0, 1, 2}
    moved = delta_infinity_rep(tower, (("a", 1),), 2)
    assert moved.top != tower.base_point(2)
    with pytest.raises(ValueError, match="no deck element"):
        profinite_mul(moved, moved)
    assert profinite_pow(moved, 0) == ident
    with pytest.raises(ValueError, match="no deck element"):
        profinite_pow(moved, 1)


# -- suspension action ------------------------------------------------------------------------


def test_identity_acts_trivially(dyadic):
    p = SuspensionPoint(((0, 1), (0, 1)), profinite_pow(generator(dyadic, 6), 3))
    q = suspension_act(dyadic, (), p)
    assert q.walk == p.walk and q.fiber == p.fiber


def test_generator_translates_the_fiber(dyadic):
    p = SuspensionPoint((), profinite_id(dyadic, 6))
    q = suspension_act(dyadic, ((0, 1),), p)
    assert orbit(q.fiber) == [0] + [1] * 5
    assert q.walk == ((0, -1),)


def test_action_law_on_random_triples(dyadic):
    rng = Random(24)
    gen_word = ((0, 1),)
    for _ in range(100):
        h1 = tuple(gen_word[0] for _ in range(rng.randrange(3))) + tuple(
            ((0, -1),) * rng.randrange(2)
        )
        h2 = tuple(((0, 1),) * rng.randrange(4))
        walk = tuple(((0, 1),) * rng.randrange(3))
        p = SuspensionPoint(walk, profinite_pow(generator(dyadic, 5), rng.randrange(8)))
        lhs = suspension_act(dyadic, h1 + h2, p)
        rhs = suspension_act(dyadic, h1, suspension_act(dyadic, h2, p))
        assert lhs.walk == rhs.walk
        assert lhs.fiber == rhs.fiber


def test_action_law_on_klein_four_tower():
    rose = Graph.from_edges(["w"], {"a": ("w", "w"), "b": ("w", "w")})
    verts = [(i, j) for i in range(2) for j in range(2)]
    edges = {}
    for i, j in verts:
        edges[("a", i, j)] = ((i, j), ((i + 1) % 2, j))
        edges[("b", i, j)] = ((i, j), (i, (j + 1) % 2))
    total = Graph.from_edges(verts, edges)
    cov = GraphCovering.from_dicts(total, rose, {v: "w" for v in verts}, {e: e[0] for e in edges})
    tower = CoveringTower([cov])
    rng = Random(29)
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    for _ in range(100):
        h1 = tuple(rng.choice(letters) for _ in range(rng.randrange(3)))
        h2 = tuple(rng.choice(letters) for _ in range(rng.randrange(3)))
        p = SuspensionPoint(
            tuple(rng.choice(letters) for _ in range(rng.randrange(2))),
            delta_infinity_rep(tower, tuple(rng.choice(letters) for _ in range(2)), 2),
        )
        lhs = suspension_act(tower, h1 + h2, p)
        rhs = suspension_act(tower, h1, suspension_act(tower, h2, p))
        assert lhs.walk == rhs.walk and lhs.fiber == rhs.fiber


# -- base point independence and telescoping ---------------------------------------------------


def test_changing_base_thread_gives_isomorphic_structure():
    tower_a = cyclic_tower([2, 2, 2])
    tower_b = cyclic_tower([2, 2, 2])
    tower_b._thread = [0, 1, 3, 7]  # a different coherent thread
    for k in range(2, 5):
        x_here = tower_b.base_point(k)
        assert int(tower_b.covering(k).vmap[x_here]) == tower_b.base_point(k - 1)
    gen_a = generator(tower_a, 4)
    gen_b = generator(tower_b, 4)
    # conjugation by the deck element moving one thread to the other is an
    # isomorphism; for rotation groups it is the identity map, so orders
    # and orbits of powers must match exactly
    for n in (1, 2, 5):
        pa = profinite_pow(gen_a, n)
        pb = profinite_pow(gen_b, n)
        assert (pa == profinite_id(tower_a, 4)) == (pb == profinite_id(tower_b, 4))
    da = metric(gen_a, profinite_id(tower_a, 4)).partial_sum
    db = metric(gen_b, profinite_id(tower_b, 4)).partial_sum
    assert da == db


def test_telescoping_preserves_truncated_groups():
    tall = cyclic_tower([2] * 6)
    short = cyclic_tower([4] * 3)  # the telescoping that merges pairs
    for k_tall, k_short in ((3, 2), (5, 3), (7, 4)):
        g_tall, g_short = tall.deck_group(k_tall), short.deck_group(k_short)
        assert g_tall.order() == g_short.order()
        assert set(map(tuple, g_tall.vperms.tolist())) == set(map(tuple, g_short.vperms.tolist()))
