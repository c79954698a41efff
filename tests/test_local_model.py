from fractions import Fraction as F
from random import Random

import pytest

from laminate.local_model import (
    BranchTree,
    HalfSpace,
    Sector,
    class_count_profile,
    glue_classes,
    sector_contains,
)

from helpers import brute_force_glue_classes, random_branch_tree, random_disk_point


def quadrant():
    return Sector(2, (HalfSpace((1, 0)), HalfSpace((0, -1))))  # x>0, y<0


def three_vertex_tree():
    return BranchTree(
        2,
        ("v0", "v1", "v2"),
        (("v1", "v0"), ("v2", "v0")),
        {"v0": Sector(2), "v1": quadrant(), "v2": quadrant()},
    )


def test_sector_contains_positive_ray():
    s = Sector(1, (HalfSpace((1,)),))
    assert sector_contains(s, (F(1),))
    assert not sector_contains(s, (F(0),))


def test_sector_contains_open_quadrant():
    s = Sector(2, (HalfSpace((1, 0)), HalfSpace((0, 1))))
    assert sector_contains(s, (F(1, 2), F(1, 2)))
    assert not sector_contains(s, (F(1, 2), F(-1, 2)))


def test_sector_empty_family_is_whole_space():
    assert sector_contains(Sector(2), (F(0), F(0)))


def test_sector_dimension_mismatch():
    with pytest.raises(ValueError):
        sector_contains(Sector(2), (F(1),))


def test_halfspace_needs_nonzero_normal():
    with pytest.raises(ValueError):
        HalfSpace((0, 0))


def test_glue_classes_single_vertex():
    t = BranchTree(1, ("v",), (), {"v": Sector(1)})
    assert glue_classes(t, (F(0),)) == [frozenset({"v"})]


def test_glue_classes_empty_sector_glues_everything():
    contradictory = Sector(1, (HalfSpace((1,)), HalfSpace((-1,))))
    t = BranchTree(
        1, ("v", "v'"), (("v", "v'"),), {"v": contradictory, "v'": Sector(1)}
    )
    for x in [(F(0),), (F(1, 2),), (F(-1, 3),)]:
        assert glue_classes(t, x) == [frozenset({"v", "v'"})]


def test_glue_classes_figure_one_model():
    t = three_vertex_tree()
    inside = glue_classes(t, (F(1, 2), F(-1, 2)))
    assert inside == [frozenset({"v0"}), frozenset({"v1"}), frozenset({"v2"})]
    outside = glue_classes(t, (F(-1, 2), F(1, 2)))
    assert outside == [frozenset({"v0", "v1", "v2"})]


def test_class_count_profile_matches_examples():
    t = three_vertex_tree()
    samples = [(F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2))]
    assert class_count_profile(t, samples) == [3, 1]


def test_class_count_profile_path_tree_all_empty_sectors():
    empty = Sector(1, (HalfSpace((1,)), HalfSpace((-1,))))
    t = BranchTree(
        1,
        ("v1", "v2", "v3"),
        (("v1", "v2"), ("v2", "v3")),
        {"v1": empty, "v2": empty, "v3": empty},
    )
    assert class_count_profile(t, [(F(0),), (F(1, 2),)]) == [1, 1]


def test_tree_validation_rejects_cycles():
    with pytest.raises(ValueError):
        BranchTree(
            1,
            ("a", "b"),
            (("a", "b"), ("b", "a")),
            {"a": Sector(1), "b": Sector(1)},
        )


def test_glue_classes_partition_property():
    rng = Random(11)
    for _ in range(25):
        tree = random_branch_tree(rng)
        for _ in range(5):
            x = random_disk_point(rng, tree.dimension)
            blocks = glue_classes(tree, x)
            union = set().union(*blocks)
            assert union == set(tree.vertices)
            assert sum(len(b) for b in blocks) == len(tree.vertices)


def test_glue_classes_matches_brute_force_closure():
    rng = Random(7)
    for _ in range(30):
        tree = random_branch_tree(rng)
        for _ in range(10):
            x = random_disk_point(rng, tree.dimension)
            assert glue_classes(tree, x) == brute_force_glue_classes(tree, x)


def test_sector_refinement_never_splits_classes():
    # adding a half-space shrinks the sector, so gluing can only grow
    rng = Random(23)
    for _ in range(20):
        tree = random_branch_tree(rng)
        extra = [F(rng.randint(-2, 2)) for _ in range(tree.dimension)]
        if not any(extra):
            extra[0] = F(1)
        target = rng.choice(tree.vertices)
        refined_sectors = dict(tree.sector_of)
        old = refined_sectors[target]
        refined_sectors[target] = Sector(
            tree.dimension, old.halfspaces + (HalfSpace(tuple(extra)),)
        )
        refined = BranchTree(tree.dimension, tree.vertices, tree.edges, refined_sectors)
        for _ in range(10):
            x = random_disk_point(rng, tree.dimension)
            assert len(glue_classes(refined, x)) <= len(glue_classes(tree, x))


def test_all_sources_separated_when_x_in_every_source_sector():
    rng = Random(5)
    for _ in range(40):
        tree = random_branch_tree(rng)
        sources = {s for s, _ in tree.edges}
        for _ in range(10):
            x = random_disk_point(rng, tree.dimension)
            if all(sector_contains(tree.sector_of[s], x) for s in sources):
                blocks = glue_classes(tree, x)
                assert all(len(b) == 1 for b in blocks)
