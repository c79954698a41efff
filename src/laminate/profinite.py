"""Truncated profinite arithmetic on covering-tower transversals.

An element of the transversal group at depth K is a coherent tuple of deck
transformations of the composite coverings f_{k,1}, k = 1..K, stored as
permutations of the base-point fiber.  Regularity makes that restriction
faithful (the action is free and transitive), so composition, inversion
and equality of components happen on fiber permutations, and the whole
tuple is pinned down by the images of the base thread.

The transverse metric is the truncated product metric: sum over levels
k >= 2 of 2^{-k} times the discrete distance between the level-k
components, an exact rational with truncation error below 2^{-K}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .coverings import CoveringTower, Step


class ProfiniteElement:
    """Coherent tuple of deck elements, one per level 1..depth."""

    def __init__(self, tower: CoveringTower, components: Sequence[np.ndarray],
                 *, check: bool = True):
        self.tower = tower
        self.components = [np.asarray(c, dtype=np.int64) for c in components]
        if check:
            self.validate()

    @property
    def depth(self) -> int:
        return len(self.components)

    def component(self, k: int) -> np.ndarray:
        """Fiber permutation of the level-k deck element (1-based)."""
        return self.components[k - 1]

    def basepoint_image(self, k: int) -> int:
        """Fiber position of the image of the thread point x_k."""
        tower = self.tower
        pos = tower.fiber_position(k)[tower.base_point(k)]
        return int(self.component(k)[pos])

    def validate(self):
        tower = self.tower
        for k in range(1, self.depth + 1):
            fiber = tower.fiber(k)
            if len(self.component(k)) != len(fiber):
                raise ValueError(f"component {k} is not a fiber permutation")
        # coherence: pushing the level-k image of x_k down one covering
        # must land on the level-(k-1) image of x_{k-1}
        for k in range(2, self.depth + 1):
            here = tower.fiber(k)[self.basepoint_image(k)]
            pushed = int(tower.covering(k).map.vmap[here])
            below = tower.fiber(k - 1)[self.basepoint_image(k - 1)]
            if pushed != below:
                raise ValueError(f"components {k} and {k - 1} are incoherent")

    def truncate(self, depth: int) -> "ProfiniteElement":
        if not 1 <= depth <= self.depth:
            raise ValueError("truncation depth out of range")
        return ProfiniteElement(self.tower, self.components[:depth], check=False)

    def __eq__(self, other):
        return (
            isinstance(other, ProfiniteElement)
            and self.tower is other.tower
            and self.depth == other.depth
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.components, other.components)
            )
        )

    __hash__ = None

    def __repr__(self):
        images = [self.basepoint_image(k) for k in range(1, self.depth + 1)]
        return f"ProfiniteElement(depth={self.depth}, basepoint orbit={images})"


def _require_compatible(x: ProfiniteElement, y: ProfiniteElement):
    if x.tower is not y.tower:
        raise ValueError("elements live over different towers")
    if x.depth != y.depth:
        raise ValueError("elements have different truncation depths")


def profinite_id(tower: CoveringTower, depth: int) -> ProfiniteElement:
    comps = [np.arange(len(tower.fiber(k))) for k in range(1, depth + 1)]
    return ProfiniteElement(tower, comps, check=False)


def profinite_mul(x: ProfiniteElement, y: ProfiniteElement) -> ProfiniteElement:
    """Componentwise composition (x after y)."""
    _require_compatible(x, y)
    comps = [a[b] for a, b in zip(x.components, y.components)]
    return ProfiniteElement(x.tower, comps, check=False)


def profinite_inv(x: ProfiniteElement) -> ProfiniteElement:
    return ProfiniteElement(
        x.tower, [np.argsort(c) for c in x.components], check=False
    )


def profinite_pow(x: ProfiniteElement, n: int) -> ProfiniteElement:
    if n < 0:
        return profinite_pow(profinite_inv(x), -n)
    out = profinite_id(x.tower, x.depth)
    square = x
    while n:
        if n & 1:
            out = profinite_mul(out, square)
        square = profinite_mul(square, square)
        n >>= 1
    return out


@dataclass(frozen=True)
class TransverseMetricValue:
    """Truncated invariant metric value with its tail bound."""

    partial_sum: Fraction
    depth: int

    @property
    def error_bound(self) -> Fraction:
        return Fraction(1, 2 ** self.depth)

    def __post_init__(self):
        if not 0 <= self.partial_sum <= 1:
            raise ValueError("metric partial sums lie in [0, 1]")


def metric(x: ProfiniteElement, y: ProfiniteElement) -> TransverseMetricValue:
    """Sum of 2^{-k} over the levels 2..K where the components differ.

    Components are compared through their base-point images, which is
    faithful because deck groups of regular coverings act freely on the
    fiber.  Coherence makes the indicator monotone in k, so the true value
    exceeds the partial sum by at most 2^{-K}.
    """
    _require_compatible(x, y)
    if x.depth < 2:
        raise ValueError("the metric needs depth at least 2")
    total = Fraction(0)
    for k in range(2, x.depth + 1):
        if x.basepoint_image(k) != y.basepoint_image(k):
            total += Fraction(1, 2 ** k)
    return TransverseMetricValue(total, x.depth)


def element_from_point(tower: CoveringTower, depth: int, fiber_pos: int) -> ProfiniteElement:
    """The coherent element whose top component sends x_K to fiber_pos.

    Lower components are forced: push the chosen fiber point down the
    coverings and take the unique deck element reaching it.
    """
    points = {depth: int(tower.fiber(depth)[fiber_pos])}
    for k in range(depth, 1, -1):
        points[k - 1] = int(tower.covering(k).map.vmap[points[k]])
    comps = [
        tower.deck_fiber_perm_from_point(k, points.get(k, tower.base_point(1)))
        for k in range(1, depth + 1)
    ]
    return ProfiniteElement(tower, comps)


def delta_infinity_rep(tower: CoveringTower, loop: Sequence[Step], depth: int) -> ProfiniteElement:
    """Monodromy representation of a base loop as a coherent deck tuple.

    At each level the loop lifts from the thread point; the deck element
    reaching the lift's endpoint is the level-k component.  Concatenation
    of loops goes to composition, so words in base loops represent the
    dense finitely-generated subgroup of the transversal group.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    comps = []
    for k in range(1, depth + 1):
        cov = tower.composite_covering(k, 1)
        cov.check_loop(loop, tower.base_point(1))
        endpoint = int(cov.lift([tower.base_point(k)], loop)[0])
        comps.append(tower.deck_fiber_perm_from_point(k, endpoint))
    return ProfiniteElement(tower, comps)


class QuotientHom:
    """The connecting homomorphism from level-k deck group to level k-1.

    Sends a deck element g of f_{k,1} to the unique deck element of
    f_{k-1,1} that matches g pushed down one covering.  Verification
    enumerates both groups and builds the product table of the upper one,
    so it is meant for desk-sized levels.
    """

    def __init__(self, tower: CoveringTower, k: int):
        if k < 2:
            raise ValueError("quotient homomorphisms start at level 2")
        self.tower = tower
        self.k = k

    def apply_fiber_perm(self, perm: np.ndarray) -> np.ndarray:
        tower, k = self.tower, self.k
        pos = tower.fiber_position(k)[tower.base_point(k)]
        here = int(tower.fiber(k)[perm[pos]])
        pushed = int(tower.covering(k).map.vmap[here])
        return tower.deck_fiber_perm_from_point(k - 1, pushed)

    def apply(self, x: ProfiniteElement) -> np.ndarray:
        return self.apply_fiber_perm(x.component(self.k))

    def verify(self) -> dict:
        """Check hom/surjectivity/kernel on both enumerated deck groups.

        Deck elements of a connected covering are determined by where they
        send one point, so each element is indexed by its image of the base
        point, and images, products and the |G|^2 product table come from
        whole-array lookups.  Returns the group orders and kernel size;
        raises when the map fails to be a surjective homomorphism with
        kernel the deck group of the single covering f_{k,k-1}.
        """
        tower, k = self.tower, self.k
        upper = tower.composite_covering(k, 1).deck_group(tower.base_point(1))
        lower = tower.composite_covering(k - 1, 1).deck_group(tower.base_point(1))
        xu, xl = tower.base_point(k), tower.base_point(k - 1)
        vu = np.array([d.vperm for d in upper.elements])
        vl = np.array([d.vperm for d in lower.elements])
        up, low = vu[:, xu], vl[:, xl]  # each element's image of the base point
        upper_at = -np.ones(tower.graph(k).nv, dtype=np.int64)
        upper_at[up] = np.arange(len(vu))
        lower_at = -np.ones(tower.graph(k - 1).nv, dtype=np.int64)
        lower_at[low] = np.arange(len(vl))
        img = lower_at[tower.covering(k).map.vmap[up]]
        if (img < 0).any():
            raise AssertionError("image is not a deck element below")
        product = upper_at[vu[:, up]]  # [i, j]: index of g_i after g_j
        expected = lower_at[vl[img[:, None], low[img]]]
        if not np.array_equal(img[product], expected):
            raise AssertionError("not a homomorphism")
        kernel = int(np.count_nonzero(img == lower_at[xl]))
        if len(np.unique(img)) != len(vl):
            raise AssertionError("not surjective")
        if kernel != tower.covering(k).degree():
            raise AssertionError("kernel does not match the single covering's deck group")
        return {
            "upper_order": len(vu),
            "lower_order": len(vl),
            "kernel_order": kernel,
        }


def _free_reduce(word: Sequence[Step]) -> tuple[Step, ...]:
    out: list[Step] = []
    for step in word:
        if out and out[-1][0] == step[0] and out[-1][1] == -step[1]:
            out.pop()
        else:
            out.append((step[0], step[1]))
    return tuple(out)


def _inverse_word(word: Sequence[Step]) -> tuple[Step, ...]:
    return tuple((e, -s) for e, s in reversed(word))


@dataclass(frozen=True)
class SuspensionPoint:
    """Point of the suspension: a leaf coordinate and a fiber coordinate.

    The leaf coordinate is a freely reduced walk in the base graph ending
    at the base vertex (its start is wherever the point sits), plus an
    optional final partial edge.  Group elements presented by base loops
    act by splicing the inverse loop onto the walk's tail and multiplying
    the fiber on the left through the representation.
    """

    walk: tuple[Step, ...]
    fiber: ProfiniteElement
    along: Optional[tuple] = None  # (edge_id, sign, Fraction position)

    def __post_init__(self):
        object.__setattr__(self, "walk", _free_reduce(self.walk))


def suspension_act(tower: CoveringTower, loop: Sequence[Step],
                   point: SuspensionPoint) -> SuspensionPoint:
    """Action of the group element presented by ``loop`` on a point."""
    rep = delta_infinity_rep(tower, loop, point.fiber.depth)
    new_walk = _free_reduce(tuple(point.walk) + _inverse_word(loop))
    return SuspensionPoint(new_walk, profinite_mul(rep, point.fiber), point.along)
