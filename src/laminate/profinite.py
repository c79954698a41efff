"""Truncated profinite arithmetic on covering-tower transversals.

A point of the transversal at depth K is a coherent thread of fiber points
over the base point, one vertex per level 1..K.  The thread is fixed by its
level-K point; each lower entry is the image of the one above under the
bond, so an incoherent thread cannot be built.  A base loop acts by lifting
once at level K and projecting down, which needs no deck group, so the
monodromy representation and the metric answer on every covering tower.

On a regular tower the threads form the profinite group: the deck
transformation of f_{K,1} sending x_K to a thread's top point acts on the
top points of the others, which gives products, inverses and powers.
Cyclic towers answer all of this in closed form (see ``CyclicTower``).

The transverse metric is the truncated product metric: sum over levels
k >= 2 of 2^{-k} times the discrete distance between the level-k entries,
an exact rational with truncation error below 2^{-K}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .coverings import CoveringTower, Step


class ProfiniteElement:
    """Coherent thread of fiber points through the level-``depth`` vertex
    ``top``; raises ``ValueError`` when ``top`` is off the tower's fiber."""

    def __init__(self, tower: CoveringTower, depth: int, top: int):
        self.tower = tower
        self.points = tower.thread(depth, top)

    @property
    def depth(self) -> int:
        return len(self.points)

    @property
    def top(self) -> int:
        return self.points[-1]

    @property
    def components(self) -> tuple[tuple[int], ...]:
        """Per level, the one-entry tuple of its thread point."""
        return tuple((p,) for p in self.points)

    def basepoint_image(self, k: int) -> int:
        """Fiber position of the level-k entry, the image of x_k."""
        return int(self.tower.fiber_position(k)[self.points[k - 1]])

    def truncate(self, depth: int) -> "ProfiniteElement":
        if not 1 <= depth <= self.depth:
            raise ValueError("truncation depth out of range")
        return ProfiniteElement(self.tower, depth, self.points[depth - 1])

    def __eq__(self, other):
        return (
            isinstance(other, ProfiniteElement)
            and self.tower is other.tower
            and self.points == other.points
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
    return ProfiniteElement(tower, depth, tower.base_point(depth))


def profinite_mul(x: ProfiniteElement, y: ProfiniteElement) -> ProfiniteElement:
    """Composition x after y: x's deck transformation applied to y's thread.

    Raises ``ValueError`` when no deck transformation of f_{K,1} reaches x's
    top point, as on a tower that is not regular.
    """
    _require_compatible(x, y)
    return ProfiniteElement(x.tower, x.depth, x.tower.deck_power(x.depth, x.top, 1, y.top))


def profinite_inv(x: ProfiniteElement) -> ProfiniteElement:
    tower, k = x.tower, x.depth
    return ProfiniteElement(tower, k, tower.deck_power(k, x.top, -1, tower.base_point(k)))


def profinite_pow(x: ProfiniteElement, n: int) -> ProfiniteElement:
    """x^n; the zeroth power is the base-point thread on every tower."""
    tower, k = x.tower, x.depth
    if n == 0:
        return profinite_id(tower, k)
    return ProfiniteElement(tower, k, tower.deck_power(k, x.top, n, tower.base_point(k)))


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
    """Sum of 2^{-k} over the levels 2..K where the thread entries differ.

    Coherence makes the indicator monotone in k, so the true value exceeds
    the partial sum by at most 2^{-K}.
    """
    _require_compatible(x, y)
    if x.depth < 2:
        raise ValueError("the metric needs depth at least 2")
    depth = x.depth
    total = sum(1 << (depth - k) for k in range(2, depth + 1)
                if x.points[k - 1] != y.points[k - 1])
    return TransverseMetricValue(Fraction(total, 1 << depth), depth)


def delta_infinity_rep(tower: CoveringTower, loop: Sequence[Step], depth: int) -> ProfiniteElement:
    """Monodromy representation of a base loop as a coherent thread.

    The loop lifts once from x_K at level K, and the thread through the
    lift's endpoint is the representation.  Concatenation of loops goes to
    composition on regular towers, so words in base loops represent the
    dense finitely-generated subgroup of the transversal group.  Raises
    ``ValueError`` when f_{K,1} is not a covering.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    return ProfiniteElement(tower, depth, tower.loop_endpoint(loop, depth))


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

    def apply(self, x: ProfiniteElement) -> ProfiniteElement:
        """The image of x, at depth at least k, as an element of depth k-1."""
        if x.depth < self.k:
            raise ValueError(f"the element needs depth at least {self.k}")
        return x.truncate(self.k - 1)

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
        vu, vl = tower.deck_group(k).vperms, tower.deck_group(k - 1).vperms
        xu, xl = tower.base_point(k), tower.base_point(k - 1)
        up, low = vu[:, xu], vl[:, xl]  # each element's image of the base point
        upper_at = -np.ones(tower.graph(k).nv, dtype=np.int64)
        upper_at[up] = np.arange(len(vu))
        lower_at = -np.ones(tower.graph(k - 1).nv, dtype=np.int64)
        lower_at[low] = np.arange(len(vl))
        img = lower_at[tower.covering(k).vmap[up]]
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
        return {"upper_order": len(vu), "lower_order": len(vl), "kernel_order": kernel}


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
