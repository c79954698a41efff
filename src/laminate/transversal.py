"""Exact clopen-set algebra on subshift transversals, and shift holonomy.

A transversal point is a bi-infinite legal sequence marked at a tile; a
cylinder pins a finite window around the mark.  A clopen set is kept at a
radius r as one flag per legal window of length 2r+1, an edge of the
radius-r approximant; distinct windows are disjoint cylinders, so set
operations on flags are exact.  A cylinder flags the windows whose slice
reads its word; refining and shifting pull flags back through the ranks
of a slice of longer windows.  Holonomy is generated by one-tile shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .subshift import LanguageOracle, word_ranks


@dataclass(frozen=True)
class Cylinder:
    """Window ``word`` with the origin tile at index ``mark``."""

    word: str
    mark: int

    def __post_init__(self):
        if not 0 <= self.mark < len(self.word):
            raise ValueError("mark must index a letter of the word")

    @property
    def radius(self) -> int:
        """Least centered-window radius containing this cylinder."""
        return max(self.mark, len(self.word) - 1 - self.mark)

    def __str__(self):
        return f"{self.word}@{self.mark}"

    @classmethod
    def parse(cls, text: str) -> "Cylinder":
        word, _, mark = text.rpartition("@")
        if not (word and mark.isascii() and mark.isdigit()):
            raise ValueError(f"cylinder literal must look like 'word@index': {text!r}")
        return cls(word, int(mark))


class ClopenSet:
    """Finite union of cylinders over one oracle: ``mask`` flags the legal windows
    given, in ``oracle.rows`` order; ``windows`` is decoded from it on first read."""

    def __init__(self, oracle: LanguageOracle, radius: int, windows: Iterable[str]):
        width = 2 * radius + 1
        windows = frozenset(windows)
        for w in windows:
            if len(w) != width:
                raise ValueError(f"window {w!r} does not have radius {radius}")
        words = oracle.sorted_words(width)
        self._fill(oracle, radius, np.array([w in windows for w in words], bool))

    @classmethod
    def _from_mask(cls, oracle: LanguageOracle, radius: int, mask: np.ndarray) -> "ClopenSet":
        return cls.__new__(cls)._fill(oracle, radius, mask)

    def _fill(self, oracle: LanguageOracle, radius: int, mask: np.ndarray) -> "ClopenSet":
        mask.flags.writeable = False
        self.oracle, self.radius, self.mask, self._windows = oracle, radius, mask, None
        return self

    @property
    def windows(self) -> frozenset[str]:
        if self._windows is None:
            words = self.oracle.sorted_words(2 * self.radius + 1)
            self._windows = frozenset(compress(words, self.mask))
        return self._windows

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, oracle: LanguageOracle) -> "ClopenSet":
        return cls._from_mask(oracle, 0, np.zeros(len(oracle.rows(1)), bool))

    @classmethod
    def whole(cls, oracle: LanguageOracle) -> "ClopenSet":
        return cls._from_mask(oracle, 0, np.ones(len(oracle.rows(1)), bool))

    @classmethod
    def from_cylinder(cls, oracle: LanguageOracle, cylinder: Cylinder) -> "ClopenSet":
        """The windows reading the word, found legal in ``rows(n)`` (a foreign
        letter has rank 0) before the longer windows are read, as ``is_legal``."""
        r, n, lo = cylinder.radius, len(cylinder.word), cylinder.radius - cylinder.mark
        row = np.array([oracle.alphabet.index(c) + 1 if c in oracle.alphabet else 0
                        for c in cylinder.word], oracle.dtype)
        if word_ranks(oracle.rows(n), row[None])[0] < 0:
            raise ValueError(f"cylinder word {cylinder.word!r} is not legal")
        windows = oracle.rows(2 * r + 1)[:, lo : lo + n]
        return cls._from_mask(oracle, r, (windows == row).all(axis=1))

    @classmethod
    def from_cylinders(cls, oracle: LanguageOracle, cylinders: Sequence[Cylinder]) -> "ClopenSet":
        return reduce(union, [cls.from_cylinder(oracle, c) for c in cylinders], cls.empty(oracle))

    # -- basic queries ----------------------------------------------------

    def is_empty(self) -> bool:
        return not self.mask.any()

    def cylinders(self) -> list[Cylinder]:
        return [Cylinder(w, self.radius) for w in sorted(self.windows)]

    def __repr__(self):
        inside = ", ".join(str(c) for c in self.cylinders())
        return f"ClopenSet(r={self.radius}, {{{inside}}})"

    def __eq__(self, other):
        return isinstance(other, ClopenSet) and is_equal(self, other)

    __hash__ = None


def _pull_back(oracle: LanguageOracle, flags: np.ndarray, length: int, radius: int,
               lo: int) -> ClopenSet:
    """Windows whose letters from ``lo`` read a flagged ``length``-word; rank -1 is outside."""
    windows = oracle.rows(2 * radius + 1)  # the longer language first, so it is built once
    at = word_ranks(oracle.rows(length), windows[:, lo : lo + length])
    return ClopenSet._from_mask(oracle, radius, (at >= 0) & flags[at])


def canonicalize(s: ClopenSet, radius: int) -> ClopenSet:
    """Re-express at a larger radius; set semantics are unchanged."""
    if radius < s.radius:
        raise ValueError("canonicalization radius may only grow")
    if radius == s.radius:
        return s
    return _pull_back(s.oracle, s.mask, 2 * s.radius + 1, radius, radius - s.radius)


def _common(a: ClopenSet, b: ClopenSet) -> tuple[ClopenSet, ClopenSet]:
    if a.oracle is not b.oracle:
        raise ValueError("clopen sets live over different language oracles")
    r = max(a.radius, b.radius)
    return canonicalize(a, r), canonicalize(b, r)


def union(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    a, b = _common(a, b)
    return ClopenSet._from_mask(a.oracle, a.radius, a.mask | b.mask)


def intersect(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    a, b = _common(a, b)
    return ClopenSet._from_mask(a.oracle, a.radius, a.mask & b.mask)


def subtract(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    a, b = _common(a, b)
    return ClopenSet._from_mask(a.oracle, a.radius, a.mask & ~b.mask)


def complement(a: ClopenSet) -> ClopenSet:
    return ClopenSet._from_mask(a.oracle, a.radius, ~a.mask)


def is_subset(a: ClopenSet, b: ClopenSet) -> bool:
    return subtract(a, b).is_empty()


def is_equal(a: ClopenSet, b: ClopenSet) -> bool:
    a, b = _common(a, b)
    return np.array_equal(a.mask, b.mask)


def shift_set(s: ClopenSet, steps: int) -> ClopenSet:
    """Pointwise image under the ``steps``-fold shift; exact.

    Shifting by +n re-marks every point n tiles to the right, so the old
    radius-r window sits at offset -n in the image's radius-(r+n) windows.
    """
    if steps == 0:
        return s
    n = abs(steps)
    return _pull_back(s.oracle, s.mask, 2 * s.radius + 1, s.radius + n, 0 if steps > 0 else 2 * n)


@dataclass(frozen=True)
class HolonomyWord:
    """A composite of one-tile shifts restricted to a clopen domain."""

    steps: tuple[int, ...]
    domain: ClopenSet

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.steps):
            raise ValueError("holonomy steps are single tiles: +1 or -1")

    @property
    def displacement(self) -> int:
        return sum(self.steps)

    def image(self) -> ClopenSet:
        return shift_set(self.domain, self.displacement)

    def apply(self, s: ClopenSet) -> ClopenSet:
        """Image of the part of ``s`` where the word is defined."""
        return shift_set(intersect(s, self.domain), self.displacement)

    def inverse(self) -> "HolonomyWord":
        return HolonomyWord(tuple(-x for x in reversed(self.steps)), self.image())


def shift(s: ClopenSet, steps: int) -> tuple[ClopenSet, HolonomyWord]:
    """The shifted set together with the holonomy word that produced it."""
    sign = 1 if steps >= 0 else -1
    word = HolonomyWord((sign,) * abs(steps), s)
    return shift_set(s, steps), word


def compose_holonomy(words: Sequence[HolonomyWord]) -> HolonomyWord:
    """Apply left to right; the domain shrinks to where every prefix runs."""
    if not words:
        raise ValueError("nothing to compose")
    domain = ClopenSet.whole(words[0].domain.oracle)
    travelled = 0
    for w in words:
        domain = intersect(domain, shift_set(w.domain, -travelled))
        travelled += w.displacement
    return HolonomyWord(sum((w.steps for w in words), ()), domain)
