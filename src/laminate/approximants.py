"""Collared approximant complexes of subshift suspensions.

Level k of the tower is the de-Bruijn-style graph whose vertices are the
legal words of length 2k and whose edges are the legal words of length
2k+1 (an edge runs from its prefix to its suffix; tiles are unit
intervals, one prototile per letter).  It is a plain graph, in-edges on
side A and out-edges on side B, as a covering tower's levels are.  Levels
hold the oracle's sorted word rows and edge endpoints as ranks, and their
graphs and bonds are index arrays over those ranks; words are decoded
only where a label is read.  The bonding map drops one letter from each
end, which is independent of how the window extends -- that is exactly
why every bonding map is flattening, and one prefix search reads it off.
Quotient maps send a marked word to the edge labelled by the radius-k
window around the mark; languages are factor closed, so windows inside
legal ones are legal and separate by string compare.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .branched_graph import CellularMap, Graph
from .inverse_system import InverseSystem
from .subshift import LanguageOracle, word_ranks
from .transversal import ClopenSet, Cylinder


@dataclass(frozen=True, eq=False)
class CollaredComplex:
    """Approximant at collar radius k; edge i runs from vertex ``src[i]``
    to ``dst[i]``, ranks into the oracle's sorted words."""

    oracle: LanguageOracle
    k: int
    vertices: np.ndarray
    edges: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    @cached_property
    def graph(self) -> Graph:
        """The level indexed by word rank, a plain graph (side A holds the
        incoming half-edges, B the outgoing); words are decoded on first read."""
        vertices = _Words(self.oracle, 2 * self.k, len(self.vertices))
        return Graph(vertices, _Words(self.oracle, 2 * self.k + 1, len(self.edges)), self.src, self.dst)


class _Words(Sequence):
    """The oracle's legal words of one length in rank order, decoded on first read."""

    def __init__(self, oracle: LanguageOracle, length: int, count: int):
        self.oracle, self.length, self.count = oracle, length, count

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        return self.oracle.sorted_words(self.length)[i]

    def __iter__(self):
        return iter(self.oracle.sorted_words(self.length))


def build_approximant(oracle: LanguageOracle, k: int) -> CollaredComplex:
    """The radius-k collared complex; k = 0 is the rose of letters."""
    if k < 0:
        raise ValueError("collar radius must be nonnegative")
    edges, vertices = oracle.rows(2 * k + 1), oracle.rows(2 * k)  # the longer first
    src, dst = word_ranks(vertices, edges[:, :-1]), word_ranks(vertices, edges[:, 1:])
    if min(src.min(), dst.min()) < 0:
        raise ValueError(f"the language is not factor-closed at length {2 * k}")
    return CollaredComplex(oracle, k, vertices, edges, src, dst)


def _drop_one_letter(upper: CollaredComplex, lower: CollaredComplex) -> CellularMap:
    """The bond from approximant k+1 onto approximant k, given both levels.

    A trimmed word ends its prefix and starts its suffix, so one search of
    the upper vertices' prefixes among the lower edges maps both: a vertex
    to its prefix's end, an edge to its end's prefix.  Only levels of two
    languages can miss a prefix; their vertices are then searched trimmed.
    Each edge maps to one forward step, so these checks on the rank arrays
    are all of ``validate_map``: side A (in) lands on A, side B (out) on B.
    """
    prefix = word_ranks(lower.edges, upper.vertices[:, :-1])
    vmap, emap = lower.dst[prefix], prefix[upper.dst]
    if (prefix < 0).any():
        vmap = word_ranks(lower.vertices, upper.vertices[:, 1:-1])
    k = lower.k
    if min(vmap.min(), emap.min()) < 0:
        raise ValueError(f"bond {k}: a trimmed word is not legal")
    if not (np.array_equal(lower.src[emap], vmap[upper.src])
            and np.array_equal(lower.dst[emap], vmap[upper.dst])):
        raise ValueError(f"bond {k}: edge images do not join vertex images")
    f = CellularMap.edgewise(upper.graph, lower.graph, vmap, emap)
    if not all(f.onto()):
        raise ValueError(f"bond {k} is not onto")
    return f


def bonding_map(oracle: LanguageOracle, k: int) -> CellularMap:
    """From approximant k+1 onto approximant k: drop one letter per end."""
    return _drop_one_letter(build_approximant(oracle, k + 1), build_approximant(oracle, k))


def _memo(fn):
    """``fn`` called once per argument; racing threads keep the first result stored."""
    store = {}

    def memoised(k):
        if k not in store:
            store.setdefault(k, fn(k))
        return store[k]
    return memoised


def approximant_system(oracle: LanguageOracle) -> InverseSystem:
    """The full tower as a lazily materialized inverse system, memoising
    its complexes, their graphs (a cached property can build twice under a
    race) and its bonds; a bond joins the memoised complexes of its levels."""
    complexes = _memo(lambda k: build_approximant(oracle, k))
    bonds = _memo(lambda k: _drop_one_letter(complexes(k + 1), complexes(k)))
    return InverseSystem(_memo(lambda k: complexes(k).graph), bonds)


def pattern_clopen(oracle: LanguageOracle, word: str, mark: int) -> ClopenSet:
    """Transversal points whose window around the marked tile reads ``word``."""
    return ClopenSet.from_cylinder(oracle, Cylinder(word, mark))


def quotient_cell(oracle: LanguageOracle, k: int, word: str, mark: int) -> str:
    """Edge of approximant k under the quotient map: the radius-k window.

    Natural in k: dropping one letter per end of the radius-(k+1) window
    gives the radius-k window, which is the bonding map on edges.
    """
    if not 0 <= mark < len(word):
        raise ValueError("mark must index a letter of the word")
    if mark - k < 0 or mark + k + 1 > len(word):
        raise ValueError(
            f"no radius-{k} window around index {mark} inside a word of "
            f"length {len(word)}"
        )
    window = word[mark - k : mark + k + 1]
    if not oracle.is_legal(window):
        raise ValueError(f"window {window!r} is not legal")
    return window


def separation_depth(
    oracle: LanguageOracle,
    x_word: str,
    x_mark: int,
    y_word: str,
    y_mark: int,
    max_k: int,
) -> int | None:
    """Least collar radius whose quotient cells differ, or None up to max_k.

    This is the computable shadow of injectivity of the limit quotient map:
    marked words standing for distinct transversal points separate at the
    radius where their windows first disagree.
    """
    if max_k < 0:
        raise ValueError(f"max_k must be nonnegative, got {max_k}")
    for word, mark in ((x_word, x_mark), (y_word, y_mark)):
        if mark - max_k < 0 or mark + max_k + 1 > len(word):
            raise ValueError(
                f"marked word of length {len(word)} cannot supply windows up "
                f"to radius {max_k}"
            )
    # windows inside legal widest ones are legal, so their strings decide;
    # otherwise, or if the test raises, each radius meets its own error
    try:
        legal = all(oracle.is_legal(word[mark - max_k : mark + max_k + 1])
                    for word, mark in ((x_word, x_mark), (y_word, y_mark)))
    except ValueError:
        legal = False
    for k in range(max_k + 1):
        cx, cy = (word[mark - k : mark + k + 1] if legal else quotient_cell(oracle, k, word, mark)
                  for word, mark in ((x_word, x_mark), (y_word, y_mark)))
        if cx != cy:
            return k
    return None
