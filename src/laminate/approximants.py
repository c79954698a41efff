"""Collared approximant complexes of subshift suspensions.

Level k of the tower is the de-Bruijn-style branched graph whose vertices
are the legal words of length 2k and whose edges are the legal words of
length 2k+1 (an edge runs from its prefix to its suffix; tiles are unit
intervals, one prototile per letter).  The bonding map drops one letter
from each end, which is independent of how the window extends -- that is
exactly why every bonding map is flattening.  Quotient maps send a marked
word to the edge labelled by the radius-k window around the mark.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branched_graph import BranchedGraph, CellularMap
from .inverse_system import InverseSystem
from .subshift import LanguageOracle
from .transversal import ClopenSet, Cylinder


@dataclass(frozen=True)
class CollaredComplex:
    """Approximant at collar radius k; labels double as cell ids."""

    k: int
    graph: BranchedGraph

    @property
    def vertex_words(self) -> frozenset:
        return frozenset(self.graph.vertices)

    @property
    def edge_words(self) -> frozenset:
        return frozenset(self.graph.edges)


def build_approximant(oracle: LanguageOracle, k: int) -> CollaredComplex:
    """The radius-k collared complex; k = 0 is the rose of letters."""
    if k < 0:
        raise ValueError("collar radius must be nonnegative")
    vertices = oracle.words(2 * k)
    edges = {w: (w[:-1], w[1:]) for w in oracle.words(2 * k + 1)}
    incoming: dict = {v: set() for v in vertices}
    outgoing: dict = {v: set() for v in vertices}
    for w, (src, dst) in edges.items():
        outgoing[src].add((w, "+"))
        incoming[dst].add((w, "-"))
    sides = {v: (incoming[v], outgoing[v]) for v in vertices}
    return CollaredComplex(k, BranchedGraph(vertices, edges, sides))


def _drop_one_letter(upper: BranchedGraph, lower: BranchedGraph) -> CellularMap:
    """The bond from approximant k+1 onto approximant k, given both levels."""
    vmap = {w: w[1:-1] for w in upper.vertices}
    emap = {w: ((w[1:-1], 1),) for w in upper.edges}
    return CellularMap(upper, lower, vmap, emap)


def bonding_map(oracle: LanguageOracle, k: int) -> CellularMap:
    """From approximant k+1 onto approximant k: drop one letter per end."""
    return _drop_one_letter(build_approximant(oracle, k + 1).graph,
                            build_approximant(oracle, k).graph)


def approximant_system(oracle: LanguageOracle) -> InverseSystem:
    """The full tower as a lazily materialized inverse system.

    Each bond joins the system's own memoised levels, so every approximant
    is built once.
    """
    system = InverseSystem(
        lambda k: build_approximant(oracle, k).graph,
        lambda k: _drop_one_letter(system.level(k + 1), system.level(k)),
    )
    return system


def pattern_clopen(oracle: LanguageOracle, word: str, mark: int) -> ClopenSet:
    """Transversal points whose window around the marked tile reads ``word``."""
    if not oracle.is_legal(word):
        raise ValueError(f"word {word!r} is not legal")
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
    for k in range(max_k + 1):
        cx = quotient_cell(oracle, k, x_word, x_mark)
        cy = quotient_cell(oracle, k, y_word, y_mark)
        if cx != cy:
            return k
    return None
