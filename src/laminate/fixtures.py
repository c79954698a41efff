"""Stock graphs, maps and towers used across tests, demos and docs."""

from __future__ import annotations

from .branched_graph import CellularMap, Graph


def circle() -> Graph:
    """One vertex, one loop e; sides {e+} / {e-}."""
    return Graph.from_edges(
        vertices={"v"},
        edges={"e": ("v", "v")},
        sides={"v": ({("e", "+")}, {("e", "-")})},
    )


def circle_double() -> CellularMap:
    """The degree-two self-cover of the circle: e -> ee."""
    g = circle()
    return CellularMap(g, g, {"v": "v"}, {"e": (("e", 1), ("e", 1))})


def figure_eight() -> Graph:
    """Wedge of two circles at w; sides {a+, b+} / {a-, b-}."""
    return Graph.from_edges(
        vertices={"w"},
        edges={"a": ("w", "w"), "b": ("w", "w")},
        sides={
            "w": (
                {("a", "+"), ("b", "+")},
                {("a", "-"), ("b", "-")},
            )
        },
    )


def figure_eight_double() -> CellularMap:
    """Squaring on both petals: a -> aa, b -> bb.  Not flattening."""
    g = figure_eight()
    return CellularMap(
        g,
        g,
        {"w": "w"},
        {"a": (("a", 1), ("a", 1)), "b": (("b", 1), ("b", 1))},
    )
