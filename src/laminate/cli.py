"""The ``laminate`` command line: batch front end over the library.

Every command prints a short human report and can also write a JSON
:class:`RunReport`.  Exit codes: 0 success (for ``check-flatten``:
flattening), 2 certified non-lamination, 3 inconclusive window, 1 input or
schema error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import formats
from .approximants import build_approximant, separation_depth
from .inverse_system import (
    Flattening,
    NotFlatteningUpTo,
    NotLamination,
    is_flattening_system,
)
from .local_model import glue_classes
from .profinite import delta_infinity_rep, metric, profinite_pow
from .transversal import Cylinder

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_LAMINATION = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class RunReport:
    """Deterministic record of one command (timing aside)."""

    command: list[str]
    seed: int | None
    data: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def to_json(self, include_timing: bool = True) -> dict:
        out = {"command": self.command, "seed": self.seed, "data": self.data}
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def _emit(report: RunReport, args):
    if getattr(args, "report", None):
        Path(args.report).write_text(json.dumps(report.to_json(), indent=2) + "\n")


def cmd_check_flatten(args, report: RunReport) -> int:
    system = formats.load_system(args.system)
    verdict = is_flattening_system(system, args.window)
    if isinstance(verdict, Flattening):
        print(f"flattening: telescoping indices {list(verdict.indices)}")
        report.data["verdict"] = "flattening"
        report.data["indices"] = list(verdict.indices)
        return EXIT_OK
    if isinstance(verdict, NotLamination):
        witness = verdict.witness
        germs = [
            {"a": formats.format_half_edge(g.a), "b": formats.format_half_edge(g.b)}
            for g in witness.germs
        ]
        print(
            f"not a lamination: invariant double section at vertex "
            f"{witness.vertex!r}"
        )
        for g in germs:
            print(f"  germ {g['a']} | {g['b']}")
        report.data["verdict"] = "not-lamination"
        report.data["witness"] = {"vertex": str(witness.vertex), "germs": germs}
        return EXIT_NOT_LAMINATION
    assert isinstance(verdict, NotFlatteningUpTo)
    print(f"inconclusive: no flattening telescoping within window {verdict.window}")
    report.data["verdict"] = "inconclusive"
    report.data["window"] = verdict.window
    return EXIT_INCONCLUSIVE


def cmd_approximants(args, report: RunReport) -> int:
    if args.k < 0:
        raise ValueError(f"--k must be nonnegative, got {args.k}")
    oracle = formats.load_oracle(args.input)
    # level k has the legal 2k-words as vertices and (2k+1)-words as edges; the
    # longest length first, so that the shorter ones read prefixes of its words
    sizes = [len(oracle.rows(n)) for n in range(2 * args.k + 1, -1, -1)][::-1]
    counts = [{"k": k, "vertices": sizes[2 * k], "edges": sizes[2 * k + 1]} for k in range(args.k + 1)]
    for row in counts:
        print(f"k={row['k']}: {row['vertices']} vertices, {row['edges']} edges")
    report.data["counts"] = counts
    if args.emit is not None:
        top = build_approximant(oracle, args.k)
        if args.emit == "dot":
            text = formats.export_dot(top.graph, name=f"approximant_{top.k}")
        else:
            text = json.dumps(formats.branched_graph_to_json(top.graph), indent=2) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    return EXIT_OK


def cmd_separation(args, report: RunReport) -> int:
    oracle = formats.load_oracle(args.input)
    x = Cylinder.parse(args.x)
    y = Cylinder.parse(args.y)
    depth = separation_depth(oracle, x.word, x.mark, y.word, y.mark, args.max_k)
    if depth is None:
        print(f"undistinguished up to collar radius {args.max_k}")
    else:
        print(f"separated at collar radius {depth}")
    report.data["separation"] = depth
    report.data["max_k"] = args.max_k
    return EXIT_OK


def cmd_deck_group(args, report: RunReport) -> int:
    tower = formats.load_tower(args.tower)
    group = tower.deck_group(args.level)
    degree, order = len(group.fiber), group.order()
    print(f"level {args.level}: degree {degree}, deck order {order}, regular: {group.regular}")
    report.data["degree"] = degree
    report.data["deck_order"] = order
    report.data["regular"] = group.regular
    report.data["orbit"] = list(group.orbit)
    # the orbit is the whole fiber exactly when the group is regular
    report.data["free_transitive"] = group.regular
    return EXIT_OK


def _element_from_arg(tower, text: str, depth: int):
    """A power of the first base edge when ``text`` is an optional "-" and
    ASCII digits, else the loop word ``text``."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return delta_infinity_rep(tower, formats.parse_loop(text, tower.base), depth)
    generator = formats.parse_loop(str(tower.base.edge_ids[0]), tower.base)
    return profinite_pow(delta_infinity_rep(tower, generator, depth), int(text))


def cmd_metric(args, report: RunReport) -> int:
    tower = formats.load_tower(args.tower)
    x = _element_from_arg(tower, args.x, args.depth)
    y = _element_from_arg(tower, args.y, args.depth)
    value = metric(x, y)
    print(
        f"d(x, y) = {formats.format_fraction(value.partial_sum)} "
        f"(truncated at depth {value.depth}, tail below "
        f"{formats.format_fraction(value.error_bound)})"
    )
    report.data["metric"] = formats.format_fraction(value.partial_sum)
    report.data["depth"] = value.depth
    report.data["error_bound"] = formats.format_fraction(value.error_bound)
    return EXIT_OK


def cmd_rep(args, report: RunReport) -> int:
    tower = formats.load_tower(args.tower)
    loop = formats.parse_loop(args.loop, tower.base)
    depth = args.depth if args.depth is not None else tower.depth
    element = delta_infinity_rep(tower, loop, depth)
    orbit = [element.basepoint_image(k) for k in range(1, depth + 1)]
    print(f"representation of loop {args.loop!r}: base-point orbit {orbit}")
    report.data["orbit"] = orbit
    report.data["depth"] = depth
    return EXIT_OK


def cmd_local_model(args, report: RunReport) -> int:
    tree = formats.branch_tree_from_json(formats.read_json(args.tree))
    point = formats.parse_point(args.point)
    classes = glue_classes(tree, point)
    printable = [sorted(map(str, block)) for block in classes]
    print(f"{len(classes)} glue classes at ({args.point}):")
    for block in printable:
        print("  {" + ", ".join(block) + "}")
    report.data["classes"] = printable
    return EXIT_OK


def cmd_export_dot(args, report: RunReport) -> int:
    g = formats.branched_graph_from_json(formats.read_json(args.graph))
    text = formats.export_dot(g, name=args.name)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    report.data["vertices"] = len(g.vertices)
    report.data["edges"] = len(g.edges)
    report.data["branch_points"] = len(g.branch_points())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="laminate",
        description="Branched 1-manifolds, approximant towers, covering dynamics",
    )
    parser.add_argument("--seed", type=int, default=None, help="echoed into reports")
    parser.add_argument("--report", help="write a JSON run report here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-flatten", help="flattening / lamination verdict")
    p.add_argument("--system", required=True)
    p.add_argument("--window", type=int, default=8)
    p.set_defaults(func=cmd_check_flatten)

    p = sub.add_parser("approximants", help="build collared approximants")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit", choices=["dot", "json"], default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_approximants)

    p = sub.add_parser("separation", help="least collar radius separating two points")
    p.add_argument("--input", required=True)
    p.add_argument("--x", required=True, help="cylinder literal word@index")
    p.add_argument("--y", required=True, help="cylinder literal word@index")
    p.add_argument("--max-k", type=int, default=6, dest="max_k")
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("deck-group", help="deck group of a tower level")
    p.add_argument("--tower", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_deck_group)

    p = sub.add_parser("metric", help="transverse metric between elements")
    p.add_argument("--tower", required=True)
    p.add_argument("--x", required=True, help="integer power of the generator, or a loop word")
    p.add_argument("--y", required=True)
    p.add_argument("--depth", type=int, default=16)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("rep", help="monodromy representation of a base loop")
    p.add_argument("--tower", required=True)
    p.add_argument("--loop", required=True, help='space-separated edges, e.g. "a a -b"')
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("local-model", help="local branched model reports")
    p.add_argument("local_cmd", choices=["classes"])
    p.add_argument("--tree", required=True)
    p.add_argument("--point", required=True, help='rational vector "1/2,-1/2"')
    p.set_defaults(func=cmd_local_model)

    p = sub.add_parser("export-dot", help="DOT rendering of a branched graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--name", default="laminate")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    report = RunReport(command=["laminate", *argv], seed=args.seed)
    start = time.perf_counter()
    try:
        code = args.func(args, report)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.data["error"] = str(exc)
        report.elapsed_ms = (time.perf_counter() - start) * 1000
        _emit(report, args)
        return EXIT_ERROR
    report.elapsed_ms = (time.perf_counter() - start) * 1000
    report.data.setdefault("exit_code", code)
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
