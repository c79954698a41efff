"""Every subcommand refuses a malformed input cleanly.

One valid input per kind of file is mutated one JSON node at a time: each
node in turn, the whole file included, is replaced by each of a few values
of the wrong kind or range, and the file is also replaced by an array
nested too deeply to parse.  Every mutant must end in a known exit code,
with no traceback on stderr and a written ``--report``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from laminate.cli import main

REPLACEMENTS = (None, True, 1.5, "x", "1/0", [], {}, -1)
DEEP = "[" * 5000 + "]" * 5000

ROSE = {"vertices": ["w"],
        "edges": [{"id": "a", "src": "w", "dst": "w"}, {"id": "b", "src": "w", "dst": "w"}],
        "sides": {"w": {"A": ["a+", "b+"], "B": ["a-", "b-"]}}}
FIBONACCI = {"vertex_map": {"w": "w"}, "edge_map": {"a": ["a", "b"], "b": ["a"]}}
LOOP = {"vertices": ["w"], "edges": [{"id": "a", "src": "w", "dst": "w"}]}
TWO_CYCLE = {"total": {"vertices": ["0", "1"], "edges": [{"id": "a0", "src": "0", "dst": "1"},
                                                         {"id": "a1", "src": "1", "dst": "0"}]},
             "vertex_map": {"0": "w", "1": "w"}, "edge_map": {"a0": "a", "a1": "a"}}
TOWER_ASKS = (["deck-group", "--tower", "{}", "--level", "2"], ["rep", "--tower", "{}", "--loop", "a"],
              ["metric", "--tower", "{}", "--x=1", "--y=a", "--depth", "2"])

# a valid input and the command lines that read it, "{}" standing for its path
INPUTS = {
    "stationary system": ({"stationary": {"graph": ROSE, "map": FIBONACCI}},
                          [["check-flatten", "--system", "{}", "--window", "4"]]),
    "levels and bonds": ({"levels": [ROSE, ROSE, ROSE], "bonds": [FIBONACCI, FIBONACCI]},
                         [["check-flatten", "--system", "{}"]]),
    "oracle": ({"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}},
               [["approximants", "--input", "{}", "--k", "2"],
                ["separation", "--input", "{}", "--x", "aab@1", "--y", "bab@1", "--max-k", "1"]]),
    "tree": ({"dimension": 2, "vertices": ["v0", "v1"], "edges": [["v1", "v0"]],
              "sectors": {"v0": [], "v1": [["1", "0"], ["0", "-1"]]}},
             [["local-model", "classes", "--tree", "{}", "--point", "1/2,-1/2"]]),
    "graph": (ROSE, [["export-dot", "--graph", "{}"]]),
    "file tower": ({"base": LOOP, "levels": [TWO_CYCLE], "base_vertex": "w"}, TOWER_ASKS),
    "cyclic tower": ({"circle_degrees": [2, 3], "base_vertex": 0}, TOWER_ASKS),
}


def _paths(node, path=()):
    """The path of every node of a JSON value, the value itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _replaced(node, path, value):
    """A copy of ``node`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    out = node.copy()
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_mutant_ends_cleanly(name, tmp_path):
    data, asks = INPUTS[name]
    mutants = [json.dumps(_replaced(data, path, value)) for path in _paths(data) for value in REPLACEMENTS]
    source, report = tmp_path / "input.json", tmp_path / "report.json"
    faults = []
    for text in [json.dumps(data), *mutants, DEEP]:
        source.write_text(text)
        for ask in asks:
            argv = ["--report", str(report), *(str(source) if a == "{}" else a for a in ask)]
            report.unlink(missing_ok=True)
            err = io.StringIO()
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = main(argv)
            except Exception as exc:  # every escape is a fault to report
                faults.append(f"{ask[0]} on {text[:80]}: raised {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2, 3) or "Traceback" in err.getvalue() or not report.is_file():
                faults.append(f"{ask[0]} on {text[:80]}: exit {code}, stderr {err.getvalue()[:80]!r}")
    assert faults == []
    assert len(mutants) >= 8 * 5
