"""Per-question times of named spans in a traced run.

Usage:

    python3 bench/spans.py bench/runs/trace-flatten-1.npz inverse_system.search

For every question that entered one of the named spans, prints the time
spent inside the outermost such spans (children included), as the median
over the rounds of the run, with the question's command line or library
call.  The traced run writes the ``.npz`` file; see tracing.py.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict

import numpy as np


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trace = np.load(argv[0])
    names = list(trace["names"])
    wanted = {names.index(n) for n in argv[1:] if n in names}
    name, parent, question = trace["name"], trace["parent"], trace["question"]
    dur = trace["end"] - trace["start"]
    labels = trace["labels"]
    totals: dict[tuple, float] = defaultdict(float)
    for i in np.flatnonzero(np.isin(name, list(wanted))):
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:  # outermost span of its name
            totals[(names[name[i]], str(labels[question[i] - 1]), int(question[i]))] += dur[i]
    per_label: dict[tuple, list] = defaultdict(list)
    for (span, label, _), seconds in totals.items():
        per_label[(span, label)].append(seconds)
    for (span, label), values in sorted(per_label.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"{statistics.median(values) * 1e3:10.1f} ms  {span:28s} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
