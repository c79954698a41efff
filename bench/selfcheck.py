"""Feed every checker the program's answers and corrupted copies of them.

Usage, from the root of a checkout:

    python3 bench/selfcheck.py [--seed N]

For each workload the script asks every question of one round once,
confirms that its checker accepts the answer, then corrupts the answer in
a way that keeps it well formed (a count off by one, a wrong verdict, a
stray window, a swapped permutation entry) and confirms that the checker
rejects it.  Exits 1 if any answer is refused or any corruption passes.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import shutil
import sys
from types import SimpleNamespace

import workloads
from checks import CheckFailed
from run import BENCH, SRC, ask


def corrupt_flatten(code: int, report: dict, argv: list) -> list[tuple[int, dict]]:
    window = int(argv[argv.index("--window") + 1])
    data = report["data"]
    out = []
    if code == 0:
        bad = copy.deepcopy(report)
        bad["data"] = {"verdict": "inconclusive", "window": window}
        out.append((3, bad))
        bad = copy.deepcopy(report)
        bad["data"]["indices"] = data["indices"][:-1] + [data["indices"][-1] + 1]
        out.append((0, bad))
    else:
        bad = copy.deepcopy(report)
        bad["data"] = {"verdict": "flattening", "indices": [0, window]}
        out.append((0, bad))
    if code == 2:
        bad = copy.deepcopy(report)
        germs = bad["data"]["witness"]["germs"]
        germs[0], germs[1] = germs[0], dict(germs[0])
        out.append((2, bad))
    return out


def corrupt_report(kind: str, code: int, report: dict, argv: list) -> list[tuple[int, dict]]:
    if kind in ("search", "flat-rose", "tower", "fig8", "solenoid"):
        return corrupt_flatten(code, report, argv)
    bad = copy.deepcopy(report)
    data = bad["data"]
    if kind == "local-model":
        classes = data["classes"]
        if len(classes) > 1:
            data["classes"] = [classes[0] + classes[1], *classes[2:]]
        else:
            data["classes"] = [classes[0][:1], classes[0][1:] or ["nowhere"]]
    elif kind == "approximants":
        data["counts"][-1]["edges"] += 1
    elif kind == "separation":
        data["separation"] = 0 if data["separation"] is None else None
    elif kind.startswith("deck"):
        data["deck_order"] += 1
    elif kind == "rep":
        data["orbit"][-1] += 1
    elif kind == "metric":
        data["metric"] = "1/3" if data["metric"] != "1/3" else "1/5"
    return [(code, bad)]


def with_stray_window(s):
    return SimpleNamespace(radius=s.radius, windows=s.windows | {"?" * (2 * s.radius + 1)})


def corrupt_answer(kind: str, answer):
    if kind == "bond":
        bad = SimpleNamespace(domain=answer.domain, codomain=answer.codomain,
                              vertex_map=answer.vertex_map, edge_map=dict(answer.edge_map))
        e = next(w for w in bad.edge_map if w[:-2] != w[1:-1])
        bad.edge_map[e] = ((e[:-2], 1),)
        return bad
    if kind == "clopen":
        return {**answer, "intersect": with_stray_window(answer["intersect"])}
    if kind == "shift":
        return answer[0], with_stray_window(answer[1])
    if kind == "holonomy":
        image, loop = answer
        return image, SimpleNamespace(displacement=1, domain=loop.domain)
    if kind == "quotient-verify":
        return {**answer, "kernel_order": answer["kernel_order"] + 1}
    if kind == "monodromy":
        bad = {e: list(p) for e, p in answer.items()}
        perm = next(iter(bad.values()))
        perm[0], perm[-1] = perm[-1], perm[0]
        return bad
    raise ValueError(kind)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from laminate import cli

    problems = 0
    for workload in workloads.WORKLOADS:
        work = BENCH / "runs" / f"selfcheck-{workload}"
        report_path = work / "report.json"
        tally: dict[str, list[int]] = {}
        try:
            for q in workloads.build(workload, args.seed, work):
                row = tally.setdefault(q.kind, [0, 0])
                code, answer = ask(cli, q, report_path, io.StringIO())
                if q.argv is not None:
                    report = json.loads(report_path.read_text())
                    q.check(code, report)
                    cases = [lambda c=c, r=r: q.check(c, r) for c, r in corrupt_report(q.kind, code, report, q.argv)]
                else:
                    q.check(answer)
                    cases = [lambda: q.check(corrupt_answer(q.kind, answer))]
                row[0] += 1
                for case in cases:
                    try:
                        case()
                    except CheckFailed:
                        row[1] += 1
                    else:
                        problems += 1
                        print(f"{workload}/{q.kind}: a corrupted answer passed its check ({q.argv})")
        except CheckFailed as exc:
            problems += 1
            print(f"{workload}: a program answer failed its check: {exc}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for kind, (accepted, rejected) in sorted(tally.items()):
            print(f"{workload:10s} {kind:16s} {accepted:4d} answers accepted, {rejected:4d} corruptions rejected")
    print("selfcheck:", "ok" if problems == 0 else f"{problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
