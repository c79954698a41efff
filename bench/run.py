"""Question benchmark for the laminate engine.

Usage, from the root of a checkout:

    python3 bench/run.py --workload flatten|subshift|coverings \
        --seed N --seconds S --trace 0|1

One client asks a seeded stream of questions in a closed loop: the next
question is asked only after the previous answer is in.  A question is one
call of ``laminate.cli.main(argv)`` with ``--report``, or one call of a
public library function where the command line has no subcommand for the
work.  Every answer is checked against an independent computation
(``checks.py``).  The run repeats whole rounds of the stream for as long
as another round fits in ``--seconds``.

A question's time is the median of its times over the rounds, and the
percentiles and the rate are taken over those medians, so that one slow
round does not move them.  The time to import ``laminate.cli`` is
measured in fresh interpreters a few times per round, spread over the
run, and ``setup_s`` is the median.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the layers' public functions are
wrapped (``tracing.py``) and the per-layer metrics are reported instead.
See README.md for the metrics, the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from checks import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS_PER_ROUND = 2


def hygienic_env() -> dict:
    """The environment every question runs under.

    The on-disk word cache would let later runs skip subshift work, a
    random hash seed would change set iteration order from run to run, and
    BLAS/OpenMP pools may not outnumber the cores.
    """
    env = dict(os.environ)
    env.pop("LAMINATE_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    cores = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(env: dict) -> float:
    """Wall time for a fresh interpreter to import laminate.cli."""
    probe = ("import time; t = time.perf_counter(); import laminate.cli; "
             "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ask(cli, question, report: Path, sink: io.StringIO):
    """One question; returns (exit code or None, library answer or None)."""
    if question.argv is not None:
        with redirect_stdout(sink), redirect_stderr(sink):
            return cli.main(["--report", str(report), *question.argv]), None
    return None, question.call()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "laminate" / "cli.py").is_file():
        print(f"error: no laminate sources under {SRC}", file=sys.stderr)
        return 2
    env = hygienic_env()
    if any(os.environ.get(k) != v for k, v in env.items()) or "LAMINATE_CACHE_DIR" in os.environ:
        # re-exec in place so the interpreter itself starts with the fixed
        # hash seed and thread caps
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)

    sys.path.insert(0, str(SRC))
    import tracing

    import_seconds(env)  # the first import may compile bytecode
    runs = BENCH / "runs"
    work = runs / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        questions = workloads.build(args.workload, args.seed, work)
        from laminate import cli

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        report = work / "report.json"
        sink = io.StringIO()
        asked = [[] for _ in questions]  # each question's times over the rounds
        setups, failures, wrong = [], [], 0
        attempted = rounds = 0
        start = time.perf_counter()
        while True:
            # The benchmark's own objects (inputs, the checkers' word sets)
            # move to the permanent generation, so the collections inside
            # a question and the one before it scan only the program's.
            gc.collect()
            gc.freeze()
            round_start = time.perf_counter()
            setups += [import_seconds(env) for _ in range(SETUPS_PER_ROUND)]
            for i, q in enumerate(questions):
                gc.collect()
                sink.seek(0)
                sink.truncate()
                report.unlink(missing_ok=True)
                attempted += 1
                if tracer:
                    tracer.begin_question(attempted, q.describe())
                t0 = time.perf_counter()
                try:
                    code, answer = ask(cli, q, report, sink)
                except Exception as exc:  # a raising question is a failed one
                    failures.append(f"{q.kind}: raised {type(exc).__name__}: {exc}")
                    continue
                finally:
                    elapsed = time.perf_counter() - t0
                    if tracer:
                        tracer.end_question()
                try:
                    if q.argv is not None:
                        if code == 1:
                            failures.append(f"{q.kind}: exit 1: {sink.getvalue().strip()[:200]}")
                            continue
                        if code != 0 and q.argv[0] != "check-flatten":
                            raise CheckFailed(f"exit {code}")
                        q.check(code, json.loads(report.read_text()))
                    else:
                        q.check(answer)
                except Exception as exc:  # a missing or malformed answer is a wrong one
                    wrong += 1
                    failures.append(f"{q.kind}: wrong answer: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    answer = None
                asked[i].append(elapsed)
            rounds += 1
            now = time.perf_counter()
            # ask another whole round only if it fits in the run
            if now - start + (now - round_start) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
            trace_file = runs / f"trace-{args.workload}-{args.seed}.npz"
            layer = tracer.write(trace_file, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    medians = [statistics.median(ts) if ts else None for ts in asked]
    times = [t for t in medians if t is not None]
    for line in failures[:20]:
        print("FAILED", line)
    print(f"workload {args.workload}: {attempted} questions attempted, {len(failures)} failed, "
          f"{rounds} rounds of {len(questions)}, seed {args.seed}, trace {args.trace}")
    by_kind: dict[str, list[float]] = {}
    for q, t in zip(questions, medians):
        if t is not None:
            by_kind.setdefault(q.kind, []).append(t)
    for kind, ts in sorted(by_kind.items()):
        print(f"  {kind:16s} n={len(ts):4d}  p50 {percentile(ts, 0.5) * 1e3:9.2f} ms  "
              f"max {max(ts) * 1e3:9.2f} ms")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "questions_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "question_p50_ms": (percentile(times, 0.5) * 1e3 if times else 0.0, "ms"),
        "question_p90_ms": (percentile(times, 0.9) * 1e3 if times else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:12.4f} {unit}")
    if args.trace:
        print(f"  trace written to {trace_file.relative_to(ROOT)}")
        metrics = layer
    result = {"correct": wrong == 0, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
