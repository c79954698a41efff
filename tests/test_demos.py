"""Every demo script runs to completion without writing to stderr, and
prints, byte for byte, the output pinned under ``tests/demo_outputs``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "demo_outputs"


def test_demos_are_found():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=tmp_path,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert done.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
