"""The exact verdict for stationary systems.

A stationary system is decided from the least flattening power of its
bond's germ map.  On a seeded sweep of random roses and branched circles
the verdict is checked against the exhaustive window search and the tower
sweep on the same map given as a tower, against powers of the map built
by composing edge paths, and against the non-lamination certificate
computed on labels.
"""

import functools
import json
import math
from collections import Counter
from random import Random

import pytest

from laminate import fixtures, formats, inverse_system
from laminate.branched_graph import compose, compose_germs, is_flattening
from laminate.cli import main
from laminate.inverse_system import (
    Flattening,
    InverseSystem,
    NotFlatteningUpTo,
    NotLamination,
    is_flattening_system,
    not_lamination_certificate,
)

from helpers import (
    random_stationary_maps,
    reference_certificate,
    reference_germ_image,
    reference_germs_at,
    reference_tower_search,
    rose_map,
)

SWEEP = 2000


@functools.cache
def sweep() -> list:
    """(self-map, window) pairs: roses of 1-4 petals and branched circles,
    at windows 1-30."""
    rng = Random(1717)
    return [(f, rng.randint(1, 30)) for f in random_stationary_maps(rng, SWEEP)]


def fibonacci_rose():
    return rose_map(("a", "b"), {"a": "ab", "b": "a"})


def test_verdicts_equal_the_window_search_and_witnesses_the_reference():
    kinds = Counter()
    for f, window in sweep():
        system = InverseSystem.stationary(f)
        verdict = is_flattening_system(system, window)
        tower = InverseSystem.from_lists([f.domain] * (window + 1), [f] * window)
        searched = reference_tower_search(tower, window)
        assert is_flattening_system(tower, window) == searched
        reference = reference_certificate(system)
        if isinstance(verdict, NotLamination):
            # a tower is never certified, so its search stays inconclusive
            assert searched == NotFlatteningUpTo(window)
            assert verdict.witness == reference
        else:
            assert verdict == searched
            assert reference is None
        assert not_lamination_certificate(system) == reference
        kinds[type(verdict).__name__, f.domain.nv] += 1
    # both graph shapes reach all three verdicts
    assert min(kinds.values()) >= 40 and len(kinds) == 6, kinds


def test_verdicts_hold_under_path_composition():
    beyond_window = 0
    for f, window in sweep():
        system = InverseSystem.stationary(f)
        verdict = is_flattening_system(system, window)
        # the least flattening power, by composing edge paths up to f^H
        h = 2 * f.domain.ne
        power, least = f, None
        for n in range(1, h + 1):
            if is_flattening(power):
                least = n
                break
            power = compose(f, power)
        if isinstance(verdict, Flattening):
            assert least is not None and verdict.indices == tuple(range(window % least, window + 1, least))
            for lo, hi in zip(verdict.indices, verdict.indices[1:]):
                assert is_flattening(system.composite(hi, lo))
            continue
        if least is not None:
            assert least > window and verdict == NotFlatteningUpTo(window)
            beyond_window += 1
            continue
        assert not is_flattening(power)  # f^H, and so no power, flattens
        if isinstance(verdict, NotLamination):
            witness = verdict.witness
            germs = reference_germs_at(f.domain, witness.vertex)
            images = [reference_germ_image(f, g) for g in germs]
            assert witness.germs[0] != witness.germs[1]
            assert {reference_germ_image(f, g) for g in witness.germs} == set(witness.germs)
            for g in witness.germs:
                assert images.count(reference_germ_image(f, g)) == 1
    assert beyond_window >= 10


@pytest.mark.parametrize("bond", [fibonacci_rose, fixtures.figure_eight_double])
def test_the_decision_composes_as_many_germ_maps_at_any_window(bond, monkeypatch):
    calls = []

    def counted(g, f):
        calls.append(1)
        return compose_germs(g, f)

    monkeypatch.setattr(inverse_system, "compose_germs", counted)
    f = bond()
    counts = []
    for window in (24, 10**6):
        calls.clear()
        is_flattening_system(InverseSystem.stationary(f), window)
        counts.append(len(calls))
    h = 2 * f.domain.ne
    assert counts[0] == counts[1] <= 2 * math.ceil(math.log2(h)) + 2


def test_fibonacci_rose_at_window_a_million_is_inconclusive(tmp_path, capsys):
    # no power of a -> ab, b -> a flattens and no germ pair is invariant
    f = fibonacci_rose()
    system = tmp_path / "fib.json"
    system.write_text(json.dumps({"stationary": {
        "graph": formats.branched_graph_to_json(f.domain), "map": formats.cellular_map_to_json(f)}}))
    report = tmp_path / "report.json"
    argv = ["--report", str(report), "check-flatten", "--system", str(system), "--window", "1000000"]
    assert main(argv) == 3
    assert capsys.readouterr().out == "inconclusive: no flattening telescoping within window 1000000\n"
    data = json.loads(report.read_text())["data"]
    assert data == {"verdict": "inconclusive", "window": 1000000, "exit_code": 3}
