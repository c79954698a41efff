"""The traced benchmark patches library names; they must all still exist."""

import importlib.util
from pathlib import Path

from laminate import coverings, profinite


def test_tracer_installs_and_uninstalls():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cover = coverings.GraphCovering
    before = (cover.__dict__["deck_group"], cover.__dict__["deck_transformation_from"],
              profinite.QuotientHom.__dict__["verify"], profinite.delta_infinity_rep)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cover.__dict__["deck_group"] is not before[0]
    finally:
        tracer.uninstall()
    after = (cover.__dict__["deck_group"], cover.__dict__["deck_transformation_from"],
             profinite.QuotientHom.__dict__["verify"], profinite.delta_infinity_rep)
    assert after == before
