"""The traced benchmark patches library names; they must all still exist."""

import importlib.util
import json
from pathlib import Path

from laminate import approximants, coverings, profinite
from laminate.subshift import LanguageOracle


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
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


def test_traced_bond_builds_no_validated_cellular_map():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        system = approximants.approximant_system(LanguageOracle.full_shift(["0", "1"]))
        system.bond(2)
    finally:
        tracer.uninstall()
    assert "inverse_system.bond" in tracer.ids and "approximants.build" in tracer.ids
    assert "branched_graph.cellular_map" not in tracer.ids
    assert tracer.counts["approximants.cells_built"] == (16 + 32) + (64 + 128)


def test_traced_rep_stores_one_int_per_level(tmp_path, capsys):
    from laminate import cli

    tower = tmp_path / "dyadic.json"
    tower.write_text(json.dumps({"circle_degrees": [2] * 19}))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert cli.main(["rep", "--tower", str(tower), "--loop", "0 0 -0", "--depth", "20"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.endswith(f"orbit {[0] + [1] * 19}\n")
    assert tracer.counts["profinite.component_ints"] == 20


def test_traced_clopen_counts_the_windows_it_returns():
    from laminate import transversal
    from laminate.subshift import fibonacci

    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        fib = LanguageOracle.from_substitution(fibonacci())
        s = transversal.ClopenSet.from_cylinders(fib, [transversal.Cylinder("ab", 0)])
        moved = transversal.shift_set(s, 1)
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("transversal.shift") == 1
    # from_cylinders, its from_cylinder and union, and the union's two
    # canonicalizations: of the empty set and of the cylinder's own set
    assert spans.count("transversal.clopen") == 5
    empty = transversal.canonicalize(transversal.ClopenSet.empty(fib), s.radius)
    returned = [s, s, s, empty, s, moved]
    assert tracer.counts["transversal.windows_out"] == sum(len(x.windows) for x in returned)
    assert tracer.counts["transversal.windows_out"] == 4 * 2 + 3


def test_traced_tower_questions_build_levels_inside_their_readers(tmp_path, monkeypatch, capsys):
    from helpers import cayley_tower_json

    from laminate import cli, formats

    path = tmp_path / "cayley.json"
    path.write_text(json.dumps(cayley_tower_json([(2, 1), (2, 2), (4, 2), (4, 4), (8, 4), (8, 8)])))
    tracer = load_tracing().Tracer()
    built, original = [], formats._covering_from_level

    def recording(*args):
        built.append([tracer.names[tracer.name[i]] for i in tracer.stack])
        return original(*args)

    monkeypatch.setattr(formats, "_covering_from_level", recording)
    try:
        tracer.install()
        perms = formats.load_tower(path).generator_monodromies(4)
        assert cli.main(["deck-group", "--tower", str(path), "--level", "5"]) == 0
    finally:
        tracer.uninstall()
    assert sorted(len(p) for p in perms.values()) == [8, 8]
    assert capsys.readouterr().out == "level 5: degree 16, deck order 16, regular: True\n"
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("formats.load") == 2 and "coverings.composite_map" in spans
    # levels 2..4, then 2..5: each built on first read, never while loading
    assert len(built) == 3 + 4
    assert all("coverings.composite_map" in stack and "formats.load" not in stack for stack in built)
