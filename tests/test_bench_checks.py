"""The benchmark's independent bond checker accepts the library's bonds."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from laminate.approximants import approximant_system
from laminate.subshift import LanguageOracle, Substitution


def load_checks():
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


# the four shift kinds of the benchmark's subshift workload, with a radius each
SHIFTS = {
    "full": ({"kind": "full", "alphabet": ["1", "0"]}, 3),
    "golden": ({"kind": "golden", "alphabet": ["q", "p"]}, 4),
    "fibonacci": ({"kind": "fibonacci", "alphabet": ["y", "x"], "rules": {"y": "yx", "x": "y"}}, 6),
    "thue-morse": ({"kind": "thue-morse", "alphabet": ["b", "a"], "rules": {"b": "ba", "a": "ab"}}, 4),
}


def oracle(spec: dict) -> LanguageOracle:
    alphabet = spec["alphabet"]
    if spec["kind"] == "golden":
        return LanguageOracle.from_forbidden(alphabet, [alphabet[1] * 2])
    if "rules" in spec:
        return LanguageOracle.from_substitution(Substitution(tuple(alphabet), spec["rules"]))
    return LanguageOracle.full_shift(alphabet)


@pytest.mark.parametrize("name", sorted(SHIFTS))
def test_check_bond_accepts_bonds_and_rejects_a_corrupted_edge_map(name):
    checks = load_checks()
    spec, k = SHIFTS[name]
    lang = checks.Language(spec)
    bond = approximant_system(oracle(spec)).bond(k)
    checks.check_bond(lang, k, bond)
    # as bench/selfcheck.py does: send one edge to a word that is not its trim
    bad = SimpleNamespace(domain=bond.domain, codomain=bond.codomain,
                          vertex_map=bond.vertex_map, edge_map=dict(bond.edge_map))
    e = next(w for w in bad.edge_map if w[:-2] != w[1:-1])
    bad.edge_map[e] = ((e[:-2], 1),)
    with pytest.raises(checks.CheckFailed):
        checks.check_bond(lang, k, bad)
