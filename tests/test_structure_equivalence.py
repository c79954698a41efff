"""Subshift answers read off the sorted, factor-closed rows equal the answers
of searching and re-testing (the reference paths in helpers): bonds,
separation radii, cylinders and shorter languages, error messages included."""

import dataclasses
import itertools
import re
import warnings
from random import Random

import numpy as np

from laminate.approximants import _drop_one_letter, build_approximant, separation_depth
from laminate.subshift import LanguageOracle, Substitution
from laminate.transversal import ClopenSet, Cylinder

from helpers import (
    brute_sft_words,
    checked_separation_depth,
    pulled_back_cylinder,
    random_oracles,
    searched_drop_one_letter,
    unique_prefix_rows,
)


def _non_primitive(rules: dict) -> LanguageOracle:
    """The substitution's oracle, with its letters ranked in the order of ``rules``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return LanguageOracle.from_substitution(Substitution(tuple(rules), rules))


SPECIAL = [
    lambda: _non_primitive({"a": "ba", "b": "b"}),  # ba extends to no longer word
    lambda: _non_primitive({"a": "ccb", "b": "b", "c": "b"}),  # no words of length 4 or more
    lambda: LanguageOracle.from_forbidden(["a", "b"], ["a", "b"]),  # no words at all
]


def _systems(seed: int) -> list:
    """Factories of fresh oracles: random SFTs and primitive substitutions,
    and the special ones above."""
    return random_oracles(seed) + SPECIAL


def _outcome(call):
    """A call's answer, or the type and message of its ValueError."""
    try:
        return call()
    except ValueError as e:
        return type(e).__name__, str(e)


def _bond(drop, upper, lower):
    """A bond's rank arrays, or its error, from complex factories."""
    def arrays():
        f = drop(upper(), lower())
        return f.vmap.tolist(), f.offsets.tolist(), f.steps.tolist()
    return _outcome(arrays)


def test_shorter_rows_equal_the_sorted_distinct_prefixes():
    top = 9
    for make in _systems(53):
        oracle, reference = make(), make()
        longest = _outcome(lambda: reference.rows(top))
        prefixes = isinstance(longest, np.ndarray) and (
            oracle.substitution is None or oracle.substitution.is_primitive)
        for L in range(top, -1, -1):
            got = _outcome(lambda: oracle.rows(L))
            if not prefixes:  # every length computed on its own, or an empty language
                assert str(got) == str(_outcome(lambda: make().rows(L))), (oracle.alphabet, L)
                continue
            assert np.array_equal(got, unique_prefix_rows(longest, L)), (oracle.alphabet, L)
            if oracle.substitution is None:
                assert oracle.words(L) == frozenset(
                    brute_sft_words(oracle.alphabet, oracle.forbidden, L, margin=12))


def test_bonds_equal_the_middle_slice_searches():
    for make in _systems(59):
        oracle = make()
        for k in range(4):
            upper, lower = (lambda: build_approximant(oracle, k + 1)), (lambda: build_approximant(oracle, k))
            assert _bond(_drop_one_letter, upper, lower) == _bond(searched_drop_one_letter, upper, lower)


def test_bonds_across_languages_equal_the_middle_slice_searches():
    rng = Random(61)
    makers = _systems(61) + [
        lambda: LanguageOracle.full_shift(["a", "b"]),
        lambda: LanguageOracle.from_forbidden(["a", "b"], ["bb"]),
        # with b ranked first, b^i a^j and the words a b^i, which do not extend to the left
        lambda: LanguageOracle.from_forbidden(["b", "a"], ["ab"]),
        lambda: _non_primitive({"b": "b", "a": "ab"}),
    ]
    oracles = [make() for make in makers]
    pairs = [(u, v) for u, v in itertools.product(oracles, repeat=2) if u.alphabet == v.alphabet]
    outcomes = set()
    for u, v in rng.sample(pairs, 150) + [(oracles[-1], oracles[-2])]:
        for k in range(3):
            upper, lower = (lambda: build_approximant(u, k + 1)), (lambda: build_approximant(v, k))
            got = _bond(_drop_one_letter, upper, lower)
            assert got == _bond(searched_drop_one_letter, upper, lower), (u.alphabet, k)
            outcomes.add(re.sub(r"\d+", "k", got[1]) if isinstance(got[0], str) else "map")
    # the upper vertex abbb has no lower edge abb as its prefix, yet trims to
    # the lower vertex bb, which is not the end of the last lower edge
    upper, lower = build_approximant(oracles[-1], 2), build_approximant(oracles[-2], 1)
    assert _bond(_drop_one_letter, lambda: upper, lambda: lower) == ("ValueError", "bond 1 is not onto")
    assert {"map", "bond k: a trimmed word is not legal", "bond k is not onto"} <= outcomes


def test_the_bond_checks_of_hand_made_levels_are_kept():
    full = LanguageOracle.full_shift(["0", "1"])
    golden = LanguageOracle.from_forbidden(["0", "1"], ["11"])
    lower = build_approximant(full, 1)
    cases = [(build_approximant(full, 2), build_approximant(golden, 1)),
             (build_approximant(golden, 2), lower),
             (build_approximant(LanguageOracle.full_shift(["0", "1"]), 2), lower),
             (build_approximant(full, 2), dataclasses.replace(lower, dst=np.roll(lower.dst, 1))),
             (build_approximant(full, 2), dataclasses.replace(lower, src=np.roll(lower.src, 1)))]
    messages = []
    for up, low in cases:
        got = _bond(_drop_one_letter, lambda: up, lambda: low)
        assert got == _bond(searched_drop_one_letter, lambda: up, lambda: low)
        messages.append(got[1] if isinstance(got[0], str) else "map")
    assert messages == ["bond 1: a trimmed word is not legal", "bond 1 is not onto", "map",
                        "bond 1: edge images do not join vertex images",
                        "bond 1: edge images do not join vertex images"]


def _separation_cases(rng: Random, oracle: LanguageOracle, legal: list) -> list:
    """(x, x_mark, y, y_mark, max_k): legal pairs, pairs whose windows turn
    illegal at each radius (by a foreign letter or a letter of the
    alphabet), and windows past the words' ends."""
    letters = [*oracle.alphabet, "#"]
    cases = []
    for _ in range(12):
        x, y = rng.choice(legal), rng.choice(legal)
        max_k = rng.randint(0, 4)
        cases.append((x, 4, y, 4, max_k))
        for radius in range(max_k + 1):
            at = 4 + rng.choice((-radius, radius))
            bad = y[:at] + rng.choice(letters) + y[at + 1:]
            cases += [(x, 4, bad, 4, max_k), (bad, 4, x, 4, max_k)]
    cases += [(legal[0], 4, legal[-1], 4, 5), (legal[0], 1, legal[0], 4, 2), (legal[0], 4, legal[0], 4, -1)]
    return cases


def test_separation_equals_the_checked_loop():
    rng = Random(67)
    kinds = set()
    for make in _systems(67):
        oracle, reference = make(), make()
        legal = _outcome(lambda: make().sorted_words(9))
        if isinstance(legal, tuple):
            legal = ["b" * 9, "a" * 9, "ab" * 4 + "a"]  # the language dies out below length 9
        for case in _separation_cases(rng, oracle, legal):
            got = _outcome(lambda: separation_depth(oracle, *case))
            assert got == _outcome(lambda: checked_separation_depth(reference, *case)), case
            kinds.add(got[1].split(" ")[0] if isinstance(got, tuple) else "radius")
    # answers, illegal windows, languages that die out or never exist, preconditions
    assert kinds == {"radius", "window", "substitution", "the", "marked", "max_k"}


def test_a_failing_legality_test_counts_as_illegal():
    # the widest windows of ccb's language do not exist; each radius is
    # then checked, and the error comes at radius 2, where it did before
    oracle, reference = SPECIAL[1](), SPECIAL[1]()
    case = ("bbbbbbb", 3, "bbbbbbb", 3, 3)
    got = _outcome(lambda: separation_depth(oracle, *case))
    assert got == _outcome(lambda: checked_separation_depth(reference, *case))
    assert got == ("ValueError", "substitution generates no words of length 5; its eventual language is empty")


def test_cylinders_equal_legality_and_pull_back():
    rng = Random(71)
    for make in _systems(71):
        oracle, reference = make(), make()
        letters = [*oracle.alphabet, "#"]  # and one foreign letter
        words = ["".join(t) for n in (1, 2, 3) for t in itertools.product(letters, repeat=n)]
        words += ["".join(rng.choice(oracle.alphabet) for _ in range(rng.randint(4, 5))) for _ in range(30)]
        for word in words:
            mark = rng.randrange(len(word))
            got = _outcome(lambda: ClopenSet.from_cylinder(oracle, Cylinder(word, mark)))
            if isinstance(got, ClopenSet):
                got = got.radius, got.mask.tolist()
            want = _outcome(lambda: pulled_back_cylinder(reference, word, mark))
            if not isinstance(want[0], str):
                want = want[0], want[1].tolist()
            assert got == want, (oracle.alphabet, word, mark)


def test_cylinder_errors_come_in_the_order_of_is_legal():
    ccb, dead = SPECIAL[1](), SPECIAL[2]()
    cases = [(ccb, "bbb", 0, "substitution generates no words of length 5; its eventual language is empty"),
             (ccb, "ccb", 0, "cylinder word 'ccb' is not legal"),
             (ccb, "b#b", 0, "cylinder word 'b#b' is not legal"),
             (dead, "#", 0, "the forbidden list kills every orbit; the subshift is empty")]
    for oracle, word, mark, message in cases:
        got = _outcome(lambda: ClopenSet.from_cylinder(oracle, Cylinder(word, mark)))
        assert got == _outcome(lambda: pulled_back_cylinder(oracle, word, mark)) == ("ValueError", message)
