import functools
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import StringClopens, brute_sft_words, long_word_factors
from laminate.subshift import LanguageOracle, Substitution, fibonacci
from laminate.transversal import (
    ClopenSet,
    Cylinder,
    HolonomyWord,
    canonicalize,
    complement,
    compose_holonomy,
    intersect,
    is_equal,
    is_subset,
    shift,
    shift_set,
    subtract,
    union,
    _pull_back,
)


@pytest.fixture(scope="module")
def fib():
    return LanguageOracle.from_substitution(fibonacci())


def random_clopen(rng: Random, oracle) -> ClopenSet:
    radius = rng.randint(0, 2)
    words = sorted(oracle.words(2 * radius + 1))
    chosen = [w for w in words if rng.random() < 0.5]
    return ClopenSet(oracle, radius, chosen)


def test_cylinder_literal_round_trip():
    c = Cylinder.parse("aab@1")
    assert (c.word, c.mark) == ("aab", 1)
    assert str(c) == "aab@1"


def test_cylinder_mark_in_range():
    with pytest.raises(ValueError):
        Cylinder("ab", 2)


def test_canonicalize_a_at_radius_one(fib):
    s = ClopenSet.from_cylinder(fib, Cylinder("a", 0))
    refined = canonicalize(s, 1)
    assert refined.windows == frozenset({"aab", "baa", "bab"})


def test_canonicalize_idempotent(fib):
    s = ClopenSet.from_cylinder(fib, Cylinder("ab", 0))
    assert canonicalize(canonicalize(s, 2), 4).windows == canonicalize(s, 4).windows


def test_canonicalize_empty(fib):
    assert canonicalize(ClopenSet.empty(fib), 3).is_empty()


def test_canonicalize_radius_cannot_shrink(fib):
    s = canonicalize(ClopenSet.whole(fib), 2)
    with pytest.raises(ValueError):
        canonicalize(s, 1)


def test_union_with_empty_and_self_intersection(fib):
    x = ClopenSet.from_cylinder(fib, Cylinder("ab", 1))
    assert is_equal(union(x, ClopenSet.empty(fib)), x)
    assert is_equal(intersect(x, x), x)


def test_letters_partition_the_transversal(fib):
    a = ClopenSet.from_cylinder(fib, Cylinder("a", 0))
    b = ClopenSet.from_cylinder(fib, Cylinder("b", 0))
    assert is_equal(union(a, b), ClopenSet.whole(fib))
    assert intersect(a, b).is_empty()


def test_window_merge_intersection(fib):
    a = ClopenSet.from_cylinder(fib, Cylinder("a", 0))
    b_right = shift_set(ClopenSet.from_cylinder(fib, Cylinder("b", 0)), -1)
    ab = ClopenSet.from_cylinder(fib, Cylinder("ab", 0))
    assert is_equal(intersect(a, b_right), ab)


def test_mismatched_oracles_rejected(fib):
    other = LanguageOracle.from_substitution(fibonacci())
    with pytest.raises(ValueError):
        union(ClopenSet.whole(fib), ClopenSet.whole(other))


def test_boolean_algebra_laws(fib):
    rng = Random(13)
    whole = ClopenSet.whole(fib)
    for _ in range(60):
        x, y, z = (random_clopen(rng, fib) for _ in range(3))
        assert is_equal(union(x, y), union(y, x))
        assert is_equal(intersect(x, y), intersect(y, x))
        assert is_equal(union(x, union(y, z)), union(union(x, y), z))
        assert is_equal(
            intersect(x, union(y, z)), union(intersect(x, y), intersect(x, z))
        )
        assert is_equal(
            complement(union(x, y)), intersect(complement(x), complement(y))
        )
        assert is_equal(subtract(whole, subtract(whole, x)), x)
        assert is_subset(intersect(x, y), x)
        assert is_subset(x, union(x, y))


def test_equality_is_radius_stable(fib):
    rng = Random(19)
    for _ in range(30):
        x = random_clopen(rng, fib)
        y = random_clopen(rng, fib)
        verdict = is_equal(x, y)
        r = max(x.radius, y.radius) + rng.randint(1, 2)
        assert is_equal(canonicalize(x, r), canonicalize(y, r)) == verdict


def test_shift_zero_is_identity(fib):
    x = ClopenSet.from_cylinder(fib, Cylinder("aba", 1))
    assert shift_set(x, 0) is x


def test_shift_round_trip(fib):
    rng = Random(31)
    for _ in range(20):
        x = random_clopen(rng, fib)
        n = rng.randint(-3, 3)
        assert is_equal(shift_set(shift_set(x, n), -n), x)


def test_shift_moves_the_mark(fib):
    ab0 = ClopenSet.from_cylinder(fib, Cylinder("ab", 0))
    ab1 = ClopenSet.from_cylinder(fib, Cylinder("ab", 1))
    image, word = shift(ab0, 1)
    assert is_equal(image, ab1)
    assert word.steps == (1,)
    assert is_equal(word.domain, ab0)


def test_shift_is_a_bijection_on_the_algebra(fib):
    rng = Random(37)
    for _ in range(20):
        x = random_clopen(rng, fib)
        y = random_clopen(rng, fib)
        n = rng.randint(1, 3)
        assert is_equal(
            shift_set(union(x, y), n), union(shift_set(x, n), shift_set(y, n))
        )
        assert is_equal(
            shift_set(intersect(x, y), n),
            intersect(shift_set(x, n), shift_set(y, n)),
        )


def test_compose_word_with_inverse_is_identity_on_domain(fib):
    x = ClopenSet.from_cylinder(fib, Cylinder("aab", 1))
    _, word = shift(x, 2)
    round_trip = compose_holonomy([word, word.inverse()])
    assert round_trip.displacement == 0
    assert is_equal(round_trip.domain, x)


def test_two_single_steps_equal_one_double_step(fib):
    w1 = HolonomyWord((1,), ClopenSet.whole(fib))
    w2 = HolonomyWord((1,), ClopenSet.whole(fib))
    combined = compose_holonomy([w1, w2])
    assert combined.displacement == 2
    assert is_equal(combined.domain, ClopenSet.whole(fib))


def test_path_independence(fib):
    # equal net displacement implies equal action on every cylinder of the
    # common domain: 1-dimensional leaves are lines
    rng = Random(41)
    whole = ClopenSet.whole(fib)
    for _ in range(10):
        steps = [rng.choice((1, -1)) for _ in range(4)]
        rng.shuffle(steps)
        w1 = compose_holonomy([HolonomyWord((s,), whole) for s in steps])
        rng.shuffle(steps)
        w2 = compose_holonomy([HolonomyWord((s,), whole) for s in steps])
        assert w1.displacement == w2.displacement
        for radius in range(3):
            for window in sorted(fib.words(2 * radius + 1)):
                cyl = ClopenSet(fib, radius, [window])
                assert is_equal(w1.apply(cyl), w2.apply(cyl))


def test_identity_holonomy(fib):
    word = HolonomyWord((), ClopenSet.whole(fib))
    x = ClopenSet.from_cylinder(fib, Cylinder("ba", 0))
    assert is_equal(word.apply(x), x)


def test_composed_domains_track_where_prefixes_run(fib):
    # step right restricted to [a@0], then a step restricted to [b@0]:
    # defined exactly where a sits at the origin and b one tile right
    a0 = ClopenSet.from_cylinder(fib, Cylinder("a", 0))
    b0 = ClopenSet.from_cylinder(fib, Cylinder("b", 0))
    w1 = HolonomyWord((1,), a0)
    w2 = HolonomyWord((1,), b0)
    combined = compose_holonomy([w1, w2])
    assert combined.displacement == 2
    assert is_equal(combined.domain, ClopenSet.from_cylinder(fib, Cylinder("ab", 0)))


# -- flags against the string algebra ------------------------------------------

def _systems(rng):
    """(oracle, words) pairs: random SFTs with the DP oracle's words, random
    primitive substitutions and a non-primitive one with the factors of a
    long iterate."""
    out = []
    while len(out) < 5:
        alphabet = "abc"[: rng.randint(2, 3)]
        forbidden = ["".join(rng.choice(alphabet) for _ in range(rng.randint(2, 3)))
                     for _ in range(rng.randint(1, 4))]
        if brute_sft_words(alphabet, forbidden, 1, margin=12):
            out.append((LanguageOracle.from_forbidden(list(alphabet), forbidden),
                        lambda L, a=alphabet, f=forbidden: brute_sft_words(a, f, L, margin=12)))
    substitutions = []
    while len(substitutions) < 4:
        alphabet = "abc"[: rng.randint(2, 3)]
        rules = {a: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                 for a in alphabet}
        subst = Substitution(tuple(alphabet), rules)
        if subst.is_primitive and any(len(w) > 1 for w in rules.values()):
            substitutions.append(subst)
    for subst in substitutions:
        iterate = "a"
        while len(iterate) < 5_000:
            iterate = subst.apply(iterate)
        out.append((LanguageOracle.from_substitution(subst),
                    lambda L, r=subst.rules, w=iterate: long_word_factors(r, w, 0, L)))
    rules = {"a": "ba", "b": "b"}  # a's images b...ba never grow a factor ab
    with pytest.warns(UserWarning):
        out.append((LanguageOracle.from_substitution(Substitution(("a", "b"), rules)),
                    lambda L: long_word_factors(rules, "a", 40, L)))
    return [(oracle, functools.cache(words)) for oracle, words in out]


def _as_pair(s: ClopenSet) -> tuple:
    return s.radius, s.windows


def test_flags_match_the_string_algebra():
    rng = Random(47)
    for oracle, words in _systems(rng):
        ref = StringClopens(words)
        letters = [*oracle.alphabet, "#"]  # and one foreign letter

        def draw():
            r = rng.randint(0, 2)
            legal = sorted(words(2 * r + 1))
            stray = ["".join(rng.choice(letters) for _ in range(2 * r + 1)) for _ in range(3)]
            windows = [w for w in legal if rng.random() < 0.5] + stray
            s = ClopenSet(oracle, r, windows)
            assert _as_pair(s) == ref.make(r, windows), (oracle.alphabet, windows)
            return s, ref.make(r, windows)

        for word in sorted(words(3) | words(4)):
            for mark in range(len(word)):
                got = ClopenSet.from_cylinder(oracle, Cylinder(word, mark))
                assert _as_pair(got) == ref.cylinder(word, mark), (word, mark)
        for _ in range(6):
            (x, rx), (y, ry) = draw(), draw()
            for op, ref_op in ((union, ref.union), (intersect, ref.intersect),
                               (subtract, ref.subtract)):
                assert _as_pair(op(x, y)) == ref_op(rx, ry), op.__name__
            assert _as_pair(complement(x)) == ref.complement(rx)
            assert is_subset(x, y) == ref.is_subset(rx, ry)
            assert is_equal(x, y) == (ref.is_subset(rx, ry) and ref.is_subset(ry, rx))
            assert x.is_empty() == (not rx[1])
            for grow in (1, 2):
                assert _as_pair(canonicalize(x, x.radius + grow)) == ref.canonicalize(rx, rx[0] + grow)
            for steps in (1, -1, 2, -2):
                assert _as_pair(shift_set(x, steps)) == ref.shift(rx, steps), steps
            s1, s2 = rng.choice((1, -1, 2, -2)), rng.choice((1, -1, 2, -2))
            composite = compose_holonomy([shift(x, s1)[1], shift(y, s2)[1]])
            assert composite.displacement == s1 + s2
            assert _as_pair(composite.domain) == ref.compose_domain([(s1, rx), (s2, ry)])


def test_constructor_drops_illegal_and_foreign_windows_and_checks_lengths(fib):
    s = ClopenSet(fib, 1, ["aba", "bbb", "a#a", "bab"])
    assert s.windows == frozenset({"aba", "bab"})
    with pytest.raises(ValueError):
        ClopenSet(fib, 1, ["aba", "ab"])
    with pytest.raises(ValueError):
        ClopenSet(fib, 0, ["#a"])


def test_a_slice_outside_the_shorter_language_is_outside_the_set():
    # rank -1 must not read the last flag: rows of length 1 hold only "a",
    # and the middle letter of the only 3-word is not among them
    rows = {1: np.array([[1]], np.uint8), 3: np.array([[1, 2, 1]], np.uint8)}
    oracle = SimpleNamespace(rows=rows.__getitem__)
    assert _pull_back(oracle, np.array([True]), 1, 1, 1).mask.tolist() == [False]
    assert _pull_back(oracle, np.array([True]), 1, 1, 0).mask.tolist() == [True]


def test_a_clopen_question_tests_legality_once_per_cylinder(monkeypatch):
    # the bench's clopen question, in small: three cylinders, their boolean
    # algebra and a shift out and back
    fresh = LanguageOracle.from_substitution(fibonacci())
    calls = []
    is_legal = LanguageOracle.is_legal
    monkeypatch.setattr(LanguageOracle, "is_legal",
                        lambda self, word: calls.append(word) or is_legal(self, word))
    a, b, c = (ClopenSet.from_cylinder(fresh, Cylinder.parse(text))
               for text in ("aba@1", "ab@0", "baab@2"))
    mixed = complement(intersect(union(a, b), c))
    assert is_equal(shift_set(shift_set(mixed, 1), -1), mixed)
    assert len(calls) <= 3
