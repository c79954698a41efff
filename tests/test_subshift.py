import itertools
import warnings
from random import Random

import numpy as np
import pytest

from laminate.subshift import LanguageOracle, Substitution, fibonacci, thue_morse, word_ranks

from helpers import brute_sft_words, enumerated_sft_words, long_word_factors, random_oracles

# Sturmian complexity: the Fibonacci language has exactly L+1 factors of
# length L.  Thue-Morse complexity is the classical 2, 4, 6, 10, 12, ...
FIBONACCI_COUNTS = {L: L + 1 for L in range(0, 14)}
THUE_MORSE_COUNTS = {1: 2, 2: 4, 3: 6, 4: 10, 5: 12, 6: 16, 7: 20, 8: 22, 9: 24, 10: 28, 11: 32}


def test_fibonacci_letters():
    oracle = LanguageOracle.from_substitution(fibonacci())
    assert oracle.words(1) == frozenset({"a", "b"})


def test_fibonacci_two_words_exclude_bb():
    oracle = LanguageOracle.from_substitution(fibonacci())
    assert oracle.words(2) == frozenset({"aa", "ab", "ba"})


def test_fibonacci_counts_match_sturmian_complexity():
    oracle = LanguageOracle.from_substitution(fibonacci())
    for L, expected in FIBONACCI_COUNTS.items():
        assert len(oracle.words(L)) == expected


def test_fibonacci_words_match_long_iterate_factors():
    oracle = LanguageOracle.from_substitution(fibonacci())
    for L in (2, 3, 5, 8):
        brute = long_word_factors({"a": "ab", "b": "a"}, "a", 16, L)
        assert oracle.words(L) == brute


def test_thue_morse_counts():
    oracle = LanguageOracle.from_substitution(thue_morse())
    for L, expected in THUE_MORSE_COUNTS.items():
        assert len(oracle.words(L)) == expected


def test_thue_morse_words_match_long_iterate_factors():
    oracle = LanguageOracle.from_substitution(thue_morse())
    for L in (3, 6, 9):
        brute = long_word_factors({"0": "01", "1": "10"}, "0", 12, L)
        assert oracle.words(L) == brute


def test_full_shift_counts():
    oracle = LanguageOracle.full_shift(["0", "1"])
    assert len(oracle.words(3)) == 8
    assert len(oracle.words(0)) == 1


def test_sft_golden_mean_matches_brute_force():
    oracle = LanguageOracle.from_forbidden(["a", "b"], ["bb"])
    for L in range(1, 4):
        assert brute_sft_words("ab", ["bb"], L) == enumerated_sft_words("ab", ["bb"], L)
    for L in range(1, 7):
        assert oracle.words(L) == frozenset(brute_sft_words("ab", ["bb"], L))


def test_sft_words_match_brute_force_on_random_forbidden_lists():
    rng = Random(17)
    checked = 0
    for _ in range(150):
        alphabet = "abc"[: rng.randint(2, 3)]
        forbidden = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                     for _ in range(rng.randint(0, 4))]
        oracle = LanguageOracle.from_forbidden(list(alphabet), forbidden)
        for L in range(1, 7):
            brute = brute_sft_words(alphabet, forbidden, L, margin=12)
            if not brute:
                with pytest.raises(ValueError):
                    oracle.words(L)
                break
            assert oracle.words(L) == frozenset(brute), (alphabet, forbidden, L)
            checked += 1
    assert checked > 250


def test_sft_with_dead_ends_trims_to_recurrent_part():
    # forbidding aa and ab leaves only ...bbbb...
    oracle = LanguageOracle.from_forbidden(["a", "b"], ["aa", "ab"])
    assert oracle.words(3) == frozenset({"bbb"})
    assert not oracle.is_legal("a")


def test_sft_empty_language_raises():
    oracle = LanguageOracle.from_forbidden(["a"], ["aa"])
    with pytest.raises(ValueError):
        oracle.words(3)


def test_factor_closedness():
    oracle = LanguageOracle.from_substitution(fibonacci())
    for w in oracle.words(6):
        for i in range(6):
            for j in range(i + 1, 7):
                assert oracle.is_legal(w[i:j])


def test_extendability_both_sides():
    for oracle in (
        LanguageOracle.from_substitution(fibonacci()),
        LanguageOracle.from_substitution(thue_morse()),
        LanguageOracle.from_forbidden(["a", "b"], ["bb"]),
    ):
        for w in oracle.words(4):
            assert any(u[1:5] == w for u in oracle.words(6))


def test_non_primitive_substitution_warns():
    swap = Substitution(("a", "b"), {"a": "b", "b": "a"})
    assert not swap.is_primitive
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        LanguageOracle.from_substitution(swap)
    assert caught


def test_non_growing_substitution_with_empty_language_errors():
    swap = Substitution(("a", "b"), {"a": "b", "b": "a"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oracle = LanguageOracle.from_substitution(swap)
    with pytest.raises(ValueError):
        oracle.words(2)


def test_primitivity_powers():
    assert fibonacci().primitivity() == (True, 2)
    assert thue_morse().primitivity() == (True, 1)


def test_rules_must_cover_alphabet():
    with pytest.raises(ValueError):
        Substitution(("a", "b"), {"a": "ab"})


def test_concurrent_readers_see_one_language():
    from concurrent.futures import ThreadPoolExecutor

    oracle = LanguageOracle.from_substitution(fibonacci())
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: oracle.words(7), range(32)))
    assert all(r == results[0] for r in results)
    assert len(results[0]) == 8


def test_concurrent_growth_keeps_rows_and_words_aligned():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    reference = LanguageOracle.from_forbidden(["a", "b", "c"], ["bb", "ca"])
    lengths = [(7 * i) % 13 for i in range(64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        oracle = LanguageOracle.from_forbidden(["a", "b", "c"], ["bb", "ca"])
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda L: (L, oracle.words(L), oracle.sorted_words(L),
                                           oracle.rows(L)), lengths, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for L, words, ordered, rows in got:
        assert words == reference.words(L) and ordered == reference.sorted_words(L)
        assert (rows == reference.rows(L)).all()


def test_second_words_call_computes_nothing(monkeypatch):
    calls = []
    for name in ("_substitution_words", "_grow"):
        original = getattr(LanguageOracle, name)
        monkeypatch.setattr(
            LanguageOracle, name,
            lambda self, length, original=original: calls.append(length) or original(self, length),
        )
    for oracle in (LanguageOracle.from_substitution(fibonacci()),
                   LanguageOracle.from_forbidden(["a", "b"], ["bb"])):
        calls.clear()
        first = oracle.words(5)
        assert calls == [5]
        assert oracle.words(5) is first
        assert oracle.rows(5) is oracle.rows(5) and oracle.sorted_words(5) is oracle.sorted_words(5)
        assert calls == [5]


def test_empty_alphabet_is_rejected():
    with pytest.raises(ValueError, match="alphabet is empty"):
        LanguageOracle.full_shift([])
    with pytest.raises(ValueError, match="alphabet is empty"):
        LanguageOracle.from_forbidden([], [])


def test_an_empty_language_raises_on_every_call():
    swap = Substitution(("a", "b"), {"a": "b", "b": "a"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rotation = LanguageOracle.from_substitution(swap)
    for oracle, length in ((LanguageOracle.from_forbidden(["a"], ["aa"]), 3),
                           (LanguageOracle.from_forbidden(["a", "b"], ["a", "b"]), 1),
                           (rotation, 2)):
        for _ in range(2):
            with pytest.raises(ValueError):
                oracle.words(length)
            with pytest.raises(ValueError):
                oracle.rows(length)


def _rank_order(oracle, word):
    return [oracle.alphabet.index(c) for c in word]


@pytest.mark.parametrize(
    "oracle_factory",
    [
        lambda: LanguageOracle.full_shift(["1", "0"]),
        lambda: LanguageOracle.from_forbidden(["b", "a"], ["bb"]),
        lambda: LanguageOracle.from_forbidden(["x", "y", "z"], ["xz", "zzy"]),
        lambda: LanguageOracle.from_substitution(fibonacci()),
        lambda: LanguageOracle.from_substitution(thue_morse()),
    ],
    ids=["full", "golden", "sft3", "fibonacci", "thue-morse"],
)
def test_rows_are_the_words_sorted_by_letter_rank(oracle_factory):
    oracle = oracle_factory()
    for L in range(0, 9):
        rows, strings = oracle.rows(L), oracle.sorted_words(L)
        assert rows.shape == (len(strings), L)
        assert strings == sorted(oracle.words(L), key=lambda w: _rank_order(oracle, w))
        assert [[oracle.alphabet[r - 1] for r in row] for row in rows.tolist()] == \
            [list(w) for w in strings]
        assert (word_ranks(rows, rows) == np.arange(len(rows))).all()


def test_word_ranks_marks_absent_rows():
    oracle = LanguageOracle.from_forbidden(["a", "b"], ["bb"])
    full = LanguageOracle.full_shift(["a", "b"])
    ranks = word_ranks(oracle.rows(3), full.rows(3))
    legal = oracle.sorted_words(3)
    for word, r in zip(full.sorted_words(3), ranks.tolist()):
        assert (r >= 0) == (word in oracle.words(3))
        if r >= 0:
            assert legal[r] == word


def test_words_of_any_length_and_alphabet():
    fib = LanguageOracle.from_substitution(fibonacci())
    assert len(fib.words(83)) == 84
    assert fib.words(83) == frozenset(long_word_factors({"a": "ab", "b": "a"}, "a", 20, 83))
    wide = LanguageOracle.full_shift([chr(0x4E00 + i) for i in range(300)])
    words = wide.sorted_words(2)
    assert len(words) == 90_000 and words[301] == chr(0x4E01) * 2
    nul = LanguageOracle.from_forbidden(["\x00", "z"], ["zz"])
    assert nul.words(3) == frozenset(brute_sft_words(["\x00", "z"], ["zz"], 3))


def test_random_primitive_substitutions_match_long_iterates():
    rng = Random(4)
    tried = 0
    while tried < 25:
        alphabet = "abc"[: rng.randint(2, 3)]
        rules = {a: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                 for a in alphabet}
        subst = Substitution(tuple(alphabet), rules)
        if not subst.is_primitive or all(len(w) == 1 for w in rules.values()):
            continue
        tried += 1
        oracle = LanguageOracle.from_substitution(subst)
        iterate = "a"
        while len(iterate) < 20_000:
            iterate = subst.apply(iterate)
        for L in (1, 2, 3, 5, 8, 13, 20):
            assert oracle.words(L) == long_word_factors(rules, iterate, 0, L), (rules, L)


def test_chacon_words_match_long_iterates():
    # a -> aaba, b -> b is not primitive (b is fixed), yet its language is
    # the factors of the fixed point, with complexity 2L - 1 from L = 2 on
    chacon = Substitution(("a", "b"), {"a": "aaba", "b": "b"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oracle = LanguageOracle.from_substitution(chacon)
    for L in (1, 2, 3, 5, 8, 13, 20):
        words = oracle.words(L)
        assert words == long_word_factors(chacon.rules, "a", 9, L), L
        assert len(words) == (2 if L == 1 else 2 * L - 1)


def test_shorter_lengths_read_as_prefixes_equal_an_ascending_computation():
    rng, top = Random(8), 9
    for make in random_oracles(29):
        ascending = make()
        expected = [(ascending.rows(L), ascending.sorted_words(L)) for L in range(top + 1)]
        oracle = make()
        shorter = list(range(top))
        rng.shuffle(shorter)
        got = {L: oracle.rows(L) for L in [top, *shorter]}
        for L, (rows, strings) in enumerate(expected):
            assert got[L].dtype == rows.dtype and np.array_equal(got[L], rows), (oracle.alphabet, L)
            assert oracle.sorted_words(L) == strings and oracle.words(L) == ascending.words(L)
            if oracle.substitution is None:
                assert oracle.words(L) == frozenset(
                    brute_sft_words(oracle.alphabet, oracle.forbidden, L, margin=12))


def test_walk_legality_agrees_with_the_language():
    top = 6
    for make in random_oracles(31):
        reference, oracle = make(), make()
        letters = [*oracle.alphabet, "#"]  # and one foreign letter
        for L in range(top + 1):
            language = reference.words(L)
            for letters_of in itertools.product(letters, repeat=L):
                word = "".join(letters_of)
                assert oracle.is_legal(word) == (word in language), (oracle.alphabet, word)
        if oracle.substitution is None:
            # a block and one letter: the longest language the walks read
            step = max(map(len, oracle.forbidden))
            assert max(oracle._rows) == step and max(oracle._words) == step


def test_non_primitive_lengths_are_not_read_as_prefixes():
    # under a -> ba, b -> b the word ba ends every image and extends to no
    # longer word, so the 2-prefixes of the 3-words miss it
    subst = Substitution(("a", "b"), {"a": "ba", "b": "b"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oracle = LanguageOracle.from_substitution(subst)
    assert oracle.words(3) == {"bba", "bbb"}
    assert oracle.words(2) == {"ba", "bb"} == long_word_factors(subst.rules, "a", 9, 2)
