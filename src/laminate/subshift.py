"""Factor languages of subshifts: substitutions, SFTs, full shifts.

A :class:`LanguageOracle` computes the legal words of each length once, as
a sorted matrix of letter ranks whose rows view as fixed-width byte
strings, so they sort and ``searchsorted`` like words at any length.  SFT
and full-shift words grow one letter at a time over the trimmed blocks.
Substitution words of length L are exact: the L-factors of the letter
images, iterated until their state repeats (see ``_substitution_words``).
Languages are factor closed and, for SFTs and primitive substitutions,
every word extends both ways, so a length shorter than one already
computed is read off as its distinct prefixes, adjacent in sorted rows,
and each language is built once, at the longest length asked first.  On
SFTs and full shifts a single word is tested by walking the block graph,
which builds no language.  Strings are decoded once per length.  Caches
hold pure functions of the length, filled by dict stores: no lock.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Substitution:
    """Symbol rewriting rules; primitivity is computed, not assumed."""

    alphabet: tuple[str, ...]
    rules: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "rules", dict(self.rules))
        letters = set(self.alphabet)
        if any(len(a) != 1 for a in letters):
            raise ValueError("symbols must be single characters")
        if set(self.rules) != letters:
            raise ValueError("rules must cover exactly the alphabet")
        for a, w in self.rules.items():
            if not w or not set(w) <= letters:
                raise ValueError(f"rule for {a!r} must be a nonempty word over the alphabet")

    def apply(self, word: str) -> str:
        return word.translate({ord(a): w for a, w in self.rules.items()})

    def incidence_matrix(self) -> np.ndarray:
        """M[i, j] = how often alphabet[i] occurs in the rule for alphabet[j]."""
        n = len(self.alphabet)
        pos = {a: i for i, a in enumerate(self.alphabet)}
        m = np.zeros((n, n), dtype=np.int64)
        for j, a in enumerate(self.alphabet):
            for c in self.rules[a]:
                m[pos[c], j] += 1
        return m

    def primitivity(self) -> tuple[bool, Optional[int]]:
        """(is primitive, least power with strictly positive incidence)."""
        n = len(self.alphabet)
        m = self.incidence_matrix() > 0
        power = m.copy()
        bound = (n - 1) ** 2 + 1 if n > 1 else 1
        for p in range(1, bound + 1):
            if power.all():
                return True, p
            power = (power @ m) > 0
        return False, None

    @property
    def is_primitive(self) -> bool:
        return self.primitivity()[0]


def word_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a word matrix as one byte string, ordered like the words."""
    if not rows.shape[1]:  # the empty word
        return np.zeros(len(rows), dtype="S1")
    rows = np.ascontiguousarray(rows)
    return rows.view(f"S{rows.shape[1] * rows.itemsize}")[:, 0]


def word_ranks(sorted_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row of ``rows`` among ``sorted_rows``, -1 where absent."""
    keys, queries = word_keys(sorted_rows), word_keys(rows)
    at = np.searchsorted(keys, queries)
    at[at == len(keys)] = 0
    return np.where(keys[at] == queries, at, -1)


class LanguageOracle:
    """Legal words of a subshift, computed once per length: ``rows(L)``
    (letter ranks from 1, sorted), ``sorted_words(L)`` (the same words as
    strings, in that order) and ``words(L)`` (their frozenset).

    ``rows(L)`` takes the distinct L-prefixes of the nearest longer length
    already computed; the prefixes of sorted rows are sorted, and they are
    the whole language because every legal word extends to the right.  Only
    a length longer than all computed ones is computed from scratch (and
    every length of a non-primitive substitution, whose words need not
    extend).  ``is_legal`` on SFTs and full shifts walks the block graph
    where the word's length has no word set yet."""

    def __init__(self, alphabet: Sequence[str], forbidden: Sequence[str] = (),
                 substitution: Optional[Substitution] = None):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise ValueError("the alphabet is empty")
        if any(len(a) != 1 for a in self.alphabet):
            raise ValueError("symbols must be single characters")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate symbols in the alphabet")
        for w in forbidden:
            if not w or not set(w) <= set(self.alphabet):
                raise ValueError(f"forbidden word {w!r} is not over the alphabet")
        self.forbidden = tuple(sorted(set(forbidden)))
        self.substitution = substitution
        # shorter lengths are prefixes of longer ones where every word extends
        self._extends = substitution is None or substitution.is_primitive
        if not self._extends:
            warnings.warn(
                "substitution is not primitive; the factor language is taken "
                "over the eventual cycle of all letters' images",
                stacklevel=3,
            )
        # ranks start at 1, so that no row holds a NUL byte
        self.dtype = np.dtype(np.uint8 if len(self.alphabet) < 255 else ">u2")
        self._ranks = {ord(a): i for i, a in enumerate(self.alphabet, 1)}
        self._codes = np.array([0, *self._ranks], dtype="<u4")
        self._rows = {0: np.zeros((1, 0), self.dtype)}
        self._sorted: dict[int, list[str]] = {}
        self._words = {0: frozenset({""})}
        # blocks are one letter shorter than the longest forbidden word
        self._width = max(map(len, self.forbidden), default=1) - 1
        self._succ = self._walks = None

    @classmethod
    def full_shift(cls, alphabet: Sequence[str]) -> "LanguageOracle":
        return cls(alphabet)

    @classmethod
    def from_forbidden(cls, alphabet: Sequence[str], forbidden: Sequence[str]) -> "LanguageOracle":
        return cls(alphabet, forbidden)

    @classmethod
    def from_substitution(cls, subst: Substitution) -> "LanguageOracle":
        return cls(subst.alphabet, substitution=subst)

    # -- public API -----------------------------------------------------

    def rows(self, length: int) -> np.ndarray:
        """The legal words of one length as a sorted matrix of ranks."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        if length not in self._rows and self.substitution is None:
            self._grow(length)  # every length from the blocks' up to this one
        if length not in self._rows:
            longer = [n for n in list(self._rows) if n > length] if self._extends else ()
            if longer:  # equal prefixes of sorted rows are adjacent
                prefixes = self._rows[min(longer)][:, :length]
                self._rows[length] = prefixes[np.r_[True, (prefixes[1:] != prefixes[:-1]).any(axis=1)]]
            else:  # the strings come first
                self._sorted[length], self._rows[length] = self._encode(
                    self._substitution_words(length))
        return self._rows[length]

    def sorted_words(self, length: int) -> list[str]:
        """The legal words of one length as strings, in the order of ``rows``."""
        rows = self.rows(length)
        if length not in self._sorted:
            self._sorted[length] = self._decode(rows)
        return self._sorted[length]

    def words(self, length: int) -> frozenset[str]:
        words = self._words.get(length)
        if words is None:  # rows refuses a negative length
            words = self._words[length] = frozenset(self.sorted_words(length))
        return words

    def is_legal(self, word: str) -> bool:
        """Membership in ``words(len(word))``; on SFTs and full shifts, where
        that set is not built, a walk on the block graph instead: the word
        is legal when each of its windows one letter longer than a block is
        a step, as in the walks that ``rows`` grows."""
        words = self._words.get(len(word))
        if words is not None:
            return word in words
        step = self._width + 1
        if self.substitution is None and len(word) > step:
            steps = self.words(step)
            return all(word[i : i + step] in steps for i in range(len(word) - step + 1))
        return word in self.words(len(word))

    # -- computation ----------------------------------------------------

    def _encode(self, words) -> tuple[list[str], np.ndarray]:
        """Distinct words of one length in rank order, and their rows."""
        ordered = sorted(words, key=lambda w: w.translate(self._ranks))
        text = "".join(ordered).translate(self._ranks).encode("utf-32-le", "surrogatepass")
        rows = np.frombuffer(text, "<u4").astype(self.dtype)
        return ordered, rows.reshape(len(ordered), len(ordered[0]))

    def _decode(self, rows: np.ndarray) -> list[str]:
        n, length = rows.shape
        if not length:
            return [""] * n
        codes = self._codes[rows]
        if codes[:, -1].all():  # numpy strips trailing NULs
            return codes.view(f"<U{length}")[:, 0].tolist()
        text = codes.tobytes().decode("utf-32-le", "surrogatepass")
        return [text[i : i + length] for i in range(0, n * length, length)]

    def _grow(self, length: int) -> None:
        """SFT words: walks on the trimmed blocks, grown one letter at a time
        from the longest walks so far, keeping every length from the blocks'
        own on the way."""
        if self._walks is None:
            blocks, self._succ = self._block_graph()
            self._rows[self._width] = blocks
            self._walks = self._width, blocks, np.arange(len(blocks))
        n, rows, state = self._walks
        while n < length:
            after = self._succ[state]
            word, letter = np.nonzero(after >= 0)
            rows = np.column_stack([rows[word], (letter + 1).astype(self.dtype)])
            n, state = n + 1, after[word, letter]
            self._rows[n] = rows
        self._walks = n, rows, state

    def _block_graph(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted blocks on bi-infinite forbidden-free paths, one letter
        shorter than the longest forbidden word, and ``succ[b, c]``: the
        block after block b and letter c, or -1 where that is forbidden."""
        bad = set(self.forbidden)
        block = self._width
        # a step is a forbidden-free word one letter longer than a block; it
        # joins its prefix block to its suffix block
        steps = [w for w in map("".join, itertools.product(self.alphabet, repeat=block + 1))
                 if not any(f in w for f in bad)]
        blocks = {w[:-1] for w in steps} | {w[1:] for w in steps}
        while True:  # drop blocks without an in- and an out-step
            steps = [w for w in steps if w[:-1] in blocks and w[1:] in blocks]
            alive = {w[:-1] for w in steps} & {w[1:] for w in steps}
            if alive == blocks:
                break
            blocks = alive
        if not blocks:
            raise ValueError("the forbidden list kills every orbit; the subshift is empty")
        ordered, rows = self._encode(blocks)
        order = {b: i for i, b in enumerate(ordered)}
        succ = np.full((len(order), len(self.alphabet)), -1, dtype=np.intp)
        for w in steps:
            succ[order[w[:-1]], self._ranks[ord(w[-1])] - 1] = order[w[1:]]
        return rows, succ

    def _substitution_words(self, length: int) -> frozenset[str]:
        """The L-factors over the eventual cycle of the letter images' states.

        The state of a set of words is (their L-factors, those shorter than
        L).  An L-window of sigma(w) lies in sigma of an L-factor of w, so
        each state fixes the next and the first repeated state closes a cycle.
        """
        def state(images) -> tuple[frozenset, frozenset]:
            return (frozenset({w[i : i + length] for w in images if len(w) >= length
                               for i in range(len(w) - length + 1)}),
                    frozenset({w for w in images if len(w) < length}))

        images = list(self.alphabet)  # any words whose state is the current one
        seen, current = [], state(images)
        while current not in seen:
            seen.append(current)
            if sum(map(len, images)) > length * (len(current[0]) + len(current[1])):
                images = current[0] | current[1]  # the state's own words are shorter
            images = [self.substitution.apply(w) for w in images]
            current = state(images)
        words = frozenset().union(*(factors for factors, _ in seen[seen.index(current):]))
        if not words:
            raise ValueError(f"substitution generates no words of length {length}; "
                             "its eventual language is empty")
        return words


def fibonacci() -> Substitution:
    return Substitution(("a", "b"), {"a": "ab", "b": "a"})


def thue_morse() -> Substitution:
    return Substitution(("0", "1"), {"0": "01", "1": "10"})
