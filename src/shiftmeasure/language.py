"""Factor-closed word languages truncated at a length cap.

These are the finite shadows of subshift languages: every factor of a stored
word is stored too, up to the cap.  The image construction restricts its
inputs to the required depth, which loses nothing because every image word
occurs essentially over an input of bounded length.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import cached_property

from . import measure
from .morphism import Morphism, _essential_sweep, _window
from .words import (Alphabet, PreconditionError, Word, _Record, _require_count, _require_letters, _require_over,
                    _shown)


class FactorLanguage(_Record):
    """A factor-closed set of non-empty words of length at most maxlen, kept as letter tuples;
    words is the set of Words, built on first use.  Errors name the canonical first offender."""

    __match_args__ = ("alphabet", "maxlen", "_words")

    def __init__(self, alphabet: Alphabet, maxlen: int, words: frozenset[Word]) -> None:
        _require_over(alphabet, Alphabet, None, "alphabet")
        words = frozenset([_require_over(w, Word, None, "word") for w in words])
        _require_count(maxlen, "maxlen")
        bad = [w for w in words if w.alphabet != alphabet or not 1 <= len(w) <= maxlen]
        if bad:
            w = min(bad, key=lambda w: (len(w), w.letters, w.tokens, w.alphabet != alphabet))
            _require_over(w, Word, alphabet, "word")
            raise PreconditionError(f"word '{w}' has length outside 1..{_shown(maxlen)}")
        letters = frozenset([w.letters for w in words])
        # Factor closure is equivalent to closure under dropping one outer letter.
        bad = [x for x in letters if len(x) >= 2 and not letters.issuperset((x[1:], x[:-1]))]
        if bad:
            x = min(bad, key=lambda x: (len(x), x))
            raise PreconditionError(f"language is not factor-closed at '{Word._trusted(alphabet, x)}'")
        self.__dict__.update(alphabet=alphabet, maxlen=maxlen, _words=letters)

    @cached_property
    def words(self) -> frozenset[Word]:
        return frozenset([Word._trusted(self.alphabet, x) for x in self._words])

    def of_length(self, k: int) -> set[Word]:
        return {Word._trusted(self.alphabet, x) for x in self._words if len(x) == k}

    def __contains__(self, w: object) -> bool:
        return type(w) is Word and w.alphabet == self.alphabet and w.letters in self._words

    def __len__(self) -> int:
        return len(self._words)


def factorial_closure(alphabet: Alphabet, words: Iterable[Word], n: int) -> FactorLanguage:
    """Language of all non-empty factors (length <= n) of the given words: those of each
    length-n window, one outer letter dropped at a time up to a factor already kept."""
    _require_over(alphabet, Alphabet, None, "alphabet")
    _require_count(n, "maxlen")
    closed: set[tuple[int, ...]] = set()
    for w in words:
        x = _require_over(w, Word, alphabet, "word").letters
        todo = [x[i : i + n] for i in range(max(len(x) - n, 0) + 1)]
        while todo:
            if (x := todo.pop()) and x not in closed:
                closed.add(x)
                todo += (x[1:], x[:-1])
    return FactorLanguage._trusted(alphabet, n, frozenset(closed))


def periodic_orbit_language(w: Word, n: int) -> FactorLanguage:
    """All factors up to length n of the biinfinite periodic word over w: its measure's support."""
    if len(_require_over(w, Word, None, "word")) == 0:
        raise PreconditionError("the empty word generates no periodic orbit")
    _require_count(n, "maxlen")
    return FactorLanguage._trusted(w.alphabet, n, frozenset(measure.characteristic_measure(w, n)._weights))


def full_shift_language(alphabet: Alphabet, n: int) -> FactorLanguage:
    """Every non-empty word up to length n.  More than TABLE_BUDGET letters in
    the words, the sum of k * |A|^k, is refused at the first length past it, before any is built."""
    _require_count(n, "maxlen")
    size, letters = len(_require_over(alphabet, Alphabet, None, "alphabet")), 0
    for k in range(1, n + 1):
        letters = _require_letters(letters + k * size**k, "maxlen", n, "its words of length <= {} hold", k)
    ws = (itertools.product(range(size), repeat=k) for k in range(1, n + 1))
    return FactorLanguage._trusted(alphabet, n, frozenset(itertools.chain(*ws)))


def union(first: FactorLanguage, second: FactorLanguage) -> FactorLanguage:
    """Union truncated to the smaller cap; closure survives truncation."""
    alphabet = _require_over(first, FactorLanguage, None, "language").alphabet
    _require_over(second, FactorLanguage, alphabet, "language")
    n = min(first.maxlen, second.maxlen)
    ws = frozenset([x for x in first._words | second._words if len(x) <= n])
    return FactorLanguage._trusted(alphabet, n, ws)


def image_language(sigma: Morphism, language: FactorLanguage, n: int) -> FactorLanguage:
    """Depth-n language of the image subshift.

    Every image word of length <= n occurs essentially over an input in the
    _window of n, the one the transfer reads, so only those inputs are
    imaged, each once, and only their essential occurrences are kept.  The
    language is factor-closed, so any factor of an image is an essential
    occurrence over some factor of the input and nothing is lost.
    """
    _require_over(language, FactorLanguage, _require_over(sigma, Morphism, None, "morphism").domain, "language")
    _require_count(n, "maxlen")
    swept = _essential_sweep(sigma, ((u, 1) for u in _window(sigma, language._words, n, language.maxlen)), n)
    return FactorLanguage._trusted(sigma.codomain, n, frozenset(swept))


def complexity(language: FactorLanguage, k: int) -> int:
    """Number of language words of length exactly k, an int from 1 to the language's maxlen."""
    _require_count(k, "length", 1, _require_over(language, FactorLanguage, None, "language").maxlen)
    return sum(1 for x in language._words if len(x) == k)
