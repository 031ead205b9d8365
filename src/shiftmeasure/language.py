"""Factor-closed word languages truncated at a length cap.

These are the finite shadows of subshift languages: every factor of a stored
word is stored too, up to the cap.  The image construction restricts its
inputs to the required depth, which loses nothing because every image word
occurs essentially over an input of bounded length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .morphism import Morphism, _essential_sweep, _require_depth
from .words import Alphabet, Word, factors, iter_words, primitive_root


@dataclass(frozen=True)
class FactorLanguage:
    """A factor-closed set of non-empty words of length at most maxlen."""

    alphabet: Alphabet
    maxlen: int
    words: frozenset[Word]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", frozenset(self.words))
        if self.maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        letters = set()
        for w in self.words:
            if w.alphabet != self.alphabet:
                raise ValueError(f"word '{w}' is not over the language alphabet")
            if not 1 <= len(w) <= self.maxlen:
                raise ValueError(f"word '{w}' has length outside 1..{self.maxlen}")
            letters.add(w.letters)
        # Factor closure is equivalent to closure under dropping one outer letter.
        for w in self.words:
            x = w.letters
            if len(x) >= 2 and (x[1:] not in letters or x[:-1] not in letters):
                raise ValueError(f"language is not factor-closed at '{w}'")

    def of_length(self, k: int) -> set[Word]:
        return {w for w in self.words if len(w) == k}

    def __contains__(self, w: object) -> bool:
        return w in self.words

    def __len__(self) -> int:
        return len(self.words)


def factorial_closure(alphabet: Alphabet, words: Iterable[Word], n: int) -> FactorLanguage:
    """Language of all non-empty factors (length <= n) of the given words."""
    if n < 1:
        raise ValueError("maxlen must be >= 1")
    closed: set[Word] = set()
    for w in words:
        if w.alphabet != alphabet:
            raise ValueError(f"word '{w}' is not over the given alphabet")
        closed |= factors(w, n)
    return FactorLanguage(alphabet, n, frozenset(closed))


def periodic_orbit_language(w: Word, n: int) -> FactorLanguage:
    """All factors up to length n of the biinfinite periodic word over w."""
    if len(w) == 0:
        raise ValueError("the empty word generates no periodic orbit")
    if n < 1:
        raise ValueError("maxlen must be >= 1")
    root, _ = primitive_root(w)
    stream = Word(w.alphabet, root.letters * (-(-n // len(root)) + 1))
    return factorial_closure(w.alphabet, [stream], n)


def full_shift_language(alphabet: Alphabet, n: int) -> FactorLanguage:
    """Every non-empty word up to length n."""
    if n < 1:
        raise ValueError("maxlen must be >= 1")
    ws = {w for k in range(1, n + 1) for w in iter_words(alphabet, k)}
    return FactorLanguage(alphabet, n, frozenset(ws))


def union(first: FactorLanguage, second: FactorLanguage) -> FactorLanguage:
    """Union truncated to the smaller cap; closure survives truncation."""
    if first.alphabet != second.alphabet:
        raise ValueError("languages must share one alphabet")
    n = min(first.maxlen, second.maxlen)
    ws = {w for w in first.words | second.words if len(w) <= n}
    return FactorLanguage(first.alphabet, n, frozenset(ws))


def image_language(sigma: Morphism, language: FactorLanguage, n: int) -> FactorLanguage:
    """Depth-n language of the image subshift.

    Every image word of length <= n occurs essentially over an input no
    longer than the required input depth, so only those inputs are imaged,
    each once, and only their essential occurrences are kept.  The language
    is factor-closed, so any factor of an image is an essential occurrence
    over some factor of the input and nothing is lost.
    """
    if language.alphabet != sigma.domain:
        raise ValueError("language alphabet must be the domain of the morphism")
    if n < 1:
        raise ValueError("maxlen must be >= 1")
    required = _require_depth(sigma, n, language.maxlen)
    swept = _essential_sweep(
        sigma, ((u.letters, 1) for u in language.words if len(u) <= required), n
    )
    return FactorLanguage(
        sigma.codomain, n, frozenset(Word(sigma.codomain, letters) for letters in swept)
    )


def complexity(language: FactorLanguage, k: int) -> int:
    """Number of language words of length exactly k."""
    if not 1 <= k <= language.maxlen:
        raise ValueError(f"length {k} outside 1..{language.maxlen}")
    return sum(1 for w in language.words if len(w) == k)
