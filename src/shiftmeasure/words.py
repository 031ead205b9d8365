"""Alphabets and finite words over token symbols.

Symbols are whitespace-free string tokens rather than single characters, so
composite letters such as ``a.2`` coming out of subdivision alphabets need no
special casing; the text formats reserve a leading ``#`` or ``!`` and the
token ``->``.  Words store symbol indices into a fixed alphabet and are
immutable; the empty word is a valid value except where an operation is
mathematically undefined on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Alphabet:
    """An ordered collection of distinct symbol tokens.

    Declaration order is part of the identity: it fixes matrix indexing and
    the canonical (length, then lexicographic) order used for all output.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must not be empty")
        seen: set[str] = set()
        for token in self.symbols:
            _check_token(token)
            if token in seen:
                raise ValueError(f"duplicate symbol token: {token!r}")
            seen.add(token)

    @cached_property
    def _indices(self) -> dict[str, int]:
        return {token: i for i, token in enumerate(self.symbols)}

    def index(self, token: str) -> int:
        try:
            return self._indices[token]
        except KeyError:
            raise ValueError(f"symbol {token!r} not in alphabet [{self}]") from None

    def word(self, tokens: Iterable[str]) -> "Word":
        """Build a word from symbol tokens."""
        return Word(self, tuple(self.index(t) for t in tokens))

    def epsilon(self) -> "Word":
        return Word(self, ())

    def __contains__(self, token: object) -> bool:
        return token in self._indices

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return " ".join(self.symbols)


def _check_token(token: str) -> None:
    """Reject a token that the text formats could not read back.

    Tokens are whitespace-separated, a line starting with ``#`` is a comment
    and one starting with ``!`` a header, and ``->`` separates a morphism
    rule's letter from its image.
    """
    if not token or any(ch.isspace() for ch in token):
        raise ValueError(f"invalid symbol token: {token!r}")
    if token.startswith(("#", "!")) or token == "->":
        raise ValueError(
            f"invalid symbol token: {token!r} (a token may not start with '#' or '!', or be '->')"
        )


@dataclass(frozen=True)
class Word:
    """A finite word: a sequence of symbol indices into one alphabet."""

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        size = len(self.alphabet)
        for i in self.letters:
            if not 0 <= i < size:
                raise ValueError(f"letter index {i} out of range for alphabet [{self.alphabet}]")

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet.symbols[i] for i in self.letters)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order: length first, then letter indices."""
        return (len(self.letters), self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(self.tokens)


def count_occurrences(w: Word, u: Word) -> int:
    """Number of (possibly overlapping) start positions of u inside w."""
    if len(u) == 0:
        raise ValueError("occurrence counting is undefined for the empty word")
    if w.alphabet != u.alphabet:
        raise ValueError("words must share an alphabet")
    target = u.letters
    m = len(target)
    return sum(1 for i in range(len(w) - m + 1) if w.letters[i : i + m] == target)


def primitive_root(w: Word) -> tuple[Word, int]:
    """Decompose w = root**exponent with the shortest possible root.

    The root is primitive and unique; a word is primitive exactly when its
    exponent is 1.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no primitive root")
    root, exponent = _root_letters(w.letters)
    return Word(w.alphabet, root), exponent


def _root_letters(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """primitive_root on a non-empty letter tuple."""
    n = len(letters)
    for p in range(1, n + 1):
        if n % p == 0 and letters[:p] * (n // p) == letters:
            return letters[:p], n // p
    raise AssertionError("unreachable: every word is a power of itself")


def is_proper_power(w: Word) -> bool:
    """True iff w = u**k for some k >= 2."""
    return primitive_root(w)[1] >= 2


def rotations(w: Word) -> Iterator[Word]:
    """All cyclic shifts of w, starting with w itself."""
    if len(w) == 0:
        yield w
        return
    doubled = w.letters + w.letters
    for i in range(len(w)):
        yield Word(w.alphabet, doubled[i : i + len(w)])


def min_rotation(w: Word) -> Word:
    """Lexicographically least rotation, by letter index order."""
    return Word(w.alphabet, _least_rotation(w.letters))


def _least_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """min_rotation on a letter tuple in O(n): of two live starts i < j with k letters in
    common, the one with the larger next letter loses with the k starts after it."""
    n, doubled = len(letters), letters + letters
    i, j, k = 0, 1, 0
    while j < n and k < n:
        if doubled[i + k] == doubled[j + k]:
            k += 1
        elif doubled[i + k] > doubled[j + k]:
            i, j, k = j, max(j + 1, i + k + 1), 0
        else:
            j, k = j + k + 1, 0
    return doubled[i : i + n]


def is_rotation(w1: Word, w2: Word) -> bool:
    """True iff the token sequences are cyclic shifts of each other."""
    if len(w1) != len(w2):
        return False
    if len(w1) == 0:
        return True
    t1, t2 = w1.tokens, w2.tokens
    doubled = t1 + t1
    return any(doubled[i : i + len(t2)] == t2 for i in range(len(t1)))


def factors(w: Word, n: int) -> set[Word]:
    """All distinct non-empty factors of w of length at most n."""
    if n < 0:
        raise ValueError("factor length bound must be >= 0")
    out: set[Word] = set()
    for length in range(1, min(n, len(w)) + 1):
        for i in range(len(w) - length + 1):
            out.add(Word(w.alphabet, w.letters[i : i + length]))
    return out


def iter_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """All words of exactly the given length, in lexicographic order."""
    if length < 0:
        raise ValueError("length must be >= 0")
    for combo in itertools.product(range(len(alphabet)), repeat=length):
        yield Word(alphabet, combo)


def _lyndon_words(size: int, n: int) -> list[tuple[int, ...]]:
    """The Lyndon words of length 1..n over letters 0..size-1, ordered by
    length, then letters.

    These are exactly the least rotations of the primitive words.  Duval's
    generation yields them in lexicographic order, which is kept within each
    length.
    """
    if size == 1:
        n = min(n, 1)  # the letter is the only one; the loop below would grow w to length n
    by_length: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    w = [-1]
    while w:
        w[-1] += 1
        by_length[len(w)].append(tuple(w))
        m = len(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == size - 1:
            w.pop()
    return [x for group in by_length for x in group]


def _lyndon_counts(size: int) -> Iterator[int]:
    """The numbers of Lyndon words of length 1, 2, ... over size letters.

    Each word of length k is a power of a primitive word of a length d
    dividing k, and each primitive class of length d has d rotations and one
    Lyndon representative, so size**k is the sum over d | k of d * L(d)."""
    counts = [0]
    for k in itertools.count(1):
        counts.append((size**k - sum([d * counts[d] for d in range(1, k) if k % d == 0])) // k)
        yield counts[k]
