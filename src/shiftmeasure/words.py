"""Alphabets and finite words over token symbols.

Symbols are whitespace-free string tokens rather than single characters, so
composite letters such as ``a.2`` coming out of subdivision alphabets need no
special casing; the text formats reserve a leading ``#`` or ``!`` and the
token ``->``.  Words store symbol indices into a fixed alphabet and are
immutable; the empty word is a valid value except where an operation is
mathematically undefined on it.  One linear scan gives the primitive root,
its exponent and the least rotation.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping

TABLE_BUDGET = 10**7  # work budget: the most letters a table's keys or a language's words may hold


class PreconditionError(ValueError):
    """A deliberate refusal: an argument out of range, an input too shallow, or work over a budget."""


class _Record:
    """An immutable value whose fields, named by __match_args__, are set once
    through __dict__ and are compared, hashed and shown as a frozen
    dataclass's are: equal only within one class, hashed as a tuple."""

    @classmethod
    def _trusted(cls, *fields: object, **stored: object):
        """A record from already checked fields in __match_args__ order, and other stored
        attributes by name: no check, no copy.  A field left out is built on first use."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls.__match_args__, fields), **stored)
        return record

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"


class Alphabet(_Record):
    """An ordered collection of distinct symbol tokens.

    Declaration order is part of the identity: it fixes matrix indexing and
    the canonical (length, then lexicographic) order used for all output.
    """

    __match_args__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]) -> None:
        symbols = tuple(symbols)
        if not symbols:
            raise PreconditionError("alphabet must not be empty")
        indices: dict[str, int] = {}
        for token in symbols:
            _check_token(token)
            if token in indices:
                raise PreconditionError(f"duplicate symbol token: {token!r}")
            indices[token] = len(indices)
        self.__dict__.update(symbols=symbols, _indices=indices)

    def index(self, token: str) -> int:
        try:
            return self._indices[token]
        except KeyError:
            raise PreconditionError(f"symbol {token!r} not in alphabet [{self}]") from None

    def word(self, tokens: Iterable[str]) -> "Word":
        """Build a word from symbol tokens: the one place tokens become letters."""
        try:
            return Word._trusted(self, tuple(map(self._indices.__getitem__, tokens)))
        except KeyError as missing:
            self.index(missing.args[0])  # the first unknown token: its refusal
            raise

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
    if not isinstance(token, str):
        raise TypeError(f"symbol token must be a str, not {type(token).__name__}")
    if token.split() != [token]:  # empty, or holding whitespace
        raise PreconditionError(f"invalid symbol token: {token!r}")
    if token.startswith(("#", "!")) or token == "->":
        raise PreconditionError(
            f"invalid symbol token: {token!r} (a token may not start with '#' or '!', or be '->')")


class Word(_Record):
    """A finite word: a sequence of symbol indices into one alphabet."""

    __match_args__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: tuple[int, ...]) -> None:
        letters = tuple(letters)
        size = len(_require_over(alphabet, Alphabet, None, "alphabet"))
        for i in letters:
            if not 0 <= _require_over(i, int, None, "letter index") < size:
                raise PreconditionError(f"letter index {_shown(i)} out of range for alphabet [{alphabet}]")
        self.__dict__.update(alphabet=alphabet, letters=letters)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet.symbols[i] for i in self.letters)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order: length first, then letter indices."""
        return (len(self.letters), self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.alphabet, self.letters + _require_over(other, Word, self.alphabet, "word").letters)

    def __str__(self) -> str:
        return " ".join(self.tokens)


def _require_count(n: object, what: str, least: int = 1, most: int | None = None) -> int:
    """Every depth, maxlen, length and bound: n, an int (by _require_over) from least to most (None: no top)."""
    if _require_over(n, int, None, what) < least:
        raise PreconditionError(f"{what} must be >= {least}")
    if most is not None and n > most:
        raise PreconditionError(f"{what} must be <= {_shown(most)}")
    return n


def _require_over(x: object, kind: type, alphabet: Alphabet | None, what: str):
    """x, a kind (a Word, count, table, language, alphabet, morphism or text) over alphabet
    (any when None): the one type check of every typed argument.  A Word is quoted when refused."""
    if type(x) is not kind:
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise TypeError(f"{what} must be {article} {kind.__name__}, not {type(x).__name__}")
    if alphabet is not None and x.alphabet != alphabet:
        shown = f"'{x}'" if kind is Word else f"over [{x.alphabet}]"
        raise PreconditionError(f"{what} {shown} is not over [{alphabet}]")
    return x


def _require_keys(mapping: object, alphabet: Alphabet, what: str, outside: str) -> None:
    """mapping, a Mapping whose keys are exactly alphabet's tokens; outside heads the extra-key message."""
    if not isinstance(mapping, Mapping):
        raise TypeError(f"{what} must be a Mapping, not {type(mapping).__name__}")
    if missing := [t for t in alphabet.symbols if t not in mapping]:
        raise PreconditionError(f"missing {what} for letters: {missing}")
    if extra := [t for t in mapping if t not in alphabet]:
        raise PreconditionError(f"{outside}: {extra}")


def _require_letters(letters: int, what: str, count: int, holder: str, *held: int) -> int:
    """letters, held by holder (a format of held) for the argument what = count, unless over TABLE_BUDGET."""
    if letters > TABLE_BUDGET:
        raise PreconditionError(f"{what} {_shown(count)} is over the table budget: {holder.format(*held)} "
                                f"{_shown(letters)} letters, more than {TABLE_BUDGET}")
    return letters


def _shown(n: int) -> str:
    """n in decimal, or by its digit count where the interpreter's int-to-str digit limit refuses that."""
    try:
        return str(n)
    except ValueError:
        digits = (n.bit_length() - 1) * 30102999 // 10**8  # <= log10(n), as 0.30102999 < log10(2)
        while n >= 10**digits:
            digits += 1
        return f"<{digits}-digit number>"


def _canonical(keys: Iterable[tuple]) -> list[tuple]:
    """Letter tuples in canonical order, by length and then letters, from two C-level sorts."""
    order = sorted(keys)
    order.sort(key=len)
    return order


def count_occurrences(w: Word, u: Word) -> int:
    """Number of (possibly overlapping) start positions of u inside w."""
    _require_over(u, Word, _require_over(w, Word, None, "word").alphabet, "pattern")
    if len(u) == 0:
        raise PreconditionError("occurrence counting is undefined for the empty word")
    target = u.letters
    m = len(target)
    return sum(1 for i in range(len(w) - m + 1) if w.letters[i : i + m] == target)


def primitive_root(w: Word) -> tuple[Word, int]:
    """Decompose w = root**exponent with the shortest possible root.

    The root is primitive and unique; a word is primitive exactly when its
    exponent is 1.
    """
    if len(w) == 0:
        raise PreconditionError("the empty word has no primitive root")
    exponent = _root_rotation(w.letters)[1]
    return Word(w.alphabet, w.letters[: len(w) // exponent]), exponent


def is_proper_power(w: Word) -> bool:
    """True iff w = u**k for some k >= 2."""
    return primitive_root(w)[1] >= 2


def rotations(w: Word) -> Iterator[Word]:
    """All cyclic shifts of w, starting with w itself; the empty word is its own one."""
    doubled = w.letters + w.letters
    for i in range(max(len(w), 1)):
        yield Word(w.alphabet, doubled[i : i + len(w)])


def min_rotation(w: Word) -> Word:
    """Lexicographically least rotation, by letter index order."""
    key, exponent = _root_rotation(w.letters)
    return Word(w.alphabet, key * exponent)


def _root_rotation(letters: tuple) -> tuple[tuple, int]:
    """(least rotation of the primitive root, exponent) of a tuple of letter indices or of
    tokens, in O(n); () gives ((), 0).  Of two live starts i < j with k items in common, the
    one with the larger next item loses with the k starts after it, each greater than another
    rotation.  So at k == n, i and j are equal rotations with only greater ones between: the
    root has length j - i."""
    n, doubled = len(letters), letters + letters
    i, j, k = 0, 1, 0
    while j < n and k < n:
        x, y = doubled[i + k], doubled[j + k]
        if x == y:
            k += 1
        elif x > y:
            i, j, k = j, (j + 1 if j > i + k else i + k + 1), 0
        else:
            j, k = j + k + 1, 0
    p = j - i if k == n else n
    return doubled[i : i + p], n // p


def is_rotation(w1: Word, w2: Word) -> bool:
    """True iff the token sequences are cyclic shifts of each other: they have one
    length and one least rotation."""
    return len(w1) == len(w2) and _root_rotation(w1.tokens) == _root_rotation(w2.tokens)


def factors(w: Word, n: int) -> set[Word]:
    """All distinct non-empty factors of w of length at most n."""
    _require_count(n, "factor length bound", 0)
    out: set[Word] = set()
    for length in range(1, min(n, len(w)) + 1):
        for i in range(len(w) - length + 1):
            out.add(Word(w.alphabet, w.letters[i : i + length]))
    return out


def iter_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """All words of exactly the given length, in lexicographic order.  A length over
    TABLE_BUDGET letters is refused at the call, before any word is built."""
    size = len(_require_over(alphabet, Alphabet, None, "alphabet"))
    _require_letters(_require_count(length, "length", 0), "length", length, "each word holds")
    return (Word._trusted(alphabet, combo) for combo in itertools.product(range(size), repeat=length))


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
