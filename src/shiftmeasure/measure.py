"""Finite-depth weight tables for shift-invariant measures.

A shift-invariant measure on a subshift is determined by its weights on
cylinders of finite words.  The weight function is nonnegative and satisfies
the Kirchhoff equalities: summing over all one-letter extensions of a word on
either side reproduces the word's weight.  A MeasureTable stores such a
function exactly (rationals only) on all words up to a fixed depth, together
with the total mass, which is also the weight of the empty-word cylinder.
Absent entries are zero; violations of the consistency constraints are data
reported by validate(), not construction errors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Union

from .words import (Alphabet, PreconditionError, Word, _canonical, _Record, _require_count, _require_letters,
                    _require_over, _shown, primitive_root)

Rational = Union[Fraction, int]


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact, got a float")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):  # a str that is no rational, or one over 0
        raise PreconditionError(f"{what} is not a rational: {value!r}") from None


class MeasureTable(_Record):
    """Exact weights for all words of length 1..depth over one alphabet, keyed by letter tuple
    (_trusted takes Fraction weights > 0 and a Fraction mass); values is the same table keyed
    by Word, built on demand.  The weights dict makes a table unhashable."""

    __match_args__ = ("alphabet", "depth", "_weights", "total_mass")

    def __init__(self, alphabet: Alphabet, depth: int, values: Mapping[Word, Rational],
                 total_mass: Rational) -> None:
        _require_over(alphabet, Alphabet, None, "alphabet")
        _require_count(depth, "depth")
        mass = _as_fraction(total_mass, "total mass")
        if mass < 0:
            raise PreconditionError("total mass must be nonnegative")
        weights: dict[tuple[int, ...], Fraction] = {}
        for word, raw in values.items():
            _require_over(word, Word, alphabet, "word")
            if not 1 <= len(word) <= depth:
                raise PreconditionError(f"word '{word}' has length outside 1..{_shown(depth)}")
            value = raw if type(raw) is Fraction else _as_fraction(raw, f"value of '{word}'")
            if value < 0:
                raise PreconditionError(f"negative value for '{word}'")
            if value:
                weights[word.letters] = value
        self.__dict__.update(alphabet=alphabet, depth=depth, _weights=weights, total_mass=mass)

    @cached_property
    def values(self) -> dict[Word, Fraction]:
        return {Word._trusted(self.alphabet, u): v for u, v in self._weights.items()}

    @cached_property
    def _prefixes(self) -> Mapping | set:
        """The keys with all their prefixes: _weights itself when each key's prefix one letter
        shorter is a key, as in every Kirchhoff-consistent table."""
        weights = self._weights
        if all(u[:-1] in weights for u in weights if len(u) > 1):
            return weights
        return {u[:k] for u in weights for k in range(1, len(u) + 1)}

    def value(self, w: Word) -> Fraction:
        """Weight of the cylinder of w; the empty word gives the total mass."""
        _require_over(w, Word, self.alphabet, "word")
        if len(w) == 0:
            return self.total_mass
        if len(w) > self.depth:
            raise PreconditionError(f"word length {len(w)} exceeds table depth {self.depth}")
        return self._weights.get(w.letters, Fraction(0))


class Violation(_Record):
    """One broken consistency constraint found by validate().

    kind is "left-extension" or "right-extension" (word set, level None) or
    "level-sum" (level set, word None).
    """

    __match_args__ = ("kind", "word", "level", "expected", "actual")

    def __init__(self, kind: str, word: Word | None, level: int | None, expected: Fraction,
                 actual: Fraction) -> None:
        self.__dict__.update(kind=kind, word=word, level=level, expected=expected, actual=actual)

    def __str__(self) -> str:
        subject = str(self.word) if self.word is not None else f"length-{self.level}"
        return f"{self.kind} at {subject}: expected {self.expected}, found {self.actual}"


_SCALE_CAP = 1 << 64


def _scaled(weights: Mapping[tuple[int, ...], Fraction]) -> tuple[int, Mapping]:
    """(den, numerators): each weight as an int over den, the lcm of the
    denominators.  Distinct prime denominators make den grow with the support,
    so above _SCALE_CAP it is (1, weights) and sums run on the Fractions."""
    den = 1
    for v in weights.values():
        if den % v.denominator:
            den = math.lcm(den, v.denominator)
            if den > _SCALE_CAP:
                return 1, weights
    return den, {u: v.numerator * (den // v.denominator) for u, v in weights.items()}


def _unscaled(n: int | Fraction, den: int) -> Fraction:
    """A sum over _scaled numerators as a Fraction; a fallback Fraction is kept."""
    return Fraction(n, den) if type(n) is int else n


def validate(m: MeasureTable) -> list[Violation]:
    """Every Kirchhoff and level-sum violation; an empty list means consistent.

    The equalities mu(w) = sum_a mu(aw) = sum_a mu(wa) must hold at every
    word w of length 1..depth-1, and every level must sum to the total mass.
    Each side keeps one signed balance per word, mu(w) less its extension
    sum there: it starts at the weight of every support word shorter than
    the depth, and each support word u of length 2 or more subtracts its
    weight from the left balance of u with its first letter dropped and the
    right balance of u with its last letter dropped.  A word breaks a side
    exactly when its balance there is nonzero, and the extension sum is then
    mu(w) less the balance; every word with no balance has value 0 and both
    extension sums 0.  So the work is one pass over the support,
    O(|support| * depth), not O(|A|^depth).  The balances run on _scaled
    numerators; expected and actual are Fractions.  Violations come in
    canonical word order (length, then letters; left before right at each
    word), then the level sums by length.
    """
    return list(_violations(_require_over(m, MeasureTable, None, "table")))


def _violations(m: MeasureTable) -> Iterator[Violation]:
    """validate's violations one at a time: a deep table's level sums cost no memory."""
    den, weights = _scaled(m._weights)
    zero = Fraction(0) if weights is m._weights else 0  # int 0 + Fraction is slow
    left = {u: v for u, v in weights.items() if len(u) < m.depth}
    right = left.copy()
    level: dict[int, int | Fraction] = {}
    for u, v in weights.items():
        n = len(u)
        level[n] = level.get(n, zero) + v
        if n >= 2:
            suffix, prefix = u[1:], u[:-1]
            left[suffix] = left.get(suffix, zero) - v
            right[prefix] = right.get(prefix, zero) - v
    broken = {u for u, b in left.items() if b}.union([u for u, b in right.items() if b])
    for u in _canonical(broken):
        expected = weights.get(u, zero)
        for kind, balance in (("left-extension", left.get(u)), ("right-extension", right.get(u))):
            if balance:
                yield Violation(kind, Word._trusted(m.alphabet, u), None,
                                _unscaled(expected, den), _unscaled(expected - balance, den))
    mass = m.total_mass * den
    # Mass 0: only the support's levels can break; else each level broken is a line.
    for length in range(1, m.depth + 1) if mass else sorted(level):
        if (total := level.get(length, zero)) != mass:
            yield Violation("level-sum", None, length, m.total_mass, _unscaled(total, den))


def characteristic_measure(w: Word, depth: int) -> MeasureTable:
    """Weight table of the counting measure on the periodic orbit of w.

    A word v weighs the number of start offsets within one period of the
    biinfinite repetition of w at which v occurs, scaled by the exponent of w
    over its primitive root.  Total mass is |w|.  More than TABLE_BUDGET letters
    in the keys, period * depth * (depth + 1) / 2, is refused before any is built.
    """
    if len(w) == 0:
        raise PreconditionError("the empty word has no characteristic measure")
    _require_count(depth, "depth")
    root, exponent = primitive_root(w)
    period = len(root)
    _require_letters(period * depth * (depth + 1) // 2, "depth", depth,
                     "its keys for an orbit of period {} hold", period)
    stream = root.letters * (-(-depth // period) + 1)
    counts: dict[tuple[int, ...], int] = {}
    for offset in range(period):
        for length in range(1, depth + 1):
            v = stream[offset : offset + length]
            counts[v] = counts.get(v, 0) + exponent
    exact = {n: Fraction(n) for n in set(counts.values())}  # one Fraction per distinct count
    weights = {v: exact[n] for v, n in counts.items()}
    return MeasureTable._trusted(w.alphabet, depth, weights, Fraction(len(w)))


def linear_combination(terms: Iterable[tuple[Rational, MeasureTable]]) -> MeasureTable:
    """Nonnegative rational combination of tables over one alphabet.

    The result is truncated to the smallest depth among the terms; masses
    combine with the same coefficients.
    """
    term_list = []
    for index, term in enumerate(terms):
        try:
            coefficient, table = term
        except (TypeError, ValueError):  # not iterable, or not of two items
            raise TypeError(f"term {index} is not a (coefficient, table) pair") from None
        term_list.append((coefficient, table))
    if not term_list:
        raise PreconditionError("at least one term is required")
    alphabet = _require_over(term_list[0][1], MeasureTable, None, "term").alphabet
    depth = min(_require_over(t, MeasureTable, alphabet, "term").depth for _, t in term_list)
    weights: dict[tuple[int, ...], Fraction] = {}
    mass = Fraction(0)
    for coefficient, table in term_list:
        lam = _as_fraction(coefficient, "coefficient")
        if lam < 0:
            raise PreconditionError("coefficients must be nonnegative")
        mass += lam * table.total_mass
        for u, value in table._weights.items():
            if lam and len(u) <= depth:
                weights[u] = weights.get(u, Fraction(0)) + lam * value
    return MeasureTable._trusted(alphabet, depth, weights, mass)


class FrequencyVector(_Record):
    """Letter weights in alphabet order; entries sum to the total mass."""

    __match_args__ = ("alphabet", "entries")

    def __init__(self, alphabet: Alphabet, entries: tuple[Fraction, ...]) -> None:
        self.__dict__.update(alphabet=alphabet, entries=entries)


def frequency_vector(m: MeasureTable) -> FrequencyVector:
    letters = range(len(_require_over(m, MeasureTable, None, "table").alphabet))
    return FrequencyVector(m.alphabet, tuple(m._weights.get((i,), Fraction(0)) for i in letters))


def support_words(m: MeasureTable) -> set[Word]:
    """All stored words of strictly positive weight."""
    return set(_require_over(m, MeasureTable, None, "table").values)
