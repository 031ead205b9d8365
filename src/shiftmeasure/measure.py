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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Union

from .words import Alphabet, Word, primitive_root

Rational = Union[Fraction, int]


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact, got a float")
    return Fraction(value)


@dataclass(frozen=True, init=False)
class MeasureTable:
    """Exact weights for all words of length 1..depth over one alphabet, keyed
    by letter tuple; values is the same table keyed by Word, built on demand."""

    alphabet: Alphabet
    depth: int
    _weights: dict[tuple[int, ...], Fraction]
    total_mass: Fraction

    def __init__(self, alphabet: Alphabet, depth: int, values: Mapping[Word, Rational],
                 total_mass: Rational) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        mass = _as_fraction(total_mass, "total mass")
        if mass < 0:
            raise ValueError("total mass must be nonnegative")
        weights: dict[tuple[int, ...], Fraction] = {}
        for word, raw in values.items():
            if word.alphabet != alphabet:
                raise ValueError(f"word '{word}' is not over the table alphabet")
            if not 1 <= len(word) <= depth:
                raise ValueError(f"word '{word}' has length outside 1..{depth}")
            value = raw if type(raw) is Fraction else _as_fraction(raw, f"value of '{word}'")
            if value < 0:
                raise ValueError(f"negative value for '{word}'")
            if value:
                weights[word.letters] = value
        # Frozen: the fields are set through __dict__, here and in _trusted.
        self.__dict__.update(alphabet=alphabet, depth=depth, _weights=weights, total_mass=mass)

    @classmethod
    def _trusted(cls, alphabet: Alphabet, depth: int, weights: dict[tuple[int, ...], Fraction],
                 mass: Fraction) -> "MeasureTable":
        """Checked data in: Fraction weights > 0 on tuples of length 1..depth, a Fraction mass."""
        table = object.__new__(cls)
        table.__dict__.update(alphabet=alphabet, depth=depth, _weights=weights, total_mass=mass)
        return table

    @cached_property
    def values(self) -> dict[Word, Fraction]:
        return {Word(self.alphabet, u): v for u, v in self._weights.items()}

    def value(self, w: Word) -> Fraction:
        """Weight of the cylinder of w; the empty word gives the total mass."""
        if w.alphabet != self.alphabet:
            raise ValueError("word is not over the table alphabet")
        if len(w) == 0:
            return self.total_mass
        if len(w) > self.depth:
            raise ValueError(f"word length {len(w)} exceeds table depth {self.depth}")
        return self._weights.get(w.letters, Fraction(0))


@dataclass(frozen=True)
class Violation:
    """One broken consistency constraint found by validate().

    kind is "left-extension" or "right-extension" (word set, level None) or
    "level-sum" (level set, word None).
    """

    kind: str
    word: Word | None
    level: int | None
    expected: Fraction
    actual: Fraction

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
    A word can break an extension equality only if it or one of its
    extensions is in the support: it is a support word shorter than the
    depth, or a support word with its first or last letter dropped.  Every
    other word has value 0 and both extension sums 0, so only those words
    are checked.  One pass over the support collects them with their
    extension sums, so the work is O(|support| * depth), not O(|A|^depth).
    The sums and comparisons run on _scaled numerators; expected and actual
    are Fractions.  Violations come in canonical word order (length, then
    letters; left before right at each word), then the level sums by length.
    """
    den, weights = _scaled(m._weights)
    zero = Fraction(0) if weights is m._weights else 0  # int 0 + Fraction is slow
    left_sums: dict[tuple[int, ...], int | Fraction] = {}
    right_sums: dict[tuple[int, ...], int | Fraction] = {}
    level: dict[int, int | Fraction] = {}
    for u, v in weights.items():
        level[len(u)] = level.get(len(u), zero) + v
        if len(u) >= 2:
            left_sums[u[1:]] = left_sums.get(u[1:], zero) + v
            right_sums[u[:-1]] = right_sums.get(u[:-1], zero) + v
    candidates = {u for u in weights if len(u) < m.depth}
    candidates.update(left_sums, right_sums)
    value, left, right = weights.get, left_sums.get, right_sums.get
    broken = [u for u in candidates if not left(u, zero) == value(u, zero) == right(u, zero)]
    out: list[Violation] = []
    for u in sorted(broken, key=lambda u: (len(u), u)):
        expected = value(u, zero)
        for kind, actual in (("left-extension", left(u, zero)), ("right-extension", right(u, zero))):
            if actual != expected:
                out.append(Violation(kind, Word(m.alphabet, u), None,
                                     _unscaled(expected, den), _unscaled(actual, den)))
    mass = m.total_mass * den
    # Mass 0: only the support's levels can break; else each level broken is a line.
    for length in range(1, m.depth + 1) if mass else sorted(level):
        if (total := level.get(length, zero)) != mass:
            out.append(Violation("level-sum", None, length, m.total_mass, _unscaled(total, den)))
    return out


def characteristic_measure(w: Word, depth: int) -> MeasureTable:
    """Weight table of the counting measure on the periodic orbit of w.

    A word v weighs the number of start offsets within one period of the
    biinfinite repetition of w at which v occurs, scaled by the exponent of w
    over its primitive root.  Total mass is |w|.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no characteristic measure")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    root, exponent = primitive_root(w)
    period = len(root)
    stream = root.letters * (-(-depth // period) + 1)
    weights: dict[tuple[int, ...], Fraction] = {}
    for offset in range(period):
        for length in range(1, depth + 1):
            v = stream[offset : offset + length]
            weights[v] = weights.get(v, Fraction(0)) + exponent
    return MeasureTable._trusted(w.alphabet, depth, weights, Fraction(len(w)))


def linear_combination(terms: Iterable[tuple[Rational, MeasureTable]]) -> MeasureTable:
    """Nonnegative rational combination of tables over one alphabet.

    The result is truncated to the smallest depth among the terms; masses
    combine with the same coefficients.
    """
    term_list = list(terms)
    if not term_list:
        raise ValueError("at least one term is required")
    alphabet = term_list[0][1].alphabet
    depth = min(table.depth for _, table in term_list)
    weights: dict[tuple[int, ...], Fraction] = {}
    mass = Fraction(0)
    for coefficient, table in term_list:
        if table.alphabet != alphabet:
            raise ValueError("all terms must share one alphabet")
        lam = _as_fraction(coefficient, "coefficient")
        if lam < 0:
            raise ValueError("coefficients must be nonnegative")
        mass += lam * table.total_mass
        for u, value in table._weights.items():
            if lam and len(u) <= depth:
                weights[u] = weights.get(u, Fraction(0)) + lam * value
    return MeasureTable._trusted(alphabet, depth, weights, mass)


@dataclass(frozen=True)
class FrequencyVector:
    """Letter weights in alphabet order; entries sum to the total mass."""

    alphabet: Alphabet
    entries: tuple[Fraction, ...]


def frequency_vector(m: MeasureTable) -> FrequencyVector:
    letters = range(len(m.alphabet))
    return FrequencyVector(m.alphabet, tuple(m._weights.get((i,), Fraction(0)) for i in letters))


def support_words(m: MeasureTable) -> set[Word]:
    """All stored words of strictly positive weight."""
    return set(m.values)
