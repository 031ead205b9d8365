"""Measure transfer along a non-erasing morphism, by two independent routes.

The direct route evaluates the transferred weight of a target word as an
essential-occurrence sum against the stored support of the input table.  It
images each support word once and credits every essential occurrence to its
target in the same pass, so a whole table costs one sweep of the support
rather than one per target.  The decomposition route reweights the table
along the subdivision part of the canonical decomposition and pushes the
result through the letter-to-letter part.  The two routes produce identical
tables and are kept separate as a structural cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .measure import MeasureTable
from .morphism import (
    Morphism,
    _essential_sweep,
    apply,
    canonical_decomposition,
    norms,
    subdivision_morphism,
)
from .words import Word, factors


class DepthError(ValueError):
    """An input table or language is too shallow for the requested output."""

    def __init__(self, required: int, actual: int):
        super().__init__(
            f"input depth {actual} is insufficient: depth >= {required} is required"
        )
        self.required = required
        self.actual = actual


def required_input_depth(sigma: Morphism, out_len: int) -> int:
    """Smallest input depth that determines every transferred weight on
    words up to the given output length."""
    if out_len < 0:
        raise ValueError("output length must be >= 0")
    if out_len <= 1:
        return 1
    _, min_len = norms(sigma)
    return (out_len - 2) // min_len + 2


def _transferred_mass(sigma: Morphism, m: MeasureTable) -> Fraction:
    """Total transferred mass: each letter block contributes its length."""
    return sum(
        (
            Fraction(len(sigma.images[i])) * m.value(Word(m.alphabet, (i,)))
            for i in range(len(m.alphabet))
        ),
        Fraction(0),
    )


def transfer_eval(sigma: Morphism, m: MeasureTable, target: Word) -> Fraction:
    """Transferred weight of one codomain word.

    Sweeps the support of m for essential occurrences of exactly the
    target's length and reads the target's sum.  Support words longer than
    the required input depth of the target cannot carry one and are
    skipped.  The empty target yields the total transferred mass, where each
    letter block contributes its length.
    """
    if m.alphabet != sigma.domain:
        raise ValueError("table alphabet must be the domain of the morphism")
    if target.alphabet != sigma.codomain:
        raise ValueError("target word must be over the codomain of the morphism")
    required = required_input_depth(sigma, len(target))
    if m.depth < required:
        raise DepthError(required, m.depth)
    if len(target) == 0:
        return _transferred_mass(sigma, m)
    support = ((u.letters, mu) for u, mu in m.values.items() if len(u) <= required)
    swept = _essential_sweep(sigma, support, len(target), len(target))
    return Fraction(swept.get(target.letters, 0))


def transfer_table(sigma: Morphism, m: MeasureTable, out_depth: int) -> MeasureTable:
    """Transferred table on all codomain words up to out_depth.

    One sweep images each support word of length at most the required input
    depth once and credits every essential occurrence of length <= out_depth
    to its factor, so all targets are evaluated together.  Longer support
    words only have essential occurrences longer than out_depth.  Words the
    sweep never reaches are zero.
    """
    if out_depth < 1:
        raise ValueError("output depth must be >= 1")
    if m.alphabet != sigma.domain:
        raise ValueError("table alphabet must be the domain of the morphism")
    required = required_input_depth(sigma, out_depth)
    if m.depth < required:
        raise DepthError(required, m.depth)
    support = ((u.letters, mu) for u, mu in m.values.items() if len(u) <= required)
    swept = _essential_sweep(sigma, support, 1, out_depth)
    values = {Word(sigma.codomain, letters): weight for letters, weight in swept.items()}
    return MeasureTable(sigma.codomain, out_depth, values, _transferred_mass(sigma, m))


def subdivision_measure(
    lengths: Mapping[str, int], m: MeasureTable, out_depth: int
) -> MeasureTable:
    """Reweighting of m along the subdivision morphism of a length map.

    A subdivision word weighs what the shortest word whose subdivision image
    contains it as a factor weighs, or zero when no such word exists.  Total
    mass is sum of lengths[a] * m(a).
    """
    if out_depth < 1:
        raise ValueError("output depth must be >= 1")
    pi = subdivision_morphism(m.alphabet, lengths)
    required = required_input_depth(pi, out_depth)
    if m.depth < required:
        raise DepthError(required, m.depth)
    # subdivision letter -> (base letter, 1-based position, block length)
    info: dict[int, tuple[int, int, int]] = {}
    for i, img in enumerate(pi.images):
        for k, letter in enumerate(img.letters):
            info[letter] = (i, k + 1, len(img))
    candidates: set[Word] = set()
    for u in m.values:
        if len(u) <= required:
            candidates |= factors(apply(pi, u), out_depth)
    values: dict[Word, Fraction] = {}
    for u in candidates:
        cover = _shortest_cover(info, u.letters)
        if cover is None:
            continue
        weight = m.value(Word(m.alphabet, cover))
        if weight:
            values[u] = weight
    mass = sum(
        (
            Fraction(len(img)) * m.value(Word(m.alphabet, (i,)))
            for i, img in enumerate(pi.images)
        ),
        Fraction(0),
    )
    return MeasureTable(pi.codomain, out_depth, values, mass)


def _shortest_cover(
    info: Mapping[int, tuple[int, int, int]], letters: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Base word tiled by a subdivision word, or None when the positions do
    not chain (within a block positions must step by one; a block may only
    be left at its end and entered at position one)."""
    base, position, block_len = info[letters[0]]
    cover = [base]
    for x in letters[1:]:
        b, pos, ln = info[x]
        if position < block_len:
            if b != base or pos != position + 1:
                return None
        else:
            if pos != 1:
                return None
            cover.append(b)
        base, position, block_len = b, pos, ln
    return tuple(cover)


def pushforward_letter_to_letter(alpha: Morphism, m: MeasureTable) -> MeasureTable:
    """Classical push-forward along a letter-to-letter morphism.

    Depth and total mass are preserved; each target word collects the
    weights of its preimage words.
    """
    if not alpha.is_letter_to_letter:
        raise ValueError("push-forward requires a letter-to-letter morphism")
    if m.alphabet != alpha.domain:
        raise ValueError("table alphabet must be the domain of the morphism")
    values: dict[Word, Fraction] = {}
    for u, weight in m.values.items():
        image = apply(alpha, u)
        values[image] = values.get(image, Fraction(0)) + weight
    return MeasureTable(alpha.codomain, m.depth, values, m.total_mass)


def transfer_via_decomposition(
    sigma: Morphism, m: MeasureTable, out_depth: int
) -> MeasureTable:
    """Transfer computed as subdivision reweighting followed by push-forward."""
    decomposition = canonical_decomposition(sigma)
    subdivided = subdivision_measure(decomposition.lengths, m, out_depth)
    return pushforward_letter_to_letter(decomposition.alpha, subdivided)
