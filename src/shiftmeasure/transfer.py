"""Measure transfer along a non-erasing morphism, by two independent routes.

The direct route sums essential occurrences against the stored support of
the input table.  A whole table is one sweep on int numerators over a common
denominator: each support word is imaged once and every essential occurrence
is credited to its target.  One target sums, as Fractions, the weights of the
essential preimages listed from its cuts into image blocks.  The decomposition
route reweights the table along the subdivision part of the canonical
decomposition and pushes the result through the letter-to-letter part, on
Fraction.  The two routes produce identical tables and are kept separate as a
structural cross-check; both take the input-depth bound and DepthError from
morphism.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .measure import MeasureTable, _scaled, _unscaled
from .morphism import (
    Morphism,
    _essential_sweep,
    _image_letters,
    _parses,
    _require_depth,
    _window,
    canonical_decomposition,
    subdivision_morphism,
)
from .morphism import DepthError, required_input_depth  # noqa: F401  still importable from here
from .words import PreconditionError, Word, _require_count, _require_over


def _transferred_mass(sigma: Morphism, m: MeasureTable) -> Fraction:
    """Total transferred mass: each letter block contributes its length."""
    weights = m._weights
    return sum((len(img) * weights.get((i,), 0) for i, img in enumerate(sigma._images)), Fraction(0))


def transfer_eval(sigma: Morphism, m: MeasureTable, target: Word) -> Fraction:
    """Transferred weight of one codomain word: the sum of m(u) * ess(u, target).

    _parses lists each u once per essential occurrence, from the target's cuts
    into image blocks, searching only the prefixes of m's keys, and the weights
    are summed as Fractions.  The empty target yields the total transferred mass.
    """
    _require_over(m, MeasureTable, _require_over(sigma, Morphism, None, "morphism").domain, "table")
    _require_over(target, Word, sigma.codomain, "target")
    if len(target) == 0:
        return _transferred_mass(sigma, m)
    weights = m._weights
    return sum([weights.get(u, 0) for u in _parses(sigma, target.letters, m.depth, m._prefixes)], Fraction(0))


def transfer_table(sigma: Morphism, m: MeasureTable, out_depth: int) -> MeasureTable:
    """Transferred table on all codomain words up to out_depth.

    One sweep images each support word in the _window of out_depth once and
    credits every essential occurrence of length <= out_depth to its factor,
    so all targets are evaluated together on _scaled numerators.  The other
    support words only have essential occurrences longer than out_depth.
    Words the sweep never reaches are zero.  The total mass is summed on the
    same numerators: one-letter words are always in the window.
    """
    _require_count(out_depth, "output depth")
    _require_over(m, MeasureTable, _require_over(sigma, Morphism, None, "morphism").domain, "table")
    kept = {u: m._weights[u] for u in _window(sigma, m._weights, out_depth, m.depth)}
    den, support = _scaled(kept)
    swept = _essential_sweep(sigma, support.items(), out_depth)
    if support is not kept:  # int sums: one Fraction per distinct sum
        exact = {n: Fraction(n, den) for n in set(swept.values())}
        swept = {t: exact[n] for t, n in swept.items()}
    mass = _unscaled(sum([len(img) * support.get((i,), 0) for i, img in enumerate(sigma._images)]), den)
    return MeasureTable._trusted(sigma.codomain, out_depth, swept, mass)


def subdivision_measure(
    lengths: Mapping[str, int], m: MeasureTable, out_depth: int
) -> MeasureTable:
    """Reweighting of m along the subdivision morphism of a length map.

    A subdivision word weighs what the shortest word whose subdivision image
    contains it as a factor weighs, or zero when no such word exists.  Total
    mass is sum of lengths[a] * m(a).
    """
    _require_count(out_depth, "output depth")
    pi = subdivision_morphism(_require_over(m, MeasureTable, None, "table").alphabet, lengths)
    required = _require_depth(pi, out_depth, m.depth)
    images, weights, seen = pi._images, {}, set()
    for u in m._weights:
        if len(u) <= required:
            image = _image_letters(images, u)
            block = [k for k, x in enumerate(u) for _ in images[x]]  # u's index behind each image letter
            for length in range(1, min(out_depth, len(image)) + 1):
                for i in range(len(image) - length + 1):
                    if (t := image[i : i + length]) not in seen:
                        seen.add(t)  # pi's images share no letter: every u gives t this cover
                        if (cover := u[block[i] : block[i + length - 1] + 1]) in m._weights:
                            weights[t] = m._weights[cover]
    return MeasureTable._trusted(pi.codomain, out_depth, weights, _transferred_mass(pi, m))


def pushforward_letter_to_letter(alpha: Morphism, m: MeasureTable) -> MeasureTable:
    """Classical push-forward along a letter-to-letter morphism.

    Depth and total mass are preserved; each target word collects the
    weights of its preimage words.
    """
    if not _require_over(alpha, Morphism, None, "morphism").is_letter_to_letter:
        raise PreconditionError("push-forward requires a letter-to-letter morphism")
    _require_over(m, MeasureTable, alpha.domain, "table")
    weights: dict[tuple[int, ...], Fraction] = {}
    for u, weight in m._weights.items():
        image = _image_letters(alpha._images, u)
        weights[image] = weights.get(image, Fraction(0)) + weight
    return MeasureTable._trusted(alpha.codomain, m.depth, weights, m.total_mass)


def transfer_via_decomposition(
    sigma: Morphism, m: MeasureTable, out_depth: int
) -> MeasureTable:
    """Transfer computed as subdivision reweighting followed by push-forward."""
    _require_over(m, MeasureTable, _require_over(sigma, Morphism, None, "morphism").domain, "table")
    decomposition = canonical_decomposition(sigma)
    subdivided = subdivision_measure(decomposition.lengths, m, out_depth)
    return pushforward_letter_to_letter(decomposition.alpha, subdivided)
