"""Finite-scale certificates for injectivity properties of a morphism.

Every check here inspects periodic orbits of bounded period only.  An empty
report is therefore a necessary condition at the stated bound, never a proof
of the unbounded property; a non-empty report is a genuine counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .language import FactorLanguage
from .morphism import Morphism, apply
from .transfer import DepthError
from .words import Word, _least_rotation, _lyndon_count, _lyndon_words, _root_letters


@dataclass(frozen=True)
class ViolationReport:
    """Certificates found by one bounded check.

    kind is "period-preservation" (each certificate a single primitive word
    whose image is a proper power) or "orbit-injectivity" (each certificate a
    pair of primitive non-conjugate words whose image orbits coincide).
    Certificates always re-verify against the defining condition.
    """

    kind: str
    bound: int
    certificates: tuple

    def __bool__(self) -> bool:
        return bool(self.certificates)

    def lines(self) -> list[str]:
        out = []
        for certificate in self.certificates:
            witnesses = (certificate,) if isinstance(certificate, Word) else certificate
            out.append(f"VIOLATION {self.kind} " + " ".join(str(w) for w in witnesses))
        return out

    def render(self) -> str:
        return "\n".join([f"BOUND {self.bound}"] + self.lines())


# Most Lyndon words a check on the default full shift may generate.  An
# explicit language needs no budget: its cost follows the file.
FULL_SHIFT_BUDGET = 10**6


def _primitive_representatives(
    sigma: Morphism, language: FactorLanguage | None, bound: int
) -> list[tuple[int, ...]]:
    """One canonical representative (least rotation) per rotation class of
    the primitive words up to the bound, as letter tuples in canonical order.

    With language None the words are those of the full shift over the domain
    of sigma, whose representatives are the Lyndon words; they are counted
    before they are generated, and more than FULL_SHIFT_BUDGET of them is an
    error.  Otherwise the words are those of the language, and a
    representative need not itself lie in the language.
    """
    if language is None:
        if bound < 1:
            raise ValueError(f"bound {bound} must be >= 1")
        size = len(sigma.domain)
        count = 0
        # Over one letter no Lyndon word is longer than 1, whatever the bound.
        for k in range(1, bound + 1 if size > 1 else 2):
            count += _lyndon_count(size, k)
            if count > FULL_SHIFT_BUDGET:
                raise ValueError(
                    f"bound {bound} is over the work budget: the full shift over {size} "
                    f"letters has {count} primitive orbits of period <= {k}, "
                    f"more than {FULL_SHIFT_BUDGET}"
                )
        return _lyndon_words(size, bound)
    if language.alphabet != sigma.domain:
        raise ValueError("language alphabet must be the domain of the morphism")
    if not 1 <= bound <= language.maxlen:
        raise ValueError(f"bound {bound} outside 1..{language.maxlen}")
    representatives = {
        _least_rotation(w.letters)
        for w in language.words
        if len(w) <= bound and _root_letters(w.letters)[1] == 1
    }
    return sorted(representatives, key=_letters_key)


def _letters_key(letters: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Word.sort_key on a letter tuple."""
    return len(letters), letters


def _images(
    sigma: Morphism, reps: list[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(rep, letters of sigma(rep)) for each representative, in order.

    Each image is built by concatenation, which allocates every tuple at its
    final size; tuple() over an iterator resizes, and the resized tuples
    pile up in CPython's per-size free lists (about 2 MiB in a long run).
    """
    images = [img.letters for img in sigma.images]
    for rep in reps:
        image: tuple[int, ...] = ()
        for i in rep:
            image += images[i]
        yield rep, image


def check_period_preservation(
    sigma: Morphism, language: FactorLanguage | None, bound: int
) -> ViolationReport:
    """Witness primitive words whose image is a proper power.

    Image primitivity is a rotation invariant, so one representative per
    class is checked and reported.  language None means the full shift over
    the domain up to the bound, which is never built as a language.
    """
    certificates = tuple(
        Word(sigma.domain, rep)
        for rep, image in _images(sigma, _primitive_representatives(sigma, language, bound))
        if _root_letters(image)[1] >= 2
    )
    return ViolationReport("period-preservation", bound, certificates)


def check_periodic_orbit_injectivity(
    sigma: Morphism, language: FactorLanguage | None, bound: int
) -> ViolationReport:
    """Witness pairs of distinct periodic orbits that share an image orbit.

    Two primitive words generate the same image orbit exactly when the
    primitive roots of their images are rotations of each other, so classes
    are grouped by the canonical rotation of that root.  language None means
    the full shift over the domain up to the bound, as for
    check_period_preservation.
    """
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rep, image in _images(sigma, _primitive_representatives(sigma, language, bound)):
        groups.setdefault(_least_rotation(_root_letters(image)[0]), []).append(rep)
    pairs = [
        (members[i], members[j])
        for members in groups.values()
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]
    pairs.sort(key=lambda p: (_letters_key(p[0]), _letters_key(p[1])))
    certificates = tuple(
        (Word(sigma.domain, left), Word(sigma.domain, right)) for left, right in pairs
    )
    return ViolationReport("orbit-injectivity", bound, certificates)


def prolongation_split(
    sigma: Morphism, language: FactorLanguage, w: Word, n: int
) -> tuple[set[Word], set[Word], set[Word]]:
    """Split the n-step two-sided prolongations of w by preimage ambiguity.

    Returns (W, U, A): W holds every uwv in the language with |u| = |v| = n;
    a prolongation is unambiguous (in U) when every language word with the
    same image has the same middle w, and ambiguous (in A) otherwise.  Only
    defined for letter-to-letter morphisms.
    """
    if not sigma.is_letter_to_letter:
        raise ValueError("the prolongation split requires a letter-to-letter morphism")
    if language.alphabet != sigma.domain:
        raise ValueError("language alphabet must be the domain of the morphism")
    if n < 0:
        raise ValueError("prolongation length must be >= 0")
    if len(w) + 2 * n > language.maxlen:
        raise DepthError(len(w) + 2 * n, language.maxlen)
    if w not in language:
        raise ValueError(f"word '{w}' is not in the language")
    middle = w.letters
    total_len = len(w) + 2 * n
    prolongations = {
        x
        for x in language.words
        if len(x) == total_len and x.letters[n : n + len(w)] == middle
    }
    preimages: dict[int, list[int]] = {}
    for i, img in enumerate(sigma.images):
        preimages.setdefault(img.letters[0], []).append(i)
    unambiguous: set[Word] = set()
    ambiguous: set[Word] = set()
    for x in prolongations:
        image = apply(sigma, x)
        options = [preimages.get(b, []) for b in image.letters]
        clean = True
        for combo in itertools.product(*options):
            if combo[n : n + len(w)] != middle and Word(sigma.domain, combo) in language:
                clean = False
                break
        (unambiguous if clean else ambiguous).add(x)
    return prolongations, unambiguous, ambiguous
