"""Finite-scale certificates for injectivity properties of a morphism.

Every check here inspects periodic orbits of bounded period only.  An empty
report is therefore a necessary condition at the stated bound, never a proof
of the unbounded property; a non-empty report is a genuine counterexample.
One pass scans each image once for its exponent and the least rotation of
its primitive root.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .language import FactorLanguage
from .morphism import DepthError, Morphism, _image_letters
from .words import (PreconditionError, Word, _canonical, _lyndon_counts, _lyndon_words, _Record,
                    _require_count, _require_over, _root_rotation, _shown)

# The number of words in a certificate of each kind.
_WORDS = {"period-preservation": 1, "orbit-injectivity": 2}


class ViolationReport(_Record):
    """Certificates found by one bounded check.

    kind is "period-preservation" (each certificate a single primitive word
    whose image is a proper power) or "orbit-injectivity" (each certificate a
    pair of primitive non-conjugate words whose image orbits coincide); any
    other kind, or a certificate of the wrong number of words, is refused.
    Certificates always re-verify against the defining condition.  They are
    kept as letter tuples over _domain, the first word's alphabet, which every
    word must share.  The words sit in
    _groups, and _placed gives, in order, the (group, member) of each
    certificate's first word: a period certificate is that word alone, an
    orbit certificate pairs it with each later member of its group.  So a
    collision group of k orbits is kept as k words, not k(k-1)/2 pairs.
    _letters and certificates are built on first use.
    """

    __match_args__ = ("kind", "bound", "_domain", "_letters")

    def __init__(self, kind: str, bound: int, certificates: tuple) -> None:
        if kind not in _WORDS:
            raise PreconditionError(f"unknown kind {kind!r}: a report is {' or '.join(map(repr, _WORDS))}")
        parts = [(c,) if isinstance(c, Word) else tuple(c) for c in certificates]
        domain = None
        for index, part in enumerate(parts):
            if len(part) != _WORDS[kind]:
                raise PreconditionError(f"certificate {index} has {len(part)} words: "
                                        f"a {kind} certificate has {_WORDS[kind]}")
            for w in part:  # the first word fixes the alphabet of the others
                domain = _require_over(w, Word, domain, f"certificate {index}").alphabet
        # Each certificate is a group of its own.
        self.__dict__.update(kind=kind, bound=bound, _domain=domain,
                             _groups=tuple(tuple(w.letters for w in p) for p in parts),
                             _placed=tuple((g, 0) for g in range(len(parts))))

    @cached_property
    def _letters(self) -> tuple:
        groups = self._groups
        if self.kind == "period-preservation":
            return tuple((groups[g][i],) for g, i in self._placed)
        return tuple((groups[g][i], right) for g, i in self._placed for right in groups[g][i + 1 :])

    @cached_property
    def certificates(self) -> tuple:
        words = (tuple(Word(self._domain, part) for part in c) for c in self._letters)
        return tuple(w[0] if len(w) == 1 else w for w in words)

    def __bool__(self) -> bool:
        return bool(self._placed)

    def lines(self) -> list[str]:
        return list(self._lines())

    def _lines(self) -> Iterator[str]:  # lines(), one at a time; each word's text is joined once
        symbols, head = self._domain.symbols if self._domain else (), f"VIOLATION {self.kind} "
        texts = [[" ".join([symbols[i] for i in word]) for word in group] for group in self._groups]
        for g, i in self._placed:
            if self.kind == "period-preservation":
                yield head + texts[g][i]
                continue
            left = head + texts[g][i] + " "
            for right in texts[g][i + 1 :]:
                yield left + right

    def render(self) -> str:
        return "\n".join([f"BOUND {self.bound}"] + self.lines())


# Work budgets.  A check on the default full shift generates at most
# FULL_SHIFT_BUDGET Lyndon words (with a language, cost follows the file).
# With or without one, the two checks report at most CERTIFICATE_BUDGET
# certificates together: a collision group of k orbits owes k(k-1)/2 pairs.
FULL_SHIFT_BUDGET = 10**6
CERTIFICATE_BUDGET = 10**6


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
        _require_count(bound, "bound")
        size = len(sigma.domain)
        count = 0
        # Over one letter no Lyndon word is longer than 1, whatever the bound.
        for k, lyndon in zip(range(1, bound + 1 if size > 1 else 2), _lyndon_counts(size)):
            count += lyndon
            if count > FULL_SHIFT_BUDGET:
                raise PreconditionError(
                    f"bound {_shown(bound)} is over the work budget: the full shift over {size} "
                    f"letters has {count} primitive orbits of period <= {k}, "
                    f"more than {FULL_SHIFT_BUDGET}")
        return _lyndon_words(size, bound)
    _require_count(bound, "bound", 1, _require_over(language, FactorLanguage, sigma.domain, "language").maxlen)
    scans = (_root_rotation(x) for x in language._words if len(x) <= bound)
    representatives = {key for key, exponent in scans if exponent == 1}
    return _canonical(representatives)


def _reports(
    sigma: Morphism, language: FactorLanguage | None, bound: int
) -> tuple[ViolationReport, ViolationReport]:
    """The period-preservation and orbit-injectivity reports from one pass.

    Representatives come in canonical order and join their groups (keyed by
    the least rotation of the image root) in that order, so pairing each with
    the later members of its group yields the pairs already sorted.  More than
    CERTIFICATE_BUDGET certificates is an error raised before any is built."""
    _require_over(sigma, Morphism, None, "morphism")
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    powers, placed, count = [], [], 0
    for rep in _primitive_representatives(sigma, language, bound):
        key, exponent = _root_rotation(_image_letters(sigma._images, rep))
        if exponent >= 2:
            powers.append((rep,))
            count += 1
        group = groups.setdefault(key, [])
        count += len(group)
        if count > CERTIFICATE_BUDGET:
            raise PreconditionError(
                f"bound {_shown(bound)} is over the certificate budget: the primitive orbits of period"
                f" <= {len(rep)} give at least {count} certificates, more than {CERTIFICATE_BUDGET}")
        placed.append((group, len(group)))
        group.append(rep)
    # Only groups of two or more orbits owe pairs, and only their members with a later one start one.
    colliding = [group for group in groups.values() if len(group) > 1]
    number = {id(group): g for g, group in enumerate(colliding)}
    firsts = tuple((number[id(group)], i) for group, i in placed if i < len(group) - 1)
    # An empty report has no domain, as one from the public constructor.
    period = ViolationReport._trusted("period-preservation", bound, sigma.domain if powers else None,
                                      _groups=tuple(powers), _placed=tuple((g, 0) for g in range(len(powers))))
    orbit = ViolationReport._trusted("orbit-injectivity", bound, sigma.domain if firsts else None,
                                     _groups=tuple(map(tuple, colliding)), _placed=firsts)
    return period, orbit


def check_period_preservation(
    sigma: Morphism, language: FactorLanguage | None, bound: int
) -> ViolationReport:
    """Witness primitive words whose image is a proper power.

    Image primitivity is a rotation invariant, so one representative per
    class is checked and reported.  language None means the full shift over
    the domain up to the bound, which is never built as a language; a language
    must be over the domain, and the bound an int from 1 to its maxlen.  More than
    CERTIFICATE_BUDGET certificates from the two checks together is an error.
    """
    return _reports(sigma, language, bound)[0]


def check_periodic_orbit_injectivity(
    sigma: Morphism, language: FactorLanguage | None, bound: int
) -> ViolationReport:
    """Witness pairs of distinct periodic orbits that share an image orbit.

    Two primitive words generate the same image orbit exactly when the
    primitive roots of their images are rotations of each other, so classes
    are grouped by the canonical rotation of that root.  language None means
    the full shift over the domain up to the bound, as for
    check_period_preservation, and the certificate budget is the same.
    """
    return _reports(sigma, language, bound)[1]


def prolongation_split(
    sigma: Morphism, language: FactorLanguage, w: Word, n: int
) -> tuple[set[Word], set[Word], set[Word]]:
    """Split the n-step two-sided prolongations of w by preimage ambiguity.

    Returns (W, U, A): W holds every uwv in the language with |u| = |v| = n.
    The language words of that length are grouped by image, and a
    prolongation is ambiguous (in A) when its group holds a middle other than
    w, unambiguous (in U) otherwise.  Only for letter-to-letter morphisms.
    """
    if not _require_over(sigma, Morphism, None, "morphism").is_letter_to_letter:
        raise PreconditionError("the prolongation split requires a letter-to-letter morphism")
    _require_over(language, FactorLanguage, sigma.domain, "language")
    _require_count(n, "prolongation length", 0)
    total_len = len(w) + 2 * n
    if total_len > language.maxlen:
        raise DepthError(total_len, language.maxlen)
    if w not in language:
        raise PreconditionError(f"word '{w}' is not in the language")
    middles: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    prolongations: dict[Word, tuple[int, ...]] = {}
    for x in language._words:
        if len(x) == total_len:
            image = _image_letters(sigma._images, x)
            middles.setdefault(image, set()).add(x[n : total_len - n])
            if x[n : total_len - n] == w.letters:
                prolongations[Word._trusted(w.alphabet, x)] = image
    ambiguous = {x for x, image in prolongations.items() if len(middles[image]) > 1}
    return set(prolongations), set(prolongations) - ambiguous, ambiguous
