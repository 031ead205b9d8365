"""Non-erasing morphisms of free monoids.

A morphism is fixed by one non-empty image word per domain letter.  Besides
application and composition this module provides the incidence matrix, the
canonical decomposition into a subdivision morphism followed by a
letter-to-letter morphism, and the essential-occurrence count that drives
cylinder evaluation of transferred measures, together with the one-pass sweep
that sums it over many input words and targets at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .words import Alphabet, Word


@dataclass(frozen=True)
class Morphism:
    """A non-erasing monoid morphism, given letterwise.

    images[i] is the image of domain letter i, always a non-empty word over
    the codomain.
    """

    domain: Alphabet
    codomain: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != len(self.domain):
            raise ValueError("need exactly one image per domain letter")
        for token, image in zip(self.domain.symbols, self.images):
            if image.alphabet != self.codomain:
                raise ValueError(f"image of {token!r} is not a word over the codomain")
            if len(image) == 0:
                raise ValueError(f"erasing morphism: image of {token!r} is empty")

    @classmethod
    def from_images(
        cls,
        domain: Alphabet | Sequence[str],
        codomain: Alphabet | Sequence[str],
        images: Mapping[str, Sequence[str]],
    ) -> "Morphism":
        """Build from a token mapping; image values are token sequences.

        A plain string value works for single-character tokens since a string
        iterates as its characters.
        """
        dom = domain if isinstance(domain, Alphabet) else Alphabet(tuple(domain))
        cod = codomain if isinstance(codomain, Alphabet) else Alphabet(tuple(codomain))
        missing = [t for t in dom.symbols if t not in images]
        if missing:
            raise ValueError(f"missing images for letters: {missing}")
        extra = [t for t in images if t not in dom]
        if extra:
            raise ValueError(f"images given for letters outside the domain: {extra}")
        return cls(dom, cod, tuple(cod.word(images[t]) for t in dom.symbols))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Morphism":
        return cls(alphabet, alphabet, tuple(Word(alphabet, (i,)) for i in range(len(alphabet))))

    @property
    def is_letter_to_letter(self) -> bool:
        return all(len(image) == 1 for image in self.images)

    def image(self, letter: int) -> Word:
        return self.images[letter]

    def __call__(self, w: Word) -> Word:
        return apply(self, w)


def apply(sigma: Morphism, w: Word) -> Word:
    """The image word sigma(x_1)...sigma(x_n); the empty word maps to itself."""
    if w.alphabet != sigma.domain:
        raise ValueError("word is not over the domain of the morphism")
    letters: list[int] = []
    for i in w.letters:
        letters.extend(sigma.images[i].letters)
    return Word(sigma.codomain, tuple(letters))


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The morphism w -> outer(inner(w)); requires codomain(inner) = domain(outer)."""
    if inner.codomain != outer.domain:
        raise ValueError(
            "cannot compose: codomain of the inner morphism differs from the domain of the outer one"
        )
    return Morphism(inner.domain, outer.codomain, tuple(apply(outer, img) for img in inner.images))


@dataclass(frozen=True)
class IncidenceMatrix:
    """Letter-count matrix: entry (b, a) is the number of b's in sigma(a).

    Rows follow the codomain, columns the domain, both in declaration order.
    Matrices multiply the way the morphisms they come from compose.
    """

    row_alphabet: Alphabet
    col_alphabet: Alphabet
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        if len(self.entries) != len(self.row_alphabet):
            raise ValueError("need one row per codomain letter")
        for row in self.entries:
            if len(row) != len(self.col_alphabet):
                raise ValueError("need one column per domain letter")
            if any(entry < 0 for entry in row):
                raise ValueError("entries must be nonnegative")

    def entry(self, row: int, col: int) -> int:
        return self.entries[row][col]

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.entries) for j in range(len(self.col_alphabet)))

    def __matmul__(self, other: "IncidenceMatrix") -> "IncidenceMatrix":
        if self.col_alphabet != other.row_alphabet:
            raise ValueError("matrix alphabets do not chain")
        inner = len(self.col_alphabet)
        rows = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(inner))
                for j in range(len(other.col_alphabet))
            )
            for i in range(len(self.row_alphabet))
        )
        return IncidenceMatrix(self.row_alphabet, other.col_alphabet, rows)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product; entries may be any exact numeric type."""
        if len(vector) != len(self.col_alphabet):
            raise ValueError("vector length must match the column count")
        return tuple(sum(row[j] * vector[j] for j in range(len(vector))) for row in self.entries)


def incidence_matrix(sigma: Morphism) -> IncidenceMatrix:
    """Count every codomain letter in every image."""
    counts = []
    for b in range(len(sigma.codomain)):
        counts.append(tuple(sum(1 for x in img.letters if x == b) for img in sigma.images))
    return IncidenceMatrix(sigma.codomain, sigma.domain, tuple(counts))


def norms(sigma: Morphism) -> tuple[int, int]:
    """(longest image length, shortest image length)."""
    lengths = [len(img) for img in sigma.images]
    return max(lengths), min(lengths)


def subdivision_morphism(alphabet: Alphabet, lengths: Mapping[str, int]) -> Morphism:
    """The morphism a -> a.1 ... a.k (k = lengths[a]) into fresh letters.

    Image letter sets are pairwise disjoint, so images of distinct words
    overlap only in the forced tiling way.
    """
    missing = [t for t in alphabet.symbols if t not in lengths]
    if missing:
        raise ValueError(f"missing subdivision lengths for letters: {missing}")
    extra = [t for t in lengths if t not in alphabet]
    if extra:
        raise ValueError(f"subdivision lengths for letters outside the alphabet: {extra}")
    for token in alphabet.symbols:
        if lengths[token] < 1:
            raise ValueError(f"subdivision length of {token!r} must be >= 1")
    sub_tokens = tuple(
        f"{token}.{k}" for token in alphabet.symbols for k in range(1, lengths[token] + 1)
    )
    sub_alphabet = Alphabet(sub_tokens)
    images = []
    position = 0
    for token in alphabet.symbols:
        images.append(Word(sub_alphabet, tuple(range(position, position + lengths[token]))))
        position += lengths[token]
    return Morphism(alphabet, sub_alphabet, tuple(images))


@dataclass(frozen=True)
class SubdivisionData:
    """Canonical decomposition sigma = alpha . pi.

    pi is the subdivision morphism sending letter a to a.1 ... a.k with
    k = |sigma(a)|; alpha is letter-to-letter and maps a.j to the j-th letter
    of sigma(a).
    """

    subdivision_alphabet: Alphabet
    pi: Morphism
    alpha: Morphism

    @property
    def lengths(self) -> dict[str, int]:
        return {t: len(img) for t, img in zip(self.pi.domain.symbols, self.pi.images)}


def canonical_decomposition(sigma: Morphism) -> SubdivisionData:
    """Split sigma into its subdivision part and its letter-to-letter part."""
    lengths = {t: len(img) for t, img in zip(sigma.domain.symbols, sigma.images)}
    pi = subdivision_morphism(sigma.domain, lengths)
    alpha_images = tuple(
        Word(sigma.codomain, (b,)) for img in sigma.images for b in img.letters
    )
    alpha = Morphism(pi.codomain, sigma.codomain, alpha_images)
    return SubdivisionData(pi.codomain, pi, alpha)


def essential_occurrences(sigma: Morphism, w: Word, target: Word) -> int:
    """Occurrences of target in sigma(w) anchored at both ends of w.

    Counted are start positions p (1-based) with p <= |sigma(x_1)| and end
    positions q with q > |sigma(x_1 ... x_{n-1})|, i.e. the occurrence begins
    inside the first letter block and ends inside the last.  For |w| = 1 this
    is every occurrence.
    """
    if len(w) == 0 or len(target) == 0:
        raise ValueError("essential occurrences are undefined for empty words")
    if w.alphabet != sigma.domain:
        raise ValueError("word is not over the domain of the morphism")
    if target.alphabet != sigma.codomain:
        raise ValueError("target is not over the codomain of the morphism")
    image = apply(sigma, w)
    first_block = len(sigma.images[w.letters[0]])
    prefix_end = len(image) - len(sigma.images[w.letters[-1]])
    pattern = target.letters
    m = len(pattern)
    count = 0
    for s in range(min(first_block, len(image) - m + 1)):
        if s + m > prefix_end and image.letters[s : s + m] == pattern:
            count += 1
    return count


def _essential_sweep(
    sigma: Morphism,
    inputs: Iterable[tuple[tuple[int, ...], Fraction | int]],
    lo: int,
    hi: int,
) -> dict[tuple[int, ...], Fraction | int]:
    """Weighted essential occurrences of lengths lo..hi, summed per factor.

    inputs are (letters of a non-empty domain word u, weight) pairs.  Each
    image sigma(u) is built once as a letter tuple, and the weight is added
    to the entry of every slice image[s:e] that starts in the first letter
    block (s < |sigma(u_1)|), ends in the last (e > |sigma(u)| - |sigma(u_n)|)
    and has lo <= e - s <= hi.  The entry of a letter tuple t is therefore
    the sum of essential_occurrences(sigma, u, t) * weight over the inputs.
    Letters are not checked against the domain.
    """
    images = [img.letters for img in sigma.images]
    sums: dict[tuple[int, ...], Fraction | int] = {}
    get = sums.get
    for letters, weight in inputs:
        image: tuple[int, ...] = ()
        for i in letters:
            image += images[i]
        end = len(image)
        last_start = end - len(images[letters[-1]])
        for s in range(len(images[letters[0]])):
            for e in range(max(last_start + 1, s + lo), min(end, s + hi) + 1):
                factor = image[s:e]
                sums[factor] = get(factor, 0) + weight
    return sums


def candidate_lengths(sigma: Morphism, target_len: int) -> tuple[int, int]:
    """Closed interval of |w| that can carry an essential occurrence of a
    target of the given length; only defined for target_len >= 2."""
    if target_len < 2:
        raise ValueError("the candidate-length bound applies to targets of length >= 2")
    max_len, min_len = norms(sigma)
    lo = -(-target_len // max_len)
    hi = (target_len - 2) // min_len + 2
    return lo, hi
