"""Non-erasing morphisms of free monoids.

A morphism is fixed by one non-empty image word per domain letter.  Besides
application and composition this module provides the incidence matrix, the
canonical decomposition into a subdivision morphism followed by a
letter-to-letter morphism, the essential-occurrence count that drives
cylinder evaluation of transferred measures with the one-pass sweep that sums
it over many input words and targets at once, and the input-depth bound (per
word, _window) that the transfer, the image language and candidate_lengths share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .words import Alphabet, Word, _Record


class Morphism(_Record):
    """A non-erasing monoid morphism, given letterwise.

    images[i] is the image of domain letter i, always a non-empty word over
    the codomain.  _images holds their letter tuples for the hot paths; it is
    not a field.
    """

    __match_args__ = ("domain", "codomain", "images")

    def __init__(self, domain: Alphabet, codomain: Alphabet, images: tuple[Word, ...]) -> None:
        images = tuple(images)
        if len(images) != len(domain):
            raise ValueError("need exactly one image per domain letter")
        for token, image in zip(domain.symbols, images):
            if image.alphabet != codomain:
                raise ValueError(f"image of {token!r} is not a word over the codomain")
            if len(image) == 0:
                raise ValueError(f"erasing morphism: image of {token!r} is empty")
        self.__dict__.update(domain=domain, codomain=codomain, images=images,
                             _images=tuple([image.letters for image in images]))

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
        return all(len(image) == 1 for image in self._images)

    def __call__(self, w: Word) -> Word:
        return apply(self, w)


def apply(sigma: Morphism, w: Word) -> Word:
    """The image word sigma(x_1)...sigma(x_n); the empty word maps to itself."""
    if w.alphabet != sigma.domain:
        raise ValueError("word is not over the domain of the morphism")
    return Word(sigma.codomain, _image_letters(sigma._images, w.letters))


def _image_letters(images: Sequence[tuple[int, ...]], letters: Iterable[int]) -> tuple[int, ...]:
    """The letters of sigma(letters), where images[i] holds those of sigma(i).

    tuple() of a list allocates at the final size, as concatenation would in
    quadratic time; tuple() over an iterator resizes, and the resized tuples
    pile up in CPython's per-size free lists (about 2 MiB in a long run)."""
    out: list[int] = []
    for i in letters:
        out.extend(images[i])
    return tuple(out)


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The morphism w -> outer(inner(w)); requires codomain(inner) = domain(outer)."""
    if inner.codomain != outer.domain:
        raise ValueError(
            "cannot compose: codomain of the inner morphism differs from the domain of the outer one"
        )
    return Morphism(inner.domain, outer.codomain, tuple(apply(outer, img) for img in inner.images))


class IncidenceMatrix(_Record):
    """Letter-count matrix: entry (b, a) is the number of b's in sigma(a).

    Rows follow the codomain, columns the domain, both in declaration order.
    Matrices multiply the way the morphisms they come from compose.
    """

    __match_args__ = ("row_alphabet", "col_alphabet", "entries")

    def __init__(self, row_alphabet: Alphabet, col_alphabet: Alphabet,
                 entries: tuple[tuple[int, ...], ...]) -> None:
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != len(row_alphabet):
            raise ValueError("need one row per codomain letter")
        for row in entries:
            if len(row) != len(col_alphabet):
                raise ValueError("need one column per domain letter")
            if any(entry < 0 for entry in row):
                raise ValueError("entries must be nonnegative")
        self.__dict__.update(row_alphabet=row_alphabet, col_alphabet=col_alphabet, entries=entries)

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
    counts = tuple(tuple(img.count(b) for img in sigma._images) for b in range(len(sigma.codomain)))
    return IncidenceMatrix(sigma.codomain, sigma.domain, counts)


def norms(sigma: Morphism) -> tuple[int, int]:
    """(longest image length, shortest image length)."""
    lengths = [len(img) for img in sigma._images]
    return max(lengths), min(lengths)


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
    return 1 if out_len <= 1 else (out_len - 2) // norms(sigma)[1] + 2


def _require_depth(sigma: Morphism, out_len: int, depth: int) -> int:
    """required_input_depth(sigma, out_len), or DepthError when depth is below it."""
    required = required_input_depth(sigma, out_len)
    if depth < required:
        raise DepthError(required, depth)
    return required


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


class SubdivisionData(_Record):
    """Canonical decomposition sigma = alpha . pi.

    pi is the subdivision morphism sending letter a to a.1 ... a.k with
    k = |sigma(a)|; alpha is letter-to-letter and maps a.j to the j-th letter
    of sigma(a).
    """

    __match_args__ = ("subdivision_alphabet", "pi", "alpha")

    def __init__(self, subdivision_alphabet: Alphabet, pi: Morphism, alpha: Morphism) -> None:
        self.__dict__.update(subdivision_alphabet=subdivision_alphabet, pi=pi, alpha=alpha)

    @property
    def lengths(self) -> dict[str, int]:
        return {t: len(img) for t, img in zip(self.pi.domain.symbols, self.pi.images)}


def canonical_decomposition(sigma: Morphism) -> SubdivisionData:
    """Split sigma into its subdivision part and its letter-to-letter part."""
    lengths = {t: len(img) for t, img in zip(sigma.domain.symbols, sigma._images)}
    pi = subdivision_morphism(sigma.domain, lengths)
    alpha_images = tuple(Word(sigma.codomain, (b,)) for img in sigma._images for b in img)
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
    return _essential_count(sigma._images, w.letters, target.letters)


def _essential_count(images: Sequence[tuple[int, ...]], letters: tuple[int, ...],
                     pattern: tuple[int, ...]) -> int:
    """essential_occurrences on letter tuples, unchecked."""
    image = _image_letters(images, letters)
    m = len(pattern)
    prefix_end = len(image) - len(images[letters[-1]])
    count = 0
    for s in range(max(0, prefix_end - m + 1), min(len(images[letters[0]]), len(image) - m + 1)):
        if image[s : s + m] == pattern:
            count += 1
    return count


def _window(sigma: Morphism, words: Iterable[tuple[int, ...]], max_len: int) -> list:
    """The letter tuples u that can have an essential occurrence of length <= max_len.  For
    |u| >= 2 each covers sigma(u_2 ... u_{n-1}) and a letter on each side; this implies the
    sumless test |u| <= required_input_depth(sigma, max_len), so that one runs first."""
    lengths, deepest = [len(img) for img in sigma._images], required_input_depth(sigma, max_len)
    return [u for u in words if len(u) <= deepest
            and (len(u) < 3 or sum([lengths[x] for x in u[1:-1]]) <= max_len - 2)]


def _essential_sweep(
    sigma: Morphism,
    inputs: Iterable[tuple[tuple[int, ...], Fraction | int]],
    max_len: int,
) -> dict[tuple[int, ...], Fraction | int]:
    """Weighted essential occurrences of length at most max_len, summed per factor.

    inputs are (letters of a non-empty domain word u, weight) pairs.  Each
    image sigma(u) is built once as a letter tuple, and the weight is added
    to the entry of every slice image[s:e] that starts in the first letter
    block (s < |sigma(u_1)|), ends in the last (e > |sigma(u)| - |sigma(u_n)|)
    and has e - s <= max_len.  The entry of a letter tuple t is therefore
    the sum of essential_occurrences(sigma, u, t) * weight over the inputs.
    Letters are not checked against the domain.
    """
    images = sigma._images
    sums: dict[tuple[int, ...], Fraction | int] = {}
    get = sums.get
    for letters, weight in inputs:
        image = _image_letters(images, letters)
        end = len(image)
        last_start = end - len(images[letters[-1]])
        for s in range(len(images[letters[0]])):
            for e in range(max(last_start, s) + 1, min(end, s + max_len) + 1):
                factor = image[s:e]
                sums[factor] = get(factor, 0) + weight
    return sums


def candidate_lengths(sigma: Morphism, target_len: int) -> tuple[int, int]:
    """Closed interval of |w| that can carry an essential occurrence of a
    target of the given length; only defined for target_len >= 2."""
    if target_len < 2:
        raise ValueError("the candidate-length bound applies to targets of length >= 2")
    return -(-target_len // norms(sigma)[0]), required_input_depth(sigma, target_len)
