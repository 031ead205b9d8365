"""Non-erasing morphisms of free monoids.

A morphism is fixed by one non-empty image word per domain letter.  Besides
application and composition this module provides the incidence matrix, the
canonical decomposition into a subdivision morphism followed by a
letter-to-letter morphism, the essential-occurrence count, the list of one
target's essential preimages among a table's keys (_parses) and the
one-pass sweep that sums it over many input words and targets at once, and
the input-depth bound (per word, _window) that the transfer, the image
language and candidate_lengths share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Container, Iterable, Mapping, Sequence

from .words import Alphabet, PreconditionError, Word, _Record, _require_count, _require_keys, _require_over, _shown


class Morphism(_Record):
    """A non-erasing monoid morphism, given letterwise.

    images[i] is the image of domain letter i, always a non-empty word over
    the codomain.  _images holds their letter tuples for the hot paths, built
    on first use (also for a _trusted morphism); it is not a field.
    """

    __match_args__ = ("domain", "codomain", "images")

    def __init__(self, domain: Alphabet, codomain: Alphabet, images: tuple[Word, ...]) -> None:
        images = tuple(images)
        _require_over(codomain, Alphabet, None, "codomain")
        if len(images) != len(_require_over(domain, Alphabet, None, "domain")):
            raise PreconditionError("need exactly one image per domain letter")
        for token, image in zip(domain.symbols, images):
            _require_over(image, Word, codomain, f"image of {token!r}")
            if len(image) == 0:
                raise PreconditionError(f"erasing morphism: image of {token!r} is empty")
        self.__dict__.update(domain=domain, codomain=codomain, images=images)

    @cached_property
    def _images(self) -> tuple[tuple[int, ...], ...]:
        return tuple([image.letters for image in self.images])

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
        _require_keys(images, dom, "images", "images given for letters outside the domain")
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
    letters = _require_over(w, Word, _require_over(sigma, Morphism, None, "morphism").domain, "word").letters
    return Word._trusted(sigma.codomain, _image_letters(sigma._images, letters))


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
    _require_over(outer, Morphism, None, "outer morphism")
    if _require_over(inner, Morphism, None, "inner morphism").codomain != outer.domain:
        raise PreconditionError(
            "cannot compose: codomain of the inner morphism differs from the domain of the outer one")
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
        _require_over(col_alphabet, Alphabet, None, "column alphabet")
        if len(entries) != len(_require_over(row_alphabet, Alphabet, None, "row alphabet")):
            raise PreconditionError("need one row per codomain letter")
        for row in entries:
            if len(row) != len(col_alphabet):
                raise PreconditionError("need one column per domain letter")
            if any(entry < 0 for entry in row):
                raise PreconditionError("entries must be nonnegative")
        self.__dict__.update(row_alphabet=row_alphabet, col_alphabet=col_alphabet, entries=entries)

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.entries) for j in range(len(self.col_alphabet)))

    def __matmul__(self, other: "IncidenceMatrix") -> "IncidenceMatrix":
        if self.col_alphabet != other.row_alphabet:
            raise PreconditionError("matrix alphabets do not chain")
        columns = list(zip(*other.entries))
        rows = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in columns) for row in self.entries)
        return IncidenceMatrix(self.row_alphabet, other.col_alphabet, rows)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product; entries may be any exact numeric type."""
        if len(vector) != len(self.col_alphabet):
            raise PreconditionError("vector length must match the column count")
        return tuple(sum(row[j] * vector[j] for j in range(len(vector))) for row in self.entries)


def incidence_matrix(sigma: Morphism) -> IncidenceMatrix:
    """Count every codomain letter in every image."""
    _require_over(sigma, Morphism, None, "morphism")
    counts = tuple(tuple(img.count(b) for img in sigma._images) for b in range(len(sigma.codomain)))
    return IncidenceMatrix(sigma.codomain, sigma.domain, counts)


def norms(sigma: Morphism) -> tuple[int, int]:
    """(longest image length, shortest image length)."""
    lengths = [len(img) for img in _require_over(sigma, Morphism, None, "morphism")._images]
    return max(lengths), min(lengths)


class DepthError(PreconditionError):
    """An input table or language is too shallow for the requested output."""

    def __init__(self, required: int, actual: int):
        super().__init__(f"input depth {_shown(actual)} is insufficient: depth >= {_shown(required)} is required")
        self.required = required
        self.actual = actual


def required_input_depth(sigma: Morphism, out_len: int) -> int:
    """Smallest input depth that determines every transferred weight on
    words up to the given output length."""
    _require_count(out_len, "output length", 0)
    _require_over(sigma, Morphism, None, "morphism")
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
    _require_keys(lengths, _require_over(alphabet, Alphabet, None, "alphabet"), "subdivision lengths",
                  "subdivision lengths for letters outside the alphabet")
    for token in alphabet.symbols:
        _require_count(lengths[token], f"subdivision length of {token!r}")
    images = [[f"{token}.{k}" for k in range(1, lengths[token] + 1)] for token in alphabet.symbols]
    sub_alphabet = Alphabet(tuple(t for image in images for t in image))
    return Morphism(alphabet, sub_alphabet, tuple(sub_alphabet.word(image) for image in images))


class SubdivisionData(_Record):
    """Canonical decomposition sigma = alpha . pi.

    pi is the subdivision morphism sending letter a to a.1 ... a.k with
    k = |sigma(a)|; alpha is letter-to-letter and maps a.j to the j-th letter
    of sigma(a).
    """

    __match_args__ = ("subdivision_alphabet", "pi", "alpha")

    def __init__(self, subdivision_alphabet: Alphabet, pi: Morphism, alpha: Morphism) -> None:
        _require_over(subdivision_alphabet, Alphabet, None, "subdivision alphabet")
        if not (_require_over(pi, Morphism, None, "pi").codomain == subdivision_alphabet
                == _require_over(alpha, Morphism, None, "alpha").domain):
            raise PreconditionError("pi's codomain and alpha's domain must be the subdivision alphabet")
        self.__dict__.update(subdivision_alphabet=subdivision_alphabet, pi=pi, alpha=alpha)

    @property
    def lengths(self) -> dict[str, int]:
        return {t: len(img) for t, img in zip(self.pi.domain.symbols, self.pi.images)}


def canonical_decomposition(sigma: Morphism) -> SubdivisionData:
    """Split sigma into its subdivision part and its letter-to-letter part."""
    _require_over(sigma, Morphism, None, "morphism")
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
    _require_over(w, Word, _require_over(sigma, Morphism, None, "morphism").domain, "word")
    _require_over(target, Word, sigma.codomain, "target")
    if len(w) == 0 or len(target) == 0:
        raise PreconditionError("essential occurrences are undefined for empty words")
    images, letters, pattern = sigma._images, w.letters, target.letters
    image, m = _image_letters(images, letters), len(pattern)
    prefix_end = len(image) - len(images[letters[-1]])
    starts = range(max(0, prefix_end - m + 1), min(len(images[letters[0]]), len(image) - m + 1))
    return sum(1 for s in starts if image[s : s + m] == pattern)


def _parses(sigma: Morphism, pattern: tuple[int, ...], depth: int, keys: Container) -> list:
    """Each u in the prefix-closed keys with an essential occurrence of the non-empty pattern, once
    per occurrence; DepthError as in _window.  For |u| >= 2 the pattern is a non-empty suffix of
    sigma(u_1) shorter than it, sigma(u_2 ... u_{n-1}) and a non-empty prefix of sigma(u_n).  The
    depth-first search extends only words in keys, so it pops at most max |sigma(a)| nodes per key:
    one per cut in the first block."""
    _require_depth(sigma, len(pattern), depth)
    images, n = sigma._images, len(pattern)
    found = [(a,) for a, img in enumerate(images) if (a,) in keys
             for s in range(len(img) - n + 1) if img[s : s + n] == pattern]
    stack = [((a,), k) for a, img in enumerate(images) if (a,) in keys
             for k in range(1, min(len(img) + 1, n)) if img[-k:] == pattern[:k]]
    while stack:
        u, p = stack.pop()
        for b, img in enumerate(images):
            if (q := p + len(img)) < n:
                if pattern[p:q] == img and (v := u + (b,)) in keys:
                    stack.append((v, q))
            elif img[: n - p] == pattern[p:] and (v := u + (b,)) in keys:
                found.append(v)
    return found


def _window(sigma: Morphism, words: Iterable[tuple[int, ...]], max_len: int, depth: int) -> list:
    """The letter tuples u that can have an essential occurrence of length <= max_len, or
    DepthError when depth, the words' table depth or language maxlen, is below the bound
    required_input_depth(sigma, max_len).  For |u| >= 2 each covers sigma(u_2 ... u_{n-1})
    and a letter on each side; this implies the sumless test |u| <= that bound, run first."""
    lengths, deepest = [len(img) for img in sigma._images], _require_depth(sigma, max_len, depth)
    return [u for u in words if len(u) <= deepest
            and (len(u) < 3 or sum(map(lengths.__getitem__, u[1:-1])) <= max_len - 2)]


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
            stop = s + max_len if s + max_len < end else end
            for e in range((last_start if last_start > s else s) + 1, stop + 1):
                factor = image[s:e]
                sums[factor] = get(factor, 0) + weight
    return sums


def candidate_lengths(sigma: Morphism, target_len: int) -> tuple[int, int]:
    """Closed interval of |w| that can carry an essential occurrence of a
    target of the given length; only defined for target_len >= 2."""
    _require_over(sigma, Morphism, None, "morphism")
    if target_len < 2:
        raise PreconditionError("the candidate-length bound applies to targets of length >= 2")
    return -(-target_len // norms(sigma)[0]), required_input_depth(sigma, target_len)
