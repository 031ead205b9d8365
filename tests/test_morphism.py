"""Morphisms: application, composition, incidence, decomposition, and the
essential-occurrence machinery with its candidate-length bound."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import gen
from shiftmeasure import (
    Alphabet,
    DepthError,
    IncidenceMatrix,
    Morphism,
    PreconditionError,
    Word,
    apply,
    candidate_lengths,
    canonical_decomposition,
    characteristic_measure,
    compose,
    count_occurrences,
    essential_occurrences,
    incidence_matrix,
    iter_words,
    norms,
    required_input_depth,
    subdivision_measure,
    subdivision_morphism,
    words,
)
from shiftmeasure.morphism import _essential_sweep, _parses, _window

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
CD = Alphabet(("c", "d"))
DE = Alphabet(("d", "e"))

SIGMA4 = Morphism.from_images(AB, CD, {"a": "cdc", "b": "dcc"})
THUE_MORSE = Morphism.from_images(AB, CD, {"a": "cd", "b": "dc"})
# a -> ded, b -> de, c -> dedd
SIGMA_DDED = Morphism.from_images(ABC, DE, {"a": "ded", "b": "de", "c": "dedd"})


def words_up_to(alph, n):
    for k in range(1, n + 1):
        yield from iter_words(alph, k)


# ---------------------------------------------------------------- construction

def test_construction_rejects_bad_morphisms():
    with pytest.raises(ValueError):
        Morphism(AB, CD, (CD.word("c"),))  # missing image
    with pytest.raises(ValueError):
        Morphism(AB, CD, (CD.word("c"), CD.epsilon()))  # erasing
    with pytest.raises(ValueError):
        Morphism(AB, CD, (CD.word("c"), AB.word("a")))  # wrong alphabet
    with pytest.raises(ValueError):
        Morphism.from_images(AB, CD, {"a": "c"})
    with pytest.raises(ValueError):
        Morphism.from_images(AB, CD, {"a": "c", "b": "d", "x": "c"})


def test_letter_to_letter_flag():
    assert Morphism.identity(AB).is_letter_to_letter
    assert not SIGMA4.is_letter_to_letter


def test_a_trusted_morphism_works_like_a_constructed_one():
    """_trusted sets only the fields; the image letters the hot paths read
    must still be there, and give what the public constructor's give."""
    rng = random.Random(17)
    for _ in range(50):
        sigma = gen.random_morphism(rng, AB, CD)
        trusted = Morphism._trusted(sigma.domain, sigma.codomain, sigma.images)
        assert trusted == sigma and trusted._images == sigma._images
        inputs = [(u.letters, Fraction(1, len(u))) for u in words_up_to(AB, 4)]
        for w in words_up_to(AB, 4):
            assert apply(trusted, w) == apply(sigma, w)
        for max_len in (1, 3, 5):
            assert _essential_sweep(trusted, inputs, max_len) == _essential_sweep(sigma, inputs, max_len)


# ---------------------------------------------------------------- apply/compose

def test_apply_frozen():
    assert str(apply(SIGMA4, AB.word("ab"))) == "c d c d c c"
    assert apply(SIGMA4, AB.epsilon()) == CD.epsilon()
    assert str(SIGMA4(AB.word("a"))) == "c d c"
    with pytest.raises(ValueError):
        apply(SIGMA4, CD.word("c"))


def test_compose_requires_chained_alphabets():
    with pytest.raises(ValueError):
        compose(SIGMA4, SIGMA4)


def test_compose_agrees_with_sequential_application():
    rng = random.Random(11)
    tau = Morphism.from_images(CD, ABC, {"c": "ab", "d": "cca"})
    composite = compose(tau, SIGMA4)
    assert composite.domain == AB and composite.codomain == ABC
    for w in words_up_to(AB, 5):
        assert apply(composite, w) == apply(tau, apply(SIGMA4, w))
    for _ in range(30):
        f = gen.random_morphism(rng, ABC, AB)
        g = gen.random_morphism(rng, AB, ABC)
        w = gen.random_word(rng, AB, rng.randint(0, 5))
        assert apply(compose(f, g), w) == apply(f, apply(g, w))


# ---------------------------------------------------------------- incidence

def test_incidence_frozen():
    m = incidence_matrix(SIGMA4)
    assert m.entries == ((2, 2), (1, 1))
    assert m.row_alphabet == CD and m.col_alphabet == AB
    assert incidence_matrix(THUE_MORSE).entries == ((1, 1), (1, 1))


def test_incidence_column_sums_are_image_lengths():
    rng = random.Random(5)
    for _ in range(30):
        sigma = gen.random_morphism(rng, ABC, AB, max_image_len=4)
        sums = incidence_matrix(sigma).column_sums()
        assert sums == tuple(len(img) for img in sigma.images)


def _matmul_oracle(a_rows, b_rows):
    return tuple(
        tuple(sum(a_rows[i][k] * b_rows[k][j] for k in range(len(b_rows))) for j in range(len(b_rows[0])))
        for i in range(len(a_rows))
    )


def test_incidence_of_composition_is_the_matrix_product():
    rng = random.Random(6)
    for _ in range(40):
        inner = gen.random_morphism(rng, AB, ABC)
        outer = gen.random_morphism(rng, ABC, CD)
        product = incidence_matrix(outer) @ incidence_matrix(inner)
        assert incidence_matrix(compose(outer, inner)).entries == product.entries
        assert product.entries == _matmul_oracle(
            incidence_matrix(outer).entries, incidence_matrix(inner).entries
        )


def test_matrix_vector_product_and_errors():
    m = incidence_matrix(SIGMA4)
    assert m.apply((1, 1)) == (4, 2)
    with pytest.raises(ValueError):
        m.apply((1, 1, 1))
    with pytest.raises(ValueError):
        incidence_matrix(SIGMA4) @ incidence_matrix(THUE_MORSE) @ incidence_matrix(SIGMA4)
    for entries, message in [(((1, 1),), "need one row per codomain letter"),
                             (((1, 1), (1,)), "need one column per domain letter"),
                             (((1, 1), (0, -1)), "entries must be nonnegative")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            IncidenceMatrix(CD, AB, entries)


def test_norms_frozen():
    assert norms(SIGMA4) == (3, 3)
    assert norms(SIGMA_DDED) == (4, 2)


# ---------------------------------------------------------------- decomposition

def test_subdivision_morphism_frozen():
    pi = subdivision_morphism(AB, {"a": 3, "b": 2})
    assert pi.codomain.symbols == ("a.1", "a.2", "a.3", "b.1", "b.2")
    assert str(apply(pi, AB.word("ba"))) == "b.1 b.2 a.1 a.2 a.3"
    with pytest.raises(ValueError):
        subdivision_morphism(AB, {"a": 0, "b": 2})
    with pytest.raises(ValueError):
        subdivision_morphism(AB, {"a": 1})
    with pytest.raises(ValueError):
        subdivision_morphism(AB, {"a": 1, "b": 1, "c": 1})


@gen.deadline(5)
def test_subdivision_lengths_have_the_token_budget(monkeypatch):
    """A length sum over words.TOKEN_BUDGET, read at call time, is refused before any token is built,
    also through subdivision_measure and canonical_decomposition."""
    table = characteristic_measure(AB.word("ab"), 2)
    monkeypatch.setattr(words, "TOKEN_BUDGET", 5)
    assert len(subdivision_morphism(AB, {"a": 3, "b": 2}).codomain) == 5
    assert subdivision_measure({"a": 3, "b": 2}, table, 2).total_mass == 5
    for call in (lambda: subdivision_morphism(AB, {"a": 3, "b": 3}),
                 lambda: subdivision_measure({"a": 3, "b": 3}, table, 2),
                 lambda: canonical_decomposition(Morphism.from_images(AB, AB, {"a": "aaa", "b": "bbb"}))):
        with pytest.raises(PreconditionError) as refused:
            call()
        assert str(refused.value) == (
            "subdivision length sum 6 is over the token budget: the images hold 6 letters, more than 5")


@gen.deadline(5)
def test_a_subdivision_at_the_token_budget_builds():
    """A length sum of words.TOKEN_BUDGET builds its tokens, each a str with an index entry (about
    70 MB in all, as TABLE_BUDGET's letters in tuples); one more is refused."""
    assert words.TOKEN_BUDGET == 5 * 10**5
    assert len(subdivision_morphism(AB, {"a": words.TOKEN_BUDGET - 1, "b": 1}).codomain) == words.TOKEN_BUDGET
    with pytest.raises(PreconditionError) as refused:
        subdivision_morphism(AB, {"a": words.TOKEN_BUDGET, "b": 1})
    assert str(refused.value) == (
        "subdivision length sum 500001 is over the token budget: the images hold 500001 letters, more than 500000")


def test_subdivision_images_are_disjoint():
    rng = random.Random(7)
    for _ in range(20):
        lengths = {t: rng.randint(1, 4) for t in ABC.symbols}
        pi = subdivision_morphism(ABC, lengths)
        seen = set()
        for img in pi.images:
            letters = set(img.letters)
            assert len(letters) == len(img)
            assert not letters & seen
            seen |= letters
        assert seen == set(range(len(pi.codomain)))


def test_canonical_decomposition_round_trip_exhaustive():
    cases = [SIGMA4, THUE_MORSE, SIGMA_DDED, Morphism.identity(ABC)]
    rng = random.Random(8)
    cases += [gen.random_morphism(rng, ABC, AB, max_image_len=3) for _ in range(10)]
    for sigma in cases:
        d = canonical_decomposition(sigma)
        assert d.alpha.is_letter_to_letter
        assert compose(d.alpha, d.pi) == sigma
        for w in words_up_to(sigma.domain, 6):
            assert apply(d.alpha, apply(d.pi, w)) == apply(sigma, w)


def test_canonical_decomposition_tokens():
    d = canonical_decomposition(SIGMA4)
    assert d.subdivision_alphabet.symbols == ("a.1", "a.2", "a.3", "b.1", "b.2", "b.3")
    assert d.lengths == {"a": 3, "b": 3}
    # alpha maps a.2 to the second letter of the image of a
    assert str(apply(d.alpha, d.subdivision_alphabet.word(["a.2"]))) == "d"


# ---------------------------------------------------------------- essential occurrences

def test_essential_occurrences_single_letter_is_plain_count():
    for sigma in (SIGMA4, SIGMA_DDED):
        for a in range(len(sigma.domain)):
            w = Word(sigma.domain, (a,))
            image = apply(sigma, w)
            for target in words_up_to(sigma.codomain, 3):
                assert essential_occurrences(sigma, w, target) == (
                    count_occurrences(image, target) if len(target) <= len(image) else 0
                )


def test_essential_occurrences_dded_frozen():
    """The worked three-letter example: which inputs carry dded essentially."""
    target = DE.word("dded")
    ones = ["aa", "ac", "ca", "cc", "aba", "abb", "abc", "cba", "cbb", "cbc"]
    zeros = ["a", "b", "c", "ab", "ba", "bb", "bc", "cb", "bba", "bbb", "bbc"]
    for text in ones:
        assert essential_occurrences(SIGMA_DDED, ABC.word(text), target) == 1, text
    for text in zeros:
        assert essential_occurrences(SIGMA_DDED, ABC.word(text), target) == 0, text
    # any length-3 word whose middle letter is not b carries nothing
    for w in iter_words(ABC, 3):
        if w.tokens[1] != "b":
            assert essential_occurrences(SIGMA_DDED, w, target) == 0


def test_essential_occurrences_errors():
    with pytest.raises(ValueError):
        essential_occurrences(SIGMA4, AB.epsilon(), CD.word("c"))
    with pytest.raises(ValueError):
        essential_occurrences(SIGMA4, AB.word("a"), CD.epsilon())
    with pytest.raises(ValueError):
        essential_occurrences(SIGMA4, CD.word("c"), CD.word("c"))
    with pytest.raises(ValueError, match="^target 'a' is not over \\[c d\\]$"):
        essential_occurrences(SIGMA4, AB.word("a"), AB.word("a"))


def _essential_oracle(sigma, w, target):
    """Independent positional reading, split by the length of w.

    |w| = 1: every occurrence.  |w| = 2: the occurrence must straddle the
    boundary between the two image blocks.  |w| >= 3: the occurrence must
    contain the image of the inner factor strictly inside, neither as a
    prefix nor as a suffix.
    """
    image = apply(sigma, w)
    blocks = [len(sigma.images[i]) for i in w.letters]
    n = len(w)
    m = len(target)
    count = 0
    for s in range(len(image) - m + 1):
        if image.letters[s : s + m] != target.letters:
            continue
        end = s + m
        if n == 1:
            count += 1
        elif n == 2:
            if s < blocks[0] < end:
                count += 1
        else:
            inner_start = blocks[0]
            inner_end = sum(blocks[:-1])
            if s < inner_start and end > inner_end:
                count += 1
    return count


def test_essential_occurrences_cross_check_exhaustive():
    """Block-boundary rule vs the per-length phrasings, exhaustively on all
    small morphisms and all inputs of length up to 3."""
    image_pool = [list(t) for k in (1, 2, 3) for t in itertools.product("cd", repeat=k)]
    domain_words = list(words_up_to(AB, 3))
    for img_a in image_pool:
        for img_b in image_pool:
            sigma = Morphism.from_images(AB, CD, {"a": img_a, "b": img_b})
            for w in domain_words:
                image = apply(sigma, w)
                for target in factors_of(image):
                    assert essential_occurrences(sigma, w, target) == _essential_oracle(
                        sigma, w, target
                    )


def factors_of(image):
    from shiftmeasure import factors

    return sorted(factors(image, len(image)), key=Word.sort_key)


def test_window_keeps_exactly_the_words_with_a_short_essential_occurrence():
    """u is in the window of L iff sigma(u) has an essential occurrence of
    length <= L, every kept word is within the input-depth bound, and a depth
    below that bound is a DepthError; all morphisms a, b -> images of length
    1-3 over c, d, all inputs up to length 6."""
    image_pool = [t for k in (1, 2, 3) for t in itertools.product("cd", repeat=k)]
    inputs = [w.letters for w in words_up_to(AB, 6)]
    for img_a, img_b in itertools.product(image_pool, repeat=2):
        sigma = Morphism.from_images(AB, CD, {"a": img_a, "b": img_b})
        for max_len in range(1, 6):
            kept = set(_window(sigma, inputs, max_len, 6))
            for u in inputs:
                assert (u in kept) == bool(_essential_sweep(sigma, [(u, 1)], max_len)), (sigma, u)
            assert max(map(len, kept)) <= required_input_depth(sigma, max_len)
            with pytest.raises(DepthError):  # the window owns the depth check
                _window(sigma, inputs, max_len, required_input_depth(sigma, max_len) - 1)


class _CountedImages(tuple):
    """Image letter tuples that count how often they are iterated: _parses
    walks them once per popped node, and a fixed number of times besides."""

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _parses_and_pops(sigma, t, depth, keys):
    """_parses(sigma, t, depth, keys) and the number of nodes its search popped."""
    images = _CountedImages(sigma._images)
    counted = Morphism._trusted(sigma.domain, sigma.codomain, sigma.images, _images=images)
    images.walks = 0
    _parses(counted, t, depth, set())  # no key: nothing is pushed
    fixed, images.walks = images.walks, 0
    parses = _parses(counted, t, depth, keys)
    return parses, images.walks - fixed


def test_parses_list_each_word_once_per_essential_occurrence():
    """_parses(sigma, t, depth, keys) holds each domain word u in keys exactly
    essential_occurrences(sigma, u, t) times, for the collapse a -> c, b -> c,
    the non-code a -> c, b -> c c and random morphisms.  With every word up to
    the input-depth bound as keys this is every u, up to one past the bound;
    with the prefixes of a random key set it is those u alone.  It owns the
    depth check, as _window does.  Its search extends only keys, so it pops
    at most one node per key and cut in the first block, len(keys) times the
    longest image, and no budget is needed; the collapse pops one per word u
    of length 1 to |t| - 1 when every word is a key, 2^|t| - 2 in all."""
    rng = random.Random(25)
    collapse = Morphism.from_images(AB, ("c",), {"a": "c", "b": "c"})
    morphisms = [collapse, Morphism.from_images(AB, ("c",), {"a": "c", "b": "cc"})]
    for _ in range(30):
        domain, codomain = gen.alphabet(rng.randint(1, 3)), gen.alphabet(rng.randint(1, 2), 2)
        morphisms.append(gen.random_morphism(rng, domain, codomain))
    searched = pruned = 0
    for sigma in morphisms:
        longest = norms(sigma)[0]
        for target in words_up_to(sigma.codomain, 5):
            t, required = target.letters, required_input_depth(sigma, len(target))
            every = {u.letters for u in words_up_to(sigma.domain, required)}
            parses, pops = _parses_and_pops(sigma, t, required, every)
            counts = Counter(parses)
            for u in words_up_to(sigma.domain, required + 1):
                assert counts[u.letters] == essential_occurrences(sigma, u, target), (sigma, u, target)
            assert pops <= len(every) * longest
            assert sigma is not collapse or pops == 2 ** len(t) - 2
            with pytest.raises(DepthError):
                _parses(sigma, t, required - 1, every)
            chosen = rng.sample(sorted(every), rng.randint(0, len(every)))
            keys = {u[:k] for u in chosen for k in range(1, len(u) + 1)}
            parses, pruned_pops = _parses_and_pops(sigma, t, required, keys)
            assert Counter(parses) == Counter({u: c for u, c in counts.items() if u in keys})
            assert pruned_pops <= len(keys) * longest
            searched += pops > 0
            pruned += pruned_pops < pops
    assert searched >= 500 and pruned >= 150, (searched, pruned)


# ---------------------------------------------------------------- candidate lengths

def test_candidate_lengths_frozen():
    assert candidate_lengths(SIGMA_DDED, 4) == (1, 3)
    assert candidate_lengths(SIGMA4, 2) == (1, 2)
    assert candidate_lengths(THUE_MORSE, 5) == (3, 3)
    with pytest.raises(ValueError):
        candidate_lengths(SIGMA4, 1)


def test_candidate_lengths_complete():
    """No word outside the interval carries an essential occurrence."""
    rng = random.Random(9)
    for _ in range(25):
        sigma = gen.random_morphism(rng, AB, CD, max_image_len=3)
        for target in words_up_to(CD, 4):
            if len(target) < 2:
                continue
            lo, hi = candidate_lengths(sigma, len(target))
            for w in words_up_to(AB, hi + 2):
                if essential_occurrences(sigma, w, target) > 0:
                    assert lo <= len(w) <= hi
