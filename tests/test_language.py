"""Factor languages: closure validation, periodic orbits, image languages
with the depth restriction, and the complexity bound."""

import random

import pytest

import gen
from shiftmeasure import (
    Alphabet,
    DepthError,
    FactorLanguage,
    Morphism,
    apply,
    complexity,
    compose,
    factorial_closure,
    factors,
    full_shift_language,
    image_language,
    norms,
    periodic_orbit_language,
    required_input_depth,
    union,
)

AB = Alphabet(("a", "b"))
CD = Alphabet(("c", "d"))

SIGMA4 = Morphism.from_images(AB, CD, {"a": "cdc", "b": "dcc"})
# a -> (cd)^2, b -> (cd)^3
SIGMA_CDCD = Morphism.from_images(AB, CD, {"a": "cdcd", "b": "cdcdcd"})


def names(language):
    return {str(w) for w in language.words}


# ---------------------------------------------------------------- construction

def test_closure_is_validated():
    with pytest.raises(ValueError):
        FactorLanguage(AB, 2, frozenset({AB.word("ab")}))
    # Only the prefix, or only the suffix, of a b is missing.
    for kept in ("a", "b"):
        with pytest.raises(ValueError, match="not factor-closed at 'a b'"):
            FactorLanguage(AB, 2, frozenset({AB.word("ab"), AB.word(kept)}))
    ok = FactorLanguage(AB, 2, frozenset({AB.word("ab"), AB.word("a"), AB.word("b")}))
    assert AB.word("ab") in ok and AB.word("ba") not in ok


def test_construction_rejects_bad_words():
    with pytest.raises(ValueError):
        FactorLanguage(AB, 0, frozenset())
    with pytest.raises(ValueError):
        FactorLanguage(AB, 1, frozenset({AB.epsilon()}))
    with pytest.raises(ValueError):
        FactorLanguage(AB, 1, frozenset({CD.word("c")}))


def test_factorial_closure_frozen():
    language = factorial_closure(AB, [AB.word("aab")], 2)
    assert names(language) == {"a", "b", "a a", "a b"}
    assert factorial_closure(AB, [], 3).words == frozenset()
    # words longer than the cap contribute their factors
    assert names(factorial_closure(AB, [AB.word("abab")], 1)) == {"a", "b"}


def test_periodic_orbit_language_frozen():
    assert names(periodic_orbit_language(AB.word("ab"), 3)) == {
        "a", "b", "a b", "b a", "a b a", "b a b",
    }
    # proper powers generate the orbit of their root
    assert periodic_orbit_language(AB.word("abab"), 3) == periodic_orbit_language(AB.word("ab"), 3)
    with pytest.raises(ValueError):
        periodic_orbit_language(AB.epsilon(), 3)


def test_full_shift_language_counts():
    language = full_shift_language(AB, 3)
    assert len(language) == 2 + 4 + 8
    assert complexity(language, 3) == 8


def test_union_truncates_to_common_cap():
    u = union(periodic_orbit_language(AB.word("a"), 3), periodic_orbit_language(AB.word("b"), 2))
    assert u.maxlen == 2
    assert names(u) == {"a", "b", "a a", "b b"}
    with pytest.raises(ValueError):
        union(full_shift_language(AB, 2), full_shift_language(CD, 2))


def test_complexity_range_errors():
    language = full_shift_language(AB, 3)
    with pytest.raises(ValueError):
        complexity(language, 0)
    with pytest.raises(ValueError):
        complexity(language, 4)


# ---------------------------------------------------------------- image language

def test_image_language_frozen_two_orbit_example():
    """Images of the two fixed orbits under a -> (cd)^2, b -> (cd)^3 share
    one orbit; at cap 3 exactly six words survive."""
    language = union(periodic_orbit_language(AB.word("a"), 2), periodic_orbit_language(AB.word("b"), 2))
    image = image_language(SIGMA_CDCD, language, 3)
    assert names(image) == {"c", "d", "c d", "d c", "c d c", "d c d"}


def test_image_language_frozen_full_shift():
    image = image_language(SIGMA4, full_shift_language(AB, 2), 2)
    assert names(image) == {"c", "d", "c c", "c d", "d c"}  # dd never occurs


def test_image_language_requires_enough_input_depth():
    language = full_shift_language(AB, 1)
    with pytest.raises(DepthError) as err:
        image_language(SIGMA4, language, 4)
    assert err.value.required == required_input_depth(SIGMA4, 4)
    with pytest.raises(ValueError):
        image_language(SIGMA4, full_shift_language(CD, 2), 2)


def test_image_language_ignores_inputs_beyond_required_depth():
    """Restricting to the required input depth is lossless."""
    rng = random.Random(31)
    for _ in range(25):
        sigma = gen.random_morphism(rng, AB, CD, max_image_len=3)
        n = rng.randint(1, 4)
        required = required_input_depth(sigma, n)
        language = full_shift_language(AB, required + 2)
        via_all = set()
        for u in language.words:
            via_all |= factors(apply(sigma, u), n)
        assert image_language(sigma, language, n).words == frozenset(via_all)


def test_image_language_is_monotone():
    rng = random.Random(32)
    for _ in range(20):
        sigma = gen.random_morphism(rng, AB, CD)
        small = periodic_orbit_language(gen.random_nonempty_word(rng, AB, 3), 4)
        big = full_shift_language(AB, 4)
        n = rng.randint(1, 3)
        assert image_language(sigma, small, n).words <= image_language(sigma, big, n).words


def test_image_language_composes():
    rng = random.Random(33)
    abc = gen.alphabet(3)
    for _ in range(20):
        inner = gen.random_morphism(rng, AB, abc)
        outer = gen.random_morphism(rng, abc, CD)
        n = rng.randint(1, 3)
        mid_depth = required_input_depth(outer, n)
        language = full_shift_language(AB, required_input_depth(inner, mid_depth))
        direct = image_language(compose(outer, inner), language, n)
        staged = image_language(outer, image_language(inner, language, mid_depth), n)
        assert direct == staged


def test_image_language_complexity_bound():
    rng = random.Random(34)
    for _ in range(40):
        sigma = gen.random_morphism(rng, AB, CD, max_image_len=3)
        n = rng.randint(2, 4)
        cap = max(required_input_depth(sigma, n), n)
        language = periodic_orbit_language(gen.random_nonempty_word(rng, AB, 4), cap)
        image = image_language(sigma, language, n)
        max_len, _ = norms(sigma)
        for k in range(1, n + 1):
            assert complexity(image, k) <= max_len * complexity(language, k)
