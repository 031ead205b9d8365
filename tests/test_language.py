"""Factor languages: closure validation, periodic orbits, image languages
with the depth restriction, and the complexity bound."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import shiftmeasure
from shiftmeasure import (
    Alphabet,
    DepthError,
    FactorLanguage,
    Morphism,
    PreconditionError,
    Word,
    apply,
    complexity,
    compose,
    factorial_closure,
    factors,
    full_shift_language,
    image_language,
    iter_words,
    norms,
    parse_language,
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
    with pytest.raises(ValueError, match="^maxlen must be >= 1$"):
        factorial_closure(AB, [AB.word("ab")], 0)
    with pytest.raises(ValueError, match="^word 'c' is not over \\[a b\\]$"):
        factorial_closure(AB, [AB.word("ab"), CD.word("c")], 2)


def test_periodic_orbit_language_frozen():
    assert names(periodic_orbit_language(AB.word("ab"), 3)) == {
        "a", "b", "a b", "b a", "a b a", "b a b",
    }
    # proper powers generate the orbit of their root
    assert periodic_orbit_language(AB.word("abab"), 3) == periodic_orbit_language(AB.word("ab"), 3)
    with pytest.raises(ValueError):
        periodic_orbit_language(AB.epsilon(), 3)
    with pytest.raises(ValueError, match="^maxlen must be >= 1$"):
        periodic_orbit_language(AB.word("ab"), 0)


def test_periodic_orbit_language_has_its_tables_budget():
    """The language is a characteristic table's support, refused past the same budget."""
    with pytest.raises(PreconditionError, match="^depth 1000000000 is over the table budget: "):
        periodic_orbit_language(AB.word("ab"), 10**9)


def test_full_shift_language_counts():
    language = full_shift_language(AB, 3)
    assert len(language) == 2 + 4 + 8
    assert complexity(language, 3) == 8
    with pytest.raises(ValueError, match="^maxlen must be >= 1$"):
        full_shift_language(AB, 0)


def test_full_shift_language_is_refused_past_the_table_budget(monkeypatch):
    """The words' letters, the sum of k * |A|^k, are counted against the budget
    read at call time, and counting stops at the first length past it."""
    monkeypatch.setattr("shiftmeasure.words.TABLE_BUDGET", 34)
    assert len(full_shift_language(AB, 3)) == 14  # 2 + 8 + 24 = 34 letters
    with pytest.raises(PreconditionError, match="^maxlen 4 is over the table budget: its words of length <= 4 "
                                         "hold 98 letters, more than 34$"):
        full_shift_language(AB, 4)


def test_full_shift_language_refuses_a_huge_maxlen_before_building_anything():
    with pytest.raises(PreconditionError, match="^maxlen 10{30} is over the table budget: its words of length "
                                         "<= 19 hold 18874370 letters, more than 10000000$"):
        full_shift_language(AB, 10**30)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_counts_past_the_int_digit_limit_are_refused_by_their_digits():
    """A maxlen or a length bound that str() cannot write is shown by its digit count."""
    with pytest.raises(PreconditionError, match="^maxlen <5001-digit number> is over the table budget: its words "
                                         "of length <= 4472 hold 10001628 letters, more than 10000000$"):
        full_shift_language(Alphabet(("a",)), 10**5000)
    with pytest.raises(PreconditionError, match="^length must be <= <5001-digit number>$"):
        complexity(FactorLanguage(AB, 10**5000, frozenset()), 10**5000 + 1)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_a_maxlen_past_the_int_digit_limit_is_shown_by_its_digits_in_a_length_refusal():
    with pytest.raises(PreconditionError, match="^word '' has length outside 1..<5001-digit number>$"):
        FactorLanguage(AB, 10**5000, {AB.epsilon()})


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
    with pytest.raises(ValueError, match="^maxlen must be >= 1$"):
        image_language(SIGMA4, language, 0)


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


# ---------------------------------------------------------------- trusted producers

def _closure_oracle(alphabet, words, n):
    """The closure as it was built from Words: every factor, then the public
    constructor's checks."""
    closed = set()
    for w in words:
        closed |= factors(w, n)
    return FactorLanguage(alphabet, n, frozenset(closed))


def _checked(language):
    """The language, after its Words pass the public constructor's checks."""
    assert FactorLanguage(language.alphabet, language.maxlen, language.words) == language
    return language


def test_trusted_producers_match_the_word_built_closure():
    """Each producer that skips the public constructor gives the language the
    Word-built closure gives, and its Words pass the constructor's checks."""
    rng = random.Random(35)
    abc = gen.alphabet(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        words = [gen.random_word(rng, abc, rng.randint(0, 9)) for _ in range(rng.randint(0, 6))]
        closure = _checked(factorial_closure(abc, words, n))
        assert closure == _closure_oracle(abc, words, n)
        text = f"!alphabet a b c\n!maxlen {n}\n" + "".join(f"{w}\n" for w in words if len(w))
        assert _checked(parse_language(text)) == closure

        w = gen.random_nonempty_word(rng, abc, 5)
        orbit = _checked(periodic_orbit_language(w, n))
        assert orbit == _closure_oracle(abc, [Word(abc, w.letters * (n + 1))], n)
        shift = _checked(full_shift_language(abc, n))
        assert shift == _closure_oracle(abc, iter_words(abc, n), n)

        second = periodic_orbit_language(w, rng.randint(1, 5))
        both = _checked(union(closure, second))
        m = both.maxlen
        assert both == _closure_oracle(abc, [u for u in closure.words | second.words if len(u) <= m], m)

        sigma = gen.random_morphism(rng, abc, CD)
        language = rng.choice([closure, orbit, shift])
        for out in range(1, 5):
            if required_input_depth(sigma, out) <= language.maxlen:
                image = _checked(image_language(sigma, language, out))
                assert image == _closure_oracle(CD, [apply(sigma, u) for u in language.words], out)


def test_trusted_producers_build_no_word_per_factor(monkeypatch):
    """The closure builds no Word, and parsing builds at most one per body
    line, whatever the factors of that line."""
    abc = gen.alphabet(3)
    rng = random.Random(36)
    words = [gen.random_word(rng, abc, rng.randint(1, 12)) for _ in range(200)]
    text = "!alphabet a b c\n!maxlen 6\n" + "".join(f"{w}\n" for w in words)
    built = []
    init = Word.__init__
    monkeypatch.setattr(Word, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    language = factorial_closure(abc, words, 6)
    assert built == []
    assert parse_language(text) == language
    assert len(built) <= len(words)
    monkeypatch.undo()
    assert language == _closure_oracle(abc, words, 6)


def test_constructor_errors_do_not_depend_on_the_hash_seed():
    """Each error names the first offending word in canonical order (length,
    then letters), whatever order the set iterates in."""
    src = str(Path(shiftmeasure.__file__).resolve().parents[1])
    script = (
        "from shiftmeasure import Alphabet, FactorLanguage\n"
        "abc, cd = Alphabet(('a', 'b', 'c')), Alphabet(('c', 'd'))\n"
        "for alphabet, maxlen, words in [\n"
        "        (abc, 2, ['a b', 'b c', 'c a', 'a', 'b']),\n"
        "        (abc, 1, ['a b', 'b c a', 'a', 'b']),\n"
        "        (cd, 1, ['d', 'c'])]:\n"
        "    try:\n"
        "        FactorLanguage(abc, maxlen, frozenset(alphabet.word(w.split()) for w in words))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    outputs = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {
        "language is not factor-closed at 'b c'\n"
        "word 'a b' has length outside 1..1\n"
        "word 'c' is not over [a b c]\n"
    }
