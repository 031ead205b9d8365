"""Text formats: golden renderings, parse/render round trips, and the line
numbers reported for each class of malformed input."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from shiftmeasure import (
    Alphabet,
    MeasureTable,
    Morphism,
    ParseError,
    characteristic_measure,
    full_shift_language,
    parse_language,
    parse_measure,
    parse_morphism,
    parse_word,
    periodic_orbit_language,
    render_language,
    render_measure,
    render_morphism,
)

AB = Alphabet(("a", "b"))
CD = Alphabet(("c", "d"))
SIGMA4 = Morphism.from_images(AB, CD, {"a": "cdc", "b": "dcc"})


# ---------------------------------------------------------------- morphisms

def test_morphism_golden_render():
    assert render_morphism(SIGMA4) == "!domain a b\n!codomain c d\na -> c d c\nb -> d c c\n"


def test_morphism_round_trip():
    rng = random.Random(70)
    for _ in range(25):
        sigma = gen.random_morphism(
            rng, gen.alphabet(rng.randint(1, 3)), gen.alphabet(rng.randint(1, 3), start=3)
        )
        assert parse_morphism(render_morphism(sigma)) == sigma


def test_morphism_parse_without_headers_uses_appearance_order():
    sigma = parse_morphism("b -> d c\na -> c\n")
    assert sigma.domain.symbols == ("b", "a")
    assert sigma.codomain.symbols == ("d", "c")


def test_morphism_parse_headers_fix_alphabet_order():
    text = "!domain a b\n!codomain c d e\n# comment\nb -> d\na -> c\n"
    sigma = parse_morphism(text)
    assert sigma.domain.symbols == ("a", "b")
    assert sigma.codomain.symbols == ("c", "d", "e")
    assert str(sigma.images[0]) == "c"


def test_morphism_parse_errors_carry_line_numbers():
    cases = [
        ("a -> c\nnot a rule\n", 2),
        ("a ->\n", 1),
        ("a -> c\na -> d\n", 2),
        ("!domain a b\na -> c\n", 1),
        ("!domain a\n!domain a\na -> c\n", 2),
        ("!unknown x\na -> c\n", 1),
        ("!codomain c\na -> c d\n", 2),
        ("# nothing\n", 1),
        ("!domain a\nb -> c\n", 2),
        ("a -> b -> c\n", 1),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_morphism(text)
        assert err.value.line == line, text
        assert str(err.value).startswith(f"line {line}:")


# ---------------------------------------------------------------- measures

def test_measure_golden_render():
    m = characteristic_measure(AB.word("ab"), 2)
    assert render_measure(m) == (
        "!alphabet a b\n!depth 2\n!mass 2\n"
        "a\t1\nb\t1\na b\t1\nb a\t1\n"
    )


def test_measure_round_trip():
    rng = random.Random(71)
    for _ in range(25):
        m = gen.random_orbit_table(rng, gen.alphabet(rng.randint(1, 3)), rng.randint(1, 3))
        assert parse_measure(render_measure(m)) == m


def test_measure_parse_accepts_comments_and_zero_entries():
    text = "# table\n!alphabet a b\n!depth 2\n!mass 1/2\na\t1/2\na b\t0\n"
    m = parse_measure(text)
    assert m.total_mass == Fraction(1, 2)
    assert m.value(AB.word("ab")) == 0
    assert AB.word("ab") not in m.values


def test_measure_parse_errors_carry_line_numbers():
    head = "!alphabet a b\n!depth 2\n!mass 1\n"
    cases = [
        ("!alphabet a b\n!depth 2\na\t1\n", 3),  # missing mass
        ("!depth 2\n!mass 1\na\t1\n", 3),  # entry before alphabet
        (head + "a 1\n", 4),  # no tab
        (head + "a\tx\n", 4),  # not rational
        (head + "a\t-1\n", 4),  # negative
        (head + "a\t1/0\n", 4),  # zero denominator
        (head + "c\t1\n", 4),  # foreign letter
        (head + "a b a\t1\n", 4),  # longer than depth
        (head + "a\t1\na\t2\n", 5),  # duplicate word
        (head + "\t1\n", 4),  # empty word
        ("!alphabet a b\n!depth 0\n", 2),  # bad depth
        ("!alphabet a b\n!mass 1\n!mass 2\n", 3),  # duplicate mass
        ("!alphabet a a\n", 1),  # duplicate letter
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_measure(text)
        assert err.value.line == line, text


def test_header_integers_are_ascii_digits():
    for header in ("\u00b2", "\u0663", "+2", "2.0"):
        with pytest.raises(ParseError) as err:
            parse_measure(f"!alphabet a\n!depth {header}\n!mass 1\n")
        assert err.value.line == 2, header
        with pytest.raises(ParseError) as err:
            parse_language(f"!alphabet a\n!maxlen {header}\na\n")
        assert err.value.line == 2, header


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_header_integer_beyond_the_int_digit_limit_is_a_parse_error():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError) as err:
        parse_measure(f"!alphabet a\n!depth {digits}\n!mass 1\n")
    assert err.value.line == 2


def test_measure_parse_keeps_consistency_to_the_validator():
    """Well-formed text always parses; semantic defects are validate()'s job."""
    from shiftmeasure import validate

    m = parse_measure("!alphabet a\n!depth 1\n!mass 1\na\t2\n")
    assert validate(m) != []


# ---------------------------------------------------------------- languages

def test_language_golden_render():
    language = periodic_orbit_language(AB.word("ab"), 2)
    assert render_language(language) == "!alphabet a b\n!maxlen 2\na\nb\na b\nb a\n"


def test_language_round_trip():
    rng = random.Random(72)
    for _ in range(20):
        alph = gen.alphabet(rng.randint(1, 3))
        words = [gen.random_nonempty_word(rng, alph, 4) for _ in range(3)]
        language = parse_language(render_language(full_shift_language(alph, 2)))
        assert language == full_shift_language(alph, 2)
        from shiftmeasure import factorial_closure

        closed = factorial_closure(alph, words, 3)
        assert parse_language(render_language(closed)) == closed


def test_language_parse_applies_factor_closure():
    language = parse_language("!alphabet a b\n!maxlen 2\na a b\n")
    assert {str(w) for w in language.words} == {"a", "b", "a a", "a b"}


def test_language_parse_errors_carry_line_numbers():
    cases = [
        ("!maxlen 2\na\n", 2),  # word before alphabet
        ("!alphabet a\n!maxlen 2\nb\n", 3),  # foreign letter
        ("!alphabet a\n", 1),  # missing maxlen
        ("!maxlen 2\n", 1),  # missing alphabet
        ("!alphabet a\n!maxlen x\n", 2),  # bad maxlen
        ("!alphabet a\n!maxlen 2\n!what 3\n", 3),  # unknown header
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_language(text)
        assert err.value.line == line, text


# ---------------------------------------------------------------- words

def test_parse_word_modes():
    assert parse_word(AB, "a b a") == AB.word("aba")
    assert parse_word(AB, " aba ", compact=True) == AB.word("aba")
    with pytest.raises(ValueError):
        parse_word(AB, "a c")
    multi = Alphabet(("a.1", "a.2"))
    assert parse_word(multi, "a.2 a.1").letters == (1, 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("ab"), min_size=0, max_size=6))
def test_parse_word_round_trip(tokens):
    w = AB.word(tokens)
    assert parse_word(AB, str(w)) == w
