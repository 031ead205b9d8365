"""Text formats: golden renderings, parse/render round trips, and the line
numbers reported for each class of malformed input."""

import itertools
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
    Word,
    characteristic_measure,
    full_shift_language,
    iter_words,
    parse_language,
    parse_measure,
    parse_morphism,
    parse_word,
    periodic_orbit_language,
    render_language,
    render_measure,
    render_morphism,
    required_input_depth,
    transfer_eval,
    transfer_table,
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
        # A malformed alphabet header is reported at its own line.
        ("!domain a\n!codomain c c\na -> c\n", 2, "duplicate symbol token: 'c'"),
        ("a -> c\n!codomain c c\n", 2, "duplicate symbol token: 'c'"),
        ("!domain a a\na -> c\na -> d\n", 1, "duplicate symbol token: 'a'"),
        ("!domain a b\n# b only\nb -> c\n", 1, "no image given for domain letter 'a'"),
        ("!alphabet a\na -> c\n", 1, "unknown header '!alphabet'"),
        ("!codomain c\na -> c\n!codomain c\n", 3, "duplicate !codomain header"),
        ("!domain a\n!domain\na -> c\n", 2, "duplicate !domain header"),
    ]
    for text, line, *message in cases:
        with pytest.raises(ParseError) as err:
            parse_morphism(text)
        assert err.value.line == line, text
        assert str(err.value).startswith(f"line {line}:")
        if message:
            assert err.value.message == message[0], text
    # Headers may follow the rules.
    assert parse_morphism("a -> c\n!codomain d c\n").codomain.symbols == ("d", "c")


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
        ("!alphabet a b\n!mass 1 2\n", 2, "!mass needs one rational value"),
        ("!alphabet a a\n", 1),  # duplicate letter
        (head + "a 1\n\n!what\n", 4, "entry needs a tab between the word and its value"),
        # Missing headers, in the order !alphabet, !depth, !mass, at the last content line.
        ("", 1, "missing !alphabet header"),
        ("!mass 1\n!depth 2\n", 2, "missing !alphabet header"),
        ("!mass 1\n!alphabet a\n# end\n", 2, "missing !depth header"),
        ("!depth 1\n!alphabet a\n", 2, "missing !mass header"),
        (head + "!maxlen 2\n", 4, "unknown header '!maxlen'"),
        ("!alphabet a\n!alphabet\n", 2, "duplicate !alphabet header"),
        # The duplicate check comes before the value check.
        ("!alphabet a\n!depth 1\n!depth x\n", 3, "duplicate !depth header"),
        ("!alphabet a\n!mass 1\n!mass\n", 3, "duplicate !mass header"),
    ]
    for text, line, *message in cases:
        with pytest.raises(ParseError) as err:
            parse_measure(text)
        assert err.value.line == line, text
        if message:
            assert err.value.message == message[0], text
    # !mass may follow the entries.
    assert parse_measure("!alphabet a\n!depth 1\na\t1\n!mass 1\n").total_mass == 1


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


def test_measure_entry_errors_keep_their_messages():
    head = "!alphabet a b\n!depth 2\n!mass 1\n"
    cases = [
        (head + "a  c b\t1\n", 4, "symbol 'c' not in alphabet [a b]"),
        (head + "a   b a\t1\n", 4, "word 'a b a' is longer than the declared depth 2"),
        (head + "a b\t1\na  b\t2\n", 5, "duplicate entry for 'a b'"),
        # A zero entry is dropped from the table, but a second entry for its word is still caught.
        (head + "a\t0\na\t1\n", 5, "duplicate entry for 'a'"),
        # A value text seen before is reported again where it recurs.
        (head + "a\t1/2\nb\tx\na b\tx\n", 5, "not a rational value: 'x'"),
        (head + "a\t1/2\nb\t1/2\nb a\t1/0\n", 6, "not a rational value: '1/0'"),
        # A raw value text is stripped when first seen; the message shows it stripped.
        (head + "a\tx\nb\t x \n", 4, "not a rational value: 'x'"),
        (head + "a\t1\nb\t x \n", 5, "not a rational value: 'x'"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as err:
            parse_measure(text)
        assert (err.value.line, err.value.message) == (line, message), text
    m = parse_measure(head + "a\t0\nb\t0.0\na b\t00\nb b\t1\nb a\t1\n")
    assert {str(w): v for w, v in m.values.items()} == {"b b": 1, "b a": 1}
    m = parse_measure(head + "a\t1/2\nb\t 1/2\na b\t1/2 \nb a\t 0 \nb b\t0\n")
    assert {str(w): v for w, v in m.values.items()} == {"a": Fraction(1, 2), "b": Fraction(1, 2),
                                                        "a b": Fraction(1, 2)}


def test_parse_measure_checks_each_entry_once_without_words(monkeypatch):
    """Entries are checked on letter tuples: no Word is built and no word is
    formatted for an error message that is not raised."""
    alph = Alphabet(("a", "b", "c"))
    words = [w for n in range(1, 6) for w in itertools.product(alph.symbols, repeat=n)]
    entries = "".join(f"{' '.join(w)}\t{i % 9 + 1}/{i % 4 + 1}\n" for i, w in enumerate(words))
    text = f"!alphabet a b c\n!depth 5\n!mass 7\n{entries}"
    built, formatted = [], []
    init, to_str = Word.__init__, Word.__str__
    monkeypatch.setattr(Word, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    monkeypatch.setattr(Word, "__str__", lambda self: formatted.append(1) or to_str(self))
    m = parse_measure(text)
    rendered = render_measure(m)
    assert (len(built), len(formatted)) == (0, 0)
    assert len(words) == 363 and len(m.values) == 363
    assert parse_measure(rendered) == m


def _plain_render(m):
    """render_measure as it was: one lambda-keyed sort, every word joined and
    every value formatted on its own."""
    lines = [f"!alphabet {m.alphabet}", f"!depth {m.depth}", f"!mass {m.total_mass}"]
    symbols, weights = m.alphabet.symbols, m._weights
    for u in sorted(weights, key=lambda u: (len(u), u)):
        lines.append(f"{' '.join([symbols[i] for i in u])}\t{weights[u]}")
    return "\n".join(lines) + "\n"


def _respaced(text):
    """The entry lines reversed, each with its first space doubled: no entry's
    prefix text comes before it, so parse_measure maps every token."""
    head, entries = text.splitlines()[:3], text.splitlines()[3:]
    return "\n".join(head + [line.replace(" ", "  ", 1) for line in reversed(entries)]) + "\n"


def test_parse_measure_stores_its_weights_as_the_search_keys_when_prefix_closed():
    """A file in which each entry's prefix one letter shorter is also an entry,
    canonical or reversed and respaced, stores its weights dict as the table's
    _prefixes, the keys transfer_eval searches.  A file with a zero entry stores
    none and leaves the test to the property, and one that lists a b but not a
    gets every prefix of its keys from it.  On each file eval equals
    transfer's entry for every target up to the table's output depth."""
    canonical = render_measure(characteristic_measure(AB.word("aabab"), 4))
    files = {
        "canonical": canonical,
        "reversed": _respaced(canonical),
        "zero entry": canonical + "b b\t0\n",
        "a b without a": "!alphabet a b\n!depth 2\n!mass 2\nb\t1\na b\t1\nb a\t1\n",
    }
    tables = {name: parse_measure(text) for name, text in files.items()}
    for name in ("canonical", "reversed"):
        m = tables[name]
        assert m == tables["canonical"] and vars(m)["_prefixes"] is m._weights
    m = tables["zero entry"]
    assert "_prefixes" not in vars(m) and m._prefixes is m._weights
    m = tables["a b without a"]
    assert "_prefixes" not in vars(m) and m._prefixes == {(0,), (1,), (0, 1), (1, 0)}
    sigma = Morphism.from_images(AB, CD, {"a": "cd", "b": "ddc"})
    for m in tables.values():
        out_depth = max(k for k in range(1, 9) if required_input_depth(sigma, k) <= m.depth)
        table = transfer_table(sigma, m, out_depth)
        for k in range(1, out_depth + 1):
            for target in iter_words(CD, k):
                assert transfer_eval(sigma, m, target) == table.value(target), target


def test_render_measure_equals_the_plain_render():
    """Prefix texts and per-object value texts give the plain render's bytes
    for any insertion order, with prefixes or whole lengths missing, and with
    equal values as one shared object or as distinct objects."""
    rng = random.Random(73)
    compared = differences = entries = 0
    for size in (1, 2, 3, 4) * 12:
        alph, depth = gen.alphabet(size), rng.randint(1, 5)
        m = (gen.random_orbit_table(rng, alph, depth) if rng.random() < 0.5
             else gen.perturbed_table(rng, alph, depth))
        items = sorted(m._weights.items(), key=lambda item: (len(item[0]), item[0]))
        shuffled = rng.sample(items, len(items))
        gap = rng.randint(1, depth)
        orders = [items, items[::-1], shuffled,
                  [item for item in shuffled if rng.random() < 0.8],  # about a fifth missing
                  [item for item in items if len(item[0]) != gap]]  # one length missing
        tables = [parse_measure(_respaced(render_measure(m)))]
        for order in orders:
            shared: dict = {}
            for weights in ({u: shared.setdefault(v, v) for u, v in order},
                            {u: Fraction(v.numerator, v.denominator) for u, v in order}):
                tables.append(MeasureTable._trusted(alph, depth, weights, m.total_mass))
        for table in tables:
            compared += 1
            entries += len(table._weights)
            differences += render_measure(table) != _plain_render(table)
    assert differences == 0
    assert compared == 48 * 11 and entries > 3000


def test_render_measure_formats_each_value_object_once():
    """Equal values held as one object are formatted once; an equal value
    held as another object is formatted for itself."""
    formatted = []

    class Counted(Fraction):
        def __str__(self):
            formatted.append(self)
            return super().__str__()

    half, third, twin = Counted(1, 2), Counted(1, 3), Counted(1, 2)
    words = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    m = MeasureTable._trusted(AB, 2, dict(zip(words, [half, half, third, twin, third, half])),
                              Fraction(1))
    text = render_measure(m)
    assert [id(v) for v in formatted] == [id(half), id(third), id(twin)]
    assert text == "!alphabet a b\n!depth 2\n!mass 1\na\t1/2\nb\t1/2\na a\t1/3\na b\t1/2\n" \
                   "b a\t1/3\nb b\t1/2\n"


def test_measure_parse_keeps_consistency_to_the_validator():
    """Well-formed text always parses; semantic defects are validate()'s job."""
    from shiftmeasure import validate

    m = parse_measure("!alphabet a\n!depth 1\n!mass 1\na\t2\n")
    assert validate(m) != []


def test_rational_grammar_is_ascii_p_p_over_q_and_decimals():
    head = "!alphabet a\n!depth 1\n"
    accepted = {"0": 0, "3": 3, "007": 7, "2/4": Fraction(1, 2), "0.25": Fraction(1, 4),
                "1.50": Fraction(3, 2)}
    for text, value in accepted.items():
        m = parse_measure(f"{head}!mass {text}\na\t{text}\n")
        assert m.total_mass == value and m.value(Alphabet(("a",)).word("a")) == value, text
    rejected = ["1e3", "1E-2", "1e99999", "1_000", "+3", "-0", ".5", "1.", "1/0", "1/-2",
                "٣", "²", "0x10", "inf", "nan", "1/2/3", "1.5/2"]
    for text in rejected:
        for body, line in ((f"!mass {text}\n", 3), (f"!mass 1\na\t{text}\n", 4)):
            with pytest.raises(ParseError) as err:
                parse_measure(head + body)
            assert err.value.line == line, (text, body)


_MEASURE_FRAGMENTS = st.sampled_from([
    "!alphabet", "!depth", "!mass", "!maxlen", "!", "a", "b", "a.1", "0", "1", "2",
    "1/3", "0.5", "1/0", "-1", "1e3", "1_000", "+3", ".5", "٣", "²",
    "9" * 5000, "#", "\t", " ", "\n", "\r", "\x0b", " ", " ", "/", ".",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.one_of(_MEASURE_FRAGMENTS, st.text(max_size=3)), max_size=40).map("".join),
    st.lists(st.one_of(_MEASURE_FRAGMENTS, st.text(max_size=3)), max_size=20).map(
        lambda parts: "!alphabet a b\n!depth 2\n!mass 1\n" + "".join(parts)
    ),
))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        m = parse_measure(text)
    except ParseError:
        return
    assert parse_measure(render_measure(m)) == m


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_measure_round_trip_on_perturbed_tables(seed):
    rng = random.Random(seed)
    m = gen.perturbed_table(rng, gen.alphabet(rng.randint(1, 3)), rng.randint(1, 4))
    assert parse_measure(render_measure(m)) == m


_TOKEN_FRAGMENTS = st.sampled_from(
    ["a", "b", ".1", "#", "!", "-", ">", "->", "/", "\t", " ", "\u2028", "\x1c", "\x85"]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(st.text(max_size=3), st.lists(_TOKEN_FRAGMENTS, max_size=3).map("".join)),
    min_size=1,
    max_size=4,
))
def test_every_accepted_alphabet_round_trips(tokens):
    """Any alphabet Alphabet accepts survives render then parse in all three
    formats: no token can read back as a comment, a header or a rule arrow."""
    try:
        alph = Alphabet(tuple(tokens))
    except ValueError:
        return
    m = characteristic_measure(Word(alph, tuple(range(len(alph)))), 2)
    assert parse_measure(render_measure(m)) == m
    language = full_shift_language(alph, 2)
    assert parse_language(render_language(language)) == language
    reverse = Morphism(alph, alph, tuple(Word(alph, (i, 0)) for i in reversed(range(len(alph)))))
    assert parse_morphism(render_morphism(reverse)) == reverse


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
        ("!alphabet a\n# end\n", 1, "missing !maxlen header"),
        ("!maxlen 1\n", 1, "missing !alphabet header"),
        ("!alphabet a\n!maxlen 1\n!mass 1\n", 3, "unknown header '!mass'"),
        ("!maxlen 1\n!alphabet a\n!alphabet b\n", 3, "duplicate !alphabet header"),
        # The duplicate check comes before the value check.
        ("!alphabet a\n!maxlen 1\n!maxlen x\n", 3, "duplicate !maxlen header"),
    ]
    for text, line, *message in cases:
        with pytest.raises(ParseError) as err:
            parse_language(text)
        assert err.value.line == line, text
        if message:
            assert err.value.message == message[0], text
    # !maxlen may follow the words.
    assert {str(w) for w in parse_language("!alphabet a b\na b\n!maxlen 1\n").words} == {"a", "b"}


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
