"""Word combinatorics, checked against independent string-based oracles."""

import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmeasure import (
    Alphabet,
    PreconditionError,
    Word,
    count_occurrences,
    factors,
    is_proper_power,
    is_rotation,
    iter_words,
    min_rotation,
    primitive_root,
    rotations,
)
from shiftmeasure import words
from shiftmeasure.words import _canonical, _lyndon_counts, _lyndon_words, _root_rotation

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
CD = Alphabet(("c", "d"))


def words_up_to(alph, n):
    for k in range(1, n + 1):
        yield from iter_words(alph, k)


# ---------------------------------------------------------------- oracles

def occurrences_oracle(w_text: str, u_text: str) -> int:
    """Overlapping substring count via regex lookahead."""
    return len(re.findall(f"(?={re.escape(u_text)})", w_text))


def rotation_oracle(w1: Word, w2: Word) -> bool:
    """Classic doubling trick on rendered single-character words."""
    t1 = "".join(w1.tokens)
    t2 = "".join(w2.tokens)
    return len(t1) == len(t2) and t2 in t1 + t1


def substring_oracle(text: str, n: int) -> set[str]:
    return {
        text[i:j]
        for i in range(len(text))
        for j in range(i + 1, min(i + n, len(text)) + 1)
    }


# ---------------------------------------------------------------- alphabets

def test_alphabet_rejects_bad_input():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))
    with pytest.raises(ValueError):
        Alphabet(("a", "b c"))
    # The text formats read these as a comment, a header and a rule arrow.
    for token in ("#", "# a", "#a", "!", "!depth", "->"):
        with pytest.raises(ValueError):
            Alphabet(("a", token))
    # str.split() splits on any Unicode whitespace: em space, file separator, ideographic space.
    for token in ("a\u2003b", "a\x1cb", "\u3000"):
        with pytest.raises(ValueError, match="^invalid symbol token: "):
            Alphabet(("a", token))
    assert Alphabet(("a#", "a!", "-", ">", "-->", "->a")).symbols[-1] == "->a"


def test_alphabet_refuses_a_token_that_is_not_a_str():
    """A token is text: a tuple, bytes or None is the wrong type, refused before
    any of the text rules are read."""
    for tokens, kind in [((("a",),), "tuple"), ((b"a",), "bytes"), (("a", None), "NoneType")]:
        with pytest.raises(TypeError, match=f"^symbol token must be a str, not {kind}$"):
            Alphabet(tokens)


def test_alphabet_order_is_significant():
    assert Alphabet(("a", "b")) != Alphabet(("b", "a"))
    assert AB.index("b") == 1
    assert "b" in AB and "z" not in AB


def test_composite_tokens_are_first_class():
    sub = Alphabet(("a.1", "a.2", "b.1"))
    w = sub.word(["a.2", "b.1"])
    assert w.tokens == ("a.2", "b.1")
    assert str(w) == "a.2 b.1"


# Tokens of AB, tokens it does not hold, and unhashable items.
TOKEN_LISTS = st.lists(st.one_of(st.sampled_from(["a", "b"]), st.sampled_from(["c", "A", "", "a b"]),
                                 st.lists(st.just("a"), max_size=1), st.dictionaries(st.just("a"), st.just(1))),
                       max_size=6)


@settings(max_examples=300, deadline=None)
@given(TOKEN_LISTS)
def test_alphabet_word_is_the_checked_word_of_each_token_index(tokens):
    """Alphabet.word, the one place tokens become letters, builds through _trusted the word
    that Word builds from each token's index: the same fields, equality and hash.  A list it
    refuses, index refuses with the same error, naming the first unknown token."""
    try:
        expected = Word(AB, tuple(AB.index(t) for t in tokens))
    except (PreconditionError, TypeError) as exc:
        with pytest.raises(type(exc)) as err:
            AB.word(tokens)
        assert str(err.value) == str(exc)
        if isinstance(exc, PreconditionError):
            first = next(t for t in tokens if t not in AB)
            assert str(exc) == f"symbol {first!r} not in alphabet [a b]"
        return
    w = AB.word(tokens)
    assert (w.alphabet, w.letters, type(w.letters)) == (expected.alphabet, expected.letters, tuple)
    assert w == expected and hash(w) == hash(expected)


def test_alphabet_word_reads_its_tokens_once():
    """An iterator of tokens is read once, also when an unknown token is refused."""
    assert AB.word(iter(["b", "a"])) == Word(AB, (1, 0))
    with pytest.raises(PreconditionError, match=r"^symbol 'z' not in alphabet \[a b\]$"):
        AB.word(iter(["a", "z", "y"]))


def test_word_construction_and_concat():
    w = AB.word("ab")
    assert len(w) == 2 and str(w) == "a b"
    assert (w + AB.word("a")).tokens == ("a", "b", "a")
    with pytest.raises(ValueError):
        Word(AB, (0, 5))
    with pytest.raises(ValueError):
        w + ABC.word("c")
    assert len(AB.epsilon()) == 0


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_a_letter_index_past_the_int_digit_limit_is_shown_by_its_digits():
    with pytest.raises(PreconditionError, match=r"^letter index <5001-digit number> out of range for alphabet \[a b\]$"):
        Word(AB, (0, 10**5000))


# ---------------------------------------------------------------- occurrences

def test_count_occurrences_frozen():
    assert count_occurrences(AB.word("aaa"), AB.word("aa")) == 2
    assert count_occurrences(CD.word("cdcdcc"), CD.word("cd")) == 2
    assert count_occurrences(AB.word("ab"), AB.word("ab")) == 1
    assert count_occurrences(AB.word("ab"), AB.word("ba")) == 0


def test_count_occurrences_errors():
    with pytest.raises(ValueError):
        count_occurrences(AB.word("ab"), AB.epsilon())
    with pytest.raises(ValueError):
        count_occurrences(AB.word("ab"), CD.word("cd"))


def test_count_occurrences_longer_pattern_is_zero():
    for w in words_up_to(AB, 4):
        for u in words_up_to(AB, 6):
            if len(u) > len(w):
                assert count_occurrences(w, u) == 0


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab", min_size=0, max_size=14), st.text(alphabet="ab", min_size=1, max_size=5))
def test_count_occurrences_matches_regex_oracle(w_text, u_text):
    assert count_occurrences(AB.word(w_text), AB.word(u_text)) == occurrences_oracle(w_text, u_text)


# ---------------------------------------------------------------- primitive roots

def test_primitive_root_frozen():
    root, exponent = primitive_root(AB.word("abab"))
    assert (str(root), exponent) == ("a b", 2)
    root, exponent = primitive_root(ABC.word("abc"))
    assert (str(root), exponent) == ("a b c", 1)
    root, exponent = primitive_root(AB.word("aaaa"))
    assert (str(root), exponent) == ("a", 4)
    assert not is_proper_power(AB.word("ab"))
    assert is_proper_power(AB.word("abab"))


def test_primitive_root_empty_word_errors():
    with pytest.raises(ValueError):
        primitive_root(AB.epsilon())


def _assert_root_contract(w):
    root, exponent = primitive_root(w)
    assert Word(w.alphabet, root.letters * exponent) == w
    # independent primitivity check on the root
    p = len(root)
    for q in range(1, p):
        if p % q == 0:
            assert root.letters[:q] * (p // q) != root.letters


def test_primitive_root_round_trip_exhaustive():
    for w in words_up_to(AB, 12):
        _assert_root_contract(w)
    for w in words_up_to(ABC, 10):
        _assert_root_contract(w)


# ---------------------------------------------------------------- rotations

def test_is_rotation_frozen():
    assert is_rotation(ABC.word("aab"), ABC.word("aba"))
    assert not is_rotation(ABC.word("aab"), ABC.word("abb"))
    assert is_rotation(AB.epsilon(), AB.epsilon())
    assert not is_rotation(AB.word("a"), AB.word("ab"))
    # Tokens are compared, not letter indices: b < a in BA's order does not matter.
    BA = Alphabet(("b", "a"))
    assert is_rotation(AB.word("aab"), BA.word("aba")) and is_rotation(BA.word("ab"), AB.word("ab"))
    assert not is_rotation(AB.word("aab"), BA.word("abb")) and is_rotation(AB.epsilon(), BA.epsilon())


def test_rotations_and_min_rotation():
    assert [str(w) for w in rotations(AB.word("bab"))] == ["b a b", "a b b", "b b a"]
    assert str(min_rotation(AB.word("bab"))) == "a b b"
    assert min_rotation(AB.epsilon()) == AB.epsilon()
    assert list(rotations(AB.epsilon())) == [AB.epsilon()]


def test_is_rotation_matches_string_oracle_exhaustive():
    # also proves the relation is an equivalence on this range: it coincides
    # with equality of canonical forms, which is transitive by construction
    for n in range(1, 9):
        level = list(iter_words(AB, n))
        for w1 in level:
            for w2 in level:
                expected = rotation_oracle(w1, w2)
                assert is_rotation(w1, w2) == expected
                assert (min_rotation(w1) == min_rotation(w2)) == expected


def _least_rotation_oracle(letters):
    """The quadratic scan that the linear one replaced: the least of all n rotations."""
    return min((letters[i:] + letters[:i] for i in range(len(letters))), default=letters)


def _root_oracle(letters):
    """The divisor loop that the scan replaced: the shortest prefix whose power is the word."""
    n = len(letters)
    return next((letters[:p], n // p) for p in range(1, n + 1)
                if n % p == 0 and letters[:p] * (n // p) == letters)


def _scan_cases(seed, count):
    """Seeded words up to length 200, mostly periodic with one mutation: such
    words make long common prefixes, the scan's hard case."""
    rng = random.Random(seed)
    for _ in range(count):
        size, n = rng.randint(1, 4), rng.randint(0, 200)
        base = [rng.randrange(size) for _ in range(rng.randint(1, 6))]
        letters = (base * (n // len(base) + 1))[:n]
        if letters and rng.random() < 0.5:
            letters[rng.randrange(n)] = rng.randrange(size)
        yield tuple(letters if rng.random() < 0.7 else (rng.randrange(size) for _ in range(n)))


def _scanned_least_rotation(letters):
    key, exponent = _root_rotation(letters)
    return key * exponent


def test_least_rotation_matches_the_quadratic_oracle():
    for n in range(1, 10):
        for letters in itertools.product(range(3), repeat=n):
            assert _scanned_least_rotation(letters) == _least_rotation_oracle(letters), letters
    for letters in _scan_cases(97, 2000):
        if letters:
            assert _scanned_least_rotation(letters) == _least_rotation_oracle(letters), letters
    empty = Word(ABC, ())
    assert min_rotation(empty) == empty == Word(ABC, _least_rotation_oracle(()))


def test_one_scan_gives_the_root_rotation_and_exponent():
    """The scan's (key, exponent) is the least rotation of the divisor loop's
    root and its exponent, on every word over 1-3 letters up to length 10 and
    on the seeded hard cases; primitive_root and is_proper_power agree."""
    def check(letters):
        root, exponent = _root_oracle(letters)
        assert _root_rotation(letters) == (_least_rotation_oracle(root), exponent), letters

    for size in (1, 2, 3):
        for n in range(1, 11):
            for letters in itertools.product(range(size), repeat=n):
                check(letters)
    for letters in _scan_cases(101, 3000):
        if letters:
            check(letters)
            w = Word(Alphabet(("a", "b", "c", "d")), letters)
            root, exponent = _root_oracle(letters)
            assert primitive_root(w) == (Word(w.alphabet, root), exponent)
            assert is_proper_power(w) == (exponent >= 2)
    with pytest.raises(ValueError):
        primitive_root(Word(ABC, ()))


def test_is_rotation_transitive_small():
    pool = list(words_up_to(AB, 4))
    for w1, w2, w3 in itertools.product(pool, repeat=3):
        if is_rotation(w1, w2) and is_rotation(w2, w3):
            assert is_rotation(w1, w3)


# ---------------------------------------------------------------- factors

def test_factors_frozen():
    got = factors(ABC.word("abc"), 2)
    assert {str(w) for w in got} == {"a", "b", "c", "a b", "b c"}
    assert factors(AB.word("ab"), 0) == set()
    assert factors(AB.epsilon(), 3) == set()
    with pytest.raises(ValueError):
        factors(AB.word("ab"), -1)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab", min_size=0, max_size=12), st.integers(min_value=0, max_value=6))
def test_factors_match_substring_oracle(text, n):
    got = {"".join(w.tokens) for w in factors(AB.word(text), n)}
    assert got == substring_oracle(text, n)


def test_iter_words_order_and_count():
    level = list(iter_words(AB, 2))
    assert [str(w) for w in level] == ["a a", "a b", "b a", "b b"]
    assert sum(1 for _ in iter_words(ABC, 3)) == 27
    assert list(iter_words(AB, 0)) == [AB.epsilon()]
    with pytest.raises(ValueError, match="^length must be >= 0$"):
        next(iter_words(AB, -1))


def test_iter_words_refuses_a_length_over_the_table_budget_at_the_call(monkeypatch):
    """A length over words.TABLE_BUDGET letters, read at call time, is refused
    when iter_words is called, before any word is built."""
    monkeypatch.setattr(words, "TABLE_BUDGET", 3)
    assert len(list(iter_words(AB, 3))) == 8
    with pytest.raises(PreconditionError, match="^length 4 is over the table budget: each word holds "
                                         "4 letters, more than 3$"):
        iter_words(AB, 4)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_iter_words_refuses_a_length_past_the_int_digit_limit():
    """A length that str() cannot write is shown by its digits in the refusal."""
    with pytest.raises(PreconditionError, match="^length <5001-digit number> is over the table budget: each word "
                                         "holds <5001-digit number> letters, more than 10000000$"):
        iter_words(AB, 10**5000)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_shown_writes_a_count_in_full_or_by_its_exact_digit_count():
    limit = sys.get_int_max_str_digits()
    assert words._shown(10**(limit - 1)) == "1" + "0" * (limit - 1)
    assert words._shown(10**limit - 1) == "9" * limit
    assert words._shown(10**limit) == f"<{limit + 1}-digit number>"
    for digits in range(limit + 1, limit + 40):
        for n in (10**(digits - 1), 2 * 10**(digits - 1) + 7, 10**digits - 1):
            assert words._shown(n) == f"<{digits}-digit number>"


def test_canonical_is_the_length_then_letters_order():
    """_canonical's two sorts give the (length, letters) key order, () first."""
    rng = random.Random(20)
    cases = [set(), {()}, {(1,), (0,), ()}, {(0, 1), (1,), (0, 0, 0), (2,), ()}]
    for size in (1, 2, 3):
        for _ in range(60):
            cases.append({tuple(rng.randrange(size) for _ in range(rng.randrange(5)))
                          for _ in range(rng.randrange(16))})
    for keys in cases:
        assert _canonical(keys) == sorted(keys, key=lambda u: (len(u), u))
        assert _canonical(dict.fromkeys(keys, 1)) == sorted(keys, key=lambda u: (len(u), u))


def test_sort_key_orders_by_length_then_alphabet():
    ws = [AB.word("b"), AB.word("ab"), AB.word("a"), AB.word("aa")]
    assert [str(w) for w in sorted(ws, key=Word.sort_key)] == ["a", "b", "a a", "a b"]


# ---------------------------------------------------------------- Lyndon words

@pytest.mark.parametrize("size, n", [(1, 6), (2, 10), (3, 7)])
def test_lyndon_words_are_the_least_rotations_of_primitive_words(size, n):
    alph = Alphabet(tuple("abc"[:size]))
    expected = sorted(
        {min_rotation(w) for w in words_up_to(alph, n) if not is_proper_power(w)},
        key=Word.sort_key,
    )
    assert _lyndon_words(size, n) == [w.letters for w in expected]


def test_lyndon_counts_follow_moreau():
    # OEIS A001037 and A027376: Lyndon words of length 1, 2, ... over 2 and 3 letters.
    known = {
        2: [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161, 2182, 4080],
        3: [3, 3, 8, 18, 48, 116, 312, 810, 2184, 5880],
    }
    for size, counts in known.items():
        n = len(counts)
        lengths = [len(x) for x in _lyndon_words(size, n)]
        assert [lengths.count(k) for k in range(1, n + 1)] == counts
        assert list(itertools.islice(_lyndon_counts(size), n)) == counts
    assert list(itertools.islice(_lyndon_counts(1), 6)) == [1, 0, 0, 0, 0, 0]
    assert _lyndon_words(1, 10**9) == [(0,)]
