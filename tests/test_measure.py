"""Measure tables: construction rules, Kirchhoff validation, characteristic
measures against a string-counting oracle, combinations and projections."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from shiftmeasure import (
    Alphabet,
    MeasureTable,
    PreconditionError,
    Violation,
    Word,
    characteristic_measure,
    frequency_vector,
    is_rotation,
    iter_words,
    linear_combination,
    rotations,
    support_words,
    validate,
)
from shiftmeasure import words

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def table(alph, depth, entries, mass):
    return MeasureTable(alph, depth, {alph.word(k): v for k, v in entries.items()}, mass)


# ---------------------------------------------------------------- construction

def test_construction_rules():
    m = table(AB, 2, {"a": 1, "ab": 0}, 1)
    assert m.value(AB.word("a")) == 1
    assert AB.word("ab") not in m.values  # zero entries are dropped
    with pytest.raises(ValueError):
        table(AB, 2, {"a": -1}, 1)
    with pytest.raises(ValueError):
        table(AB, 1, {"ab": 1}, 1)
    with pytest.raises(ValueError):
        table(AB, 0, {}, 0)
    with pytest.raises(ValueError):
        MeasureTable(AB, 1, {}, -1)
    with pytest.raises(ValueError):
        MeasureTable(AB, 1, {ABC.word("a"): Fraction(1)}, 1)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        table(AB, 1, {"a": 0.5}, 1)
    with pytest.raises(TypeError):
        MeasureTable(AB, 1, {}, 0.5)


@pytest.mark.parametrize(
    "depth, values, mass, error, message",
    [
        (1, {AB.word("a"): 0.5}, 1, TypeError, "value of 'a' must be exact, got a float"),
        (1, {AB.word("a"): -1}, 1, ValueError, "negative value for 'a'"),
        (1, {ABC.word("a"): 1}, 1, ValueError, "word 'a' is not over [a b]"),
        (1, {AB.word("ab"): 1}, 1, ValueError, "word 'a b' has length outside 1..1"),
        (0, {}, 0, ValueError, "depth must be >= 1"),
    ],
    ids=["float", "negative", "foreign-word", "over-long-word", "depth-0"],
)
def test_public_constructor_keeps_its_checks_and_messages(depth, values, mass, error, message):
    with pytest.raises(error) as err:
        MeasureTable(AB, depth, values, mass)
    assert str(err.value) == message


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
@gen.deadline(5)
def test_a_depth_past_the_int_digit_limit_is_shown_by_its_digits():
    with pytest.raises(PreconditionError, match="^word '' has length outside 1..<5001-digit number>$"):
        MeasureTable(AB, 10**5000, {AB.epsilon(): 1}, 1)


def test_values_is_the_word_keyed_view_of_the_table():
    m = table(AB, 2, {"a": 1, "b": Fraction(1, 2), "ab": 0, "ba": 2}, 1)
    assert m.values == {AB.word("a"): 1, AB.word("b"): Fraction(1, 2), AB.word("ba"): 2}
    assert m.values is m.values  # built once
    assert m == MeasureTable(AB, 2, dict(m.values), 1)
    assert m != MeasureTable(AB, 2, {AB.word("a"): 1}, 1)


def test_value_lookup():
    m = table(AB, 2, {"a": Fraction(1, 3), "ab": Fraction(1, 3)}, Fraction(1, 3))
    assert m.value(AB.word("ab")) == Fraction(1, 3)
    assert m.value(AB.word("bb")) == 0
    assert m.value(AB.epsilon()) == Fraction(1, 3)  # epsilon cylinder = mass
    with pytest.raises(ValueError):
        m.value(AB.word("aaa"))
    with pytest.raises(ValueError):
        m.value(ABC.word("a"))


def test_equality_ignores_stored_zeros():
    assert table(AB, 2, {"a": 1, "b": 0}, 1) == table(AB, 2, {"a": 1}, 1)


# ---------------------------------------------------------------- validation

def test_validate_accepts_consistent_tables():
    assert validate(characteristic_measure(AB.word("ab"), 4)) == []
    assert validate(MeasureTable(AB, 3, {}, 0)) == []


def test_validate_reports_the_broken_extension():
    m = table(AB, 2, {"a": 1, "aa": 1, "ab": 1}, 1)
    found = validate(m)
    assert any(
        v.kind == "right-extension" and str(v.word) == "a" and v.actual == 2 and v.expected == 1
        for v in found
    )
    assert any(v.kind == "level-sum" and v.level == 2 for v in found)


def test_validate_catches_level_sum_only_breaks():
    m = table(AB, 1, {"a": 1, "b": 1}, 3)
    found = validate(m)
    assert [v.kind for v in found] == ["level-sum"]
    assert "length-1" in str(found[0])


def test_any_single_entry_mutation_is_caught():
    rng = random.Random(21)
    for _ in range(60):
        alph = gen.alphabet(rng.randint(2, 3))
        depth = rng.randint(1, 3)
        m = gen.random_orbit_table(rng, alph, depth)
        assert validate(m) == []
        target = gen.random_nonempty_word(rng, alph, depth)
        values = dict(m.values)
        values[target] = values.get(target, Fraction(0)) + Fraction(rng.randint(1, 3), rng.randint(1, 4))
        assert validate(MeasureTable(alph, depth, values, m.total_mass)) != []


def _validate_exhaustive(m):
    """The definition: both extension equalities at every word of length
    1..depth-1, zero-valued words included, then each level sum."""
    out = []
    letters = [Word(m.alphabet, (i,)) for i in range(len(m.alphabet))]
    for length in range(1, m.depth):
        for w in iter_words(m.alphabet, length):
            expected = m.value(w)
            left = sum((m.value(a + w) for a in letters), Fraction(0))
            if left != expected:
                out.append(Violation("left-extension", w, None, expected, left))
            right = sum((m.value(w + a) for a in letters), Fraction(0))
            if right != expected:
                out.append(Violation("right-extension", w, None, expected, right))
    for length in range(1, m.depth + 1):
        total = sum((v for w, v in m.values.items() if len(w) == length), Fraction(0))
        if total != m.total_mass:
            out.append(Violation("level-sum", None, length, m.total_mass, total))
    return out


def test_validate_matches_the_exhaustive_walk():
    """Same violations, same order and same values as checking every word,
    on consistent, perturbed and empty tables."""
    rng = random.Random(23)
    broken = violations = 0
    empty_masses = set()
    for _ in range(320):
        alph = gen.alphabet(rng.randint(1, 3))
        m = gen.perturbed_table(rng, alph, rng.randint(1, 5))
        expected = _validate_exhaustive(m)
        got = validate(m)
        assert got == expected
        assert all(type(v.expected) is type(v.actual) is Fraction for v in got)
        broken += bool(got)
        violations += len(got)
        if not m.values:
            empty_masses.add(m.total_mass > 0)
    assert broken >= 100 and violations >= 500 and empty_masses == {False, True}


# ---------------------------------------------------------------- characteristic

def test_characteristic_frozen_ab():
    m = characteristic_measure(AB.word("ab"), 2)
    assert m.total_mass == 2
    assert {str(w): v for w, v in m.values.items()} == {
        "a": 1, "b": 1, "a b": 1, "b a": 1,
    }


def test_characteristic_of_single_letter():
    m = characteristic_measure(AB.word("a"), 3)
    assert m.total_mass == 1
    assert {str(w): v for w, v in m.values.items()} == {"a": 1, "a a": 1, "a a a": 1}


def test_characteristic_errors():
    with pytest.raises(ValueError):
        characteristic_measure(AB.epsilon(), 2)
    with pytest.raises(ValueError):
        characteristic_measure(AB.word("a"), 0)


def test_characteristic_table_budget_edge(monkeypatch):
    """The keys hold period * depth * (depth + 1) / 2 letters: as many as the
    budget is admitted, one more is refused.  The period is the primitive
    root's, not the word's."""
    monkeypatch.setattr(words, "TABLE_BUDGET", 6)
    for text, depth in (("aaaaab", 1), ("aaaaabaaaaab", 1), ("ab", 2), ("a", 3)):
        assert validate(characteristic_measure(AB.word(text), depth)) == []
    with pytest.raises(PreconditionError) as refused:
        characteristic_measure(AB.word("aaaaaab"), 1)
    assert str(refused.value) == (
        "depth 1 is over the table budget: its keys for an orbit of period 7 hold 7 letters, "
        "more than 6"
    )
    with pytest.raises(PreconditionError, match="period 1 hold 10 letters, more than 6$"):
        characteristic_measure(AB.word("aa"), 4)


@gen.deadline(5)
def test_characteristic_refuses_huge_depths_before_building_anything():
    """2^62 once ended in a MemoryError and 10^9 would allocate gigabytes;
    both are refused from their arguments, in well under a mebibyte."""
    assert words.TABLE_BUDGET == 10**7
    tracemalloc.start()
    try:
        for depth in (2**62, 10**9):
            with pytest.raises(PreconditionError) as refused:
                characteristic_measure(AB.word("ab"), depth)
            assert str(refused.value) == (
                f"depth {depth} is over the table budget: its keys for an orbit of period 2 "
                f"hold {depth * (depth + 1)} letters, more than 10000000"
            )
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def _characteristic_oracle(w, depth):
    """Count occurrences at offsets inside one period of the repetition,
    on rendered strings (single-character tokens only)."""
    text = "".join(w.tokens)
    big = text * (depth + len(text))
    values = {}
    for length in range(1, depth + 1):
        for offset in range(len(text)):
            v = big[offset : offset + length]
            values[v] = values.get(v, 0) + 1
    return values


def test_characteristic_matches_counting_oracle():
    rng = random.Random(22)
    for _ in range(60):
        alph = gen.alphabet(rng.randint(1, 3))
        w = gen.random_nonempty_word(rng, alph, 5)
        depth = rng.randint(1, 6)
        m = characteristic_measure(w, depth)
        expected = _characteristic_oracle(w, depth)
        got = {"".join(word.tokens): int(v) for word, v in m.values.items()}
        assert got == expected
        values = list(m._weights.values())
        assert all(type(v) is Fraction for v in values)
        assert len({id(v) for v in values}) == len(set(values))  # one object per distinct count
        assert m.total_mass == len(w)
        assert validate(m) == []


def test_characteristic_scales_with_the_exponent():
    for text, k in [("ab", 2), ("a", 3), ("abb", 2)]:
        w = AB.word(text)
        power = Word(AB, w.letters * k)
        assert characteristic_measure(power, 3) == linear_combination(
            [(k, characteristic_measure(w, 3))]
        )


def test_characteristic_is_rotation_invariant_exhaustive():
    for k in range(1, 7):
        for w in iter_words(AB, k):
            m = characteristic_measure(w, 4)
            for r in rotations(w):
                assert characteristic_measure(r, 4) == m
                assert is_rotation(w, r)


# ---------------------------------------------------------------- combinations

def test_linear_combination_frozen():
    m = linear_combination(
        [(1, characteristic_measure(AB.word("a"), 2)), (1, characteristic_measure(AB.word("b"), 2))]
    )
    assert m.total_mass == 2
    assert m.value(AB.word("ab")) == 0
    assert m.value(AB.word("aa")) == 1


def test_linear_combination_truncates_to_min_depth():
    m = linear_combination(
        [(1, characteristic_measure(AB.word("ab"), 4)), (2, characteristic_measure(AB.word("a"), 2))]
    )
    assert m.depth == 2
    assert m.total_mass == 4


def test_linear_combination_with_a_zero_coefficient_keeps_only_positive_weights():
    a_orbit, b_orbit = characteristic_measure(AB.word("a"), 2), characteristic_measure(AB.word("b"), 2)
    m = linear_combination([(0, a_orbit), (Fraction(1, 2), b_orbit)])
    assert {str(w): v for w, v in m.values.items()} == {"b": Fraction(1, 2), "b b": Fraction(1, 2)}
    assert m == MeasureTable(AB, 2, {AB.word(w): Fraction(1, 2) for w in ("b", "bb")}, Fraction(1, 2))
    assert support_words(linear_combination([(0, a_orbit)])) == set()


def test_linear_combination_errors():
    with pytest.raises(ValueError):
        linear_combination([])
    with pytest.raises(ValueError):
        linear_combination([(-1, characteristic_measure(AB.word("a"), 2))])
    with pytest.raises(ValueError):
        linear_combination(
            [
                (1, characteristic_measure(AB.word("a"), 2)),
                (1, characteristic_measure(ABC.word("a"), 2)),
            ]
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=5),
            st.text(alphabet="ab", min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_combinations_of_orbit_measures_stay_consistent(pairs, depth):
    m = linear_combination(
        [(coeff, characteristic_measure(AB.word(text), depth)) for coeff, text in pairs]
    )
    assert validate(m) == []
    assert m.total_mass == sum(coeff * len(text) for coeff, text in pairs)


# ---------------------------------------------------------------- projections

def test_frequency_vector_and_support():
    m = characteristic_measure(AB.word("aab"), 2)
    fv = frequency_vector(m)
    assert fv.alphabet == AB
    assert fv.entries == (Fraction(2), Fraction(1))
    assert sum(fv.entries) == m.total_mass
    assert {str(w) for w in support_words(m)} == {"a", "b", "a a", "a b", "b a"}
