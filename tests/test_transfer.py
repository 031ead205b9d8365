"""Measure transfer: the evaluation formulas, the two routes, the depth
preconditions, and the structural identities that tie the modules together."""

import ast
import itertools
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from shiftmeasure import (
    Alphabet,
    DepthError,
    FactorLanguage,
    MeasureTable,
    Morphism,
    PreconditionError,
    Word,
    apply,
    candidate_lengths,
    characteristic_measure,
    compose,
    count_occurrences,
    essential_occurrences,
    factors,
    frequency_vector,
    image_language,
    incidence_matrix,
    iter_words,
    linear_combination,
    pushforward_letter_to_letter,
    required_input_depth,
    subdivision_measure,
    subdivision_morphism,
    support_words,
    transfer_eval,
    transfer_table,
    transfer_via_decomposition,
    validate,
)
from shiftmeasure import language as language_module
from shiftmeasure import morphism as morphism_module
from shiftmeasure import transfer as transfer_module
from shiftmeasure.morphism import _essential_sweep, _window

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
CD = Alphabet(("c", "d"))
DE = Alphabet(("d", "e"))

SIGMA4 = Morphism.from_images(AB, CD, {"a": "cdc", "b": "dcc"})
SIGMA_DDED = Morphism.from_images(ABC, DE, {"a": "ded", "b": "de", "c": "dedd"})
COLLAPSE = Morphism.from_images(AB, ("c",), {"a": "c", "b": "c"})


def third_table():
    return linear_combination(
        [(Fraction(1, 3), characteristic_measure(ABC.word(t), 3)) for t in "abc"]
    )


# ---------------------------------------------------------------- depth bookkeeping

def test_required_input_depth_frozen():
    assert required_input_depth(SIGMA4, 0) == 1
    assert required_input_depth(SIGMA4, 1) == 1
    assert required_input_depth(SIGMA4, 2) == 2
    assert required_input_depth(SIGMA_DDED, 4) == 3
    identity = Morphism.identity(AB)
    for n in range(2, 6):
        assert required_input_depth(identity, n) == n
    with pytest.raises(ValueError):
        required_input_depth(SIGMA4, -1)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_depth_error_shows_depths_past_the_int_digit_limit_by_their_digits():
    """Both depths of a DepthError are written through words._shown: a refusal, not the
    interpreter's digit-limit error."""
    message = "^input depth <5001-digit number> is insufficient: depth >= <5001-digit number> is required$"
    with pytest.raises(PreconditionError, match=message) as err:
        transfer_table(SIGMA4, MeasureTable(AB, 10**5000, {}, 1), 10**5001)
    assert type(err.value) is DepthError and err.value.actual == 10**5000
    with pytest.raises(DepthError, match="^input depth 1 is insufficient: depth >= <5000-digit number> is "):
        transfer_table(SIGMA4, MeasureTable(AB, 1, {}, 1), 10**5000)


def test_depth_shortfall_raises_with_the_required_depth():
    m = characteristic_measure(AB.word("ab"), 1)
    with pytest.raises(DepthError) as err:
        transfer_eval(SIGMA4, m, CD.word("cc"))
    assert err.value.required == 2
    assert "2" in str(err.value)
    with pytest.raises(DepthError):
        transfer_table(SIGMA4, m, 2)
    with pytest.raises(ValueError, match="^output depth must be >= 1$"):
        transfer_table(SIGMA4, m, 0)
    with pytest.raises(ValueError, match="^output depth must be >= 1$"):
        subdivision_measure({"a": 1, "b": 2}, m, 0)


def test_the_depth_bound_lives_in_morphism():
    """DepthError and required_input_depth are defined once, in morphism;
    transfer still exposes them, and language and diagnostics import nothing
    from transfer."""
    import shiftmeasure
    from shiftmeasure import diagnostics, language, morphism, transfer

    assert transfer.DepthError is shiftmeasure.DepthError is morphism.DepthError
    assert transfer.required_input_depth is shiftmeasure.required_input_depth
    assert shiftmeasure.required_input_depth is morphism.required_input_depth
    for module in (language, diagnostics):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        sources = {(node.level, node.module) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)}
        assert (1, "transfer") not in sources and (0, "shiftmeasure.transfer") not in sources
        assert (1, "morphism") in sources


def test_alphabet_mismatches_raise():
    m = characteristic_measure(AB.word("ab"), 2)
    with pytest.raises(ValueError):
        transfer_eval(SIGMA4, m, AB.word("a"))
    with pytest.raises(ValueError):
        transfer_eval(SIGMA4, characteristic_measure(CD.word("c"), 2), CD.word("c"))


# ---------------------------------------------------------------- direct evaluation

def test_transfer_eval_worked_example_formulas():
    """The two-letter worked example: all six depth-2 values in closed form."""
    rng = random.Random(41)
    for _ in range(10):
        m = gen.random_orbit_table(rng, AB, 2, terms=3)
        val = m.value
        w = AB.word
        expected = {
            "c": 2 * (val(w("a")) + val(w("b"))),
            "d": val(w("a")) + val(w("b")),
            "cc": val(w("b")) + val(w("aa")) + val(w("ba")),
            "cd": val(w("a")) + val(w("ab")) + val(w("bb")),
            "dc": val(w("a")) + val(w("b")),
            "dd": Fraction(0),
        }
        for text, value in expected.items():
            assert transfer_eval(SIGMA4, m, CD.word(text)) == value
        assert transfer_eval(SIGMA4, m, CD.epsilon()) == 3 * (val(w("a")) + val(w("b")))


def test_transfer_table_worked_example_frozen():
    out = transfer_table(SIGMA4, characteristic_measure(AB.word("ab"), 2), 2)
    assert out.total_mass == 6
    assert {str(w): v for w, v in out.values.items()} == {
        "c": 4, "d": 2, "c c": 2, "c d": 2, "d c": 2,
    }
    assert out.value(CD.word("dd")) == 0


def test_transfer_eval_dded_frozen():
    m = third_table()
    got = transfer_eval(SIGMA_DDED, m, DE.word("dded"))
    assert got == Fraction(2, 3)
    assert got == m.value(ABC.word("a")) + m.value(ABC.word("c"))


def test_transfer_eval_dded_is_a_plus_c_on_random_tables():
    rng = random.Random(42)
    for _ in range(15):
        m = gen.random_orbit_table(rng, ABC, 3, terms=3)
        assert transfer_eval(SIGMA_DDED, m, DE.word("dded")) == m.value(ABC.word("a")) + m.value(
            ABC.word("c")
        )


def test_single_letter_targets_use_letter_counts():
    rng = random.Random(43)
    for _ in range(20):
        sigma = gen.random_morphism(rng, AB, CD)
        m = gen.random_orbit_table(rng, AB, 1)
        for b in range(len(CD)):
            target = Word(CD, (b,))
            expected = sum(
                (
                    Fraction(count_occurrences(sigma.images[i], target)) * m.value(Word(AB, (i,)))
                    for i in range(len(AB))
                ),
                Fraction(0),
            )
            assert transfer_eval(sigma, m, target) == expected


# ---------------------------------------------------------------- table construction

def _naive_transfer_table(sigma, m, out_depth):
    """Oracle: evaluate every codomain word up to the depth."""
    values = {}
    for k in range(1, out_depth + 1):
        for target in iter_words(sigma.codomain, k):
            v = transfer_eval(sigma, m, target)
            if v:
                values[target] = v
    return MeasureTable(
        sigma.codomain, out_depth, values, transfer_eval(sigma, m, Word(sigma.codomain, ()))
    )


def test_transfer_table_matches_naive_enumeration():
    rng = random.Random(44)
    for _ in range(30):
        sigma = gen.random_morphism(rng, gen.alphabet(rng.randint(1, 3)), gen.alphabet(rng.randint(1, 3)))
        out_depth = rng.randint(1, 3)
        m = gen.random_orbit_table(rng, sigma.domain, required_input_depth(sigma, out_depth))
        assert transfer_table(sigma, m, out_depth) == _naive_transfer_table(sigma, m, out_depth)


def test_transferred_tables_are_consistent():
    rng = random.Random(45)
    for _ in range(30):
        sigma = gen.random_morphism(rng, AB, ABC)
        out_depth = rng.randint(1, 4)
        m = gen.random_orbit_table(rng, AB, required_input_depth(sigma, out_depth))
        assert validate(transfer_table(sigma, m, out_depth)) == []


def test_transfer_commutes_with_characteristic_measures():
    rng = random.Random(46)
    for _ in range(40):
        sigma = gen.random_morphism(rng, gen.alphabet(rng.randint(1, 3)), gen.alphabet(rng.randint(2, 3)))
        w = gen.random_nonempty_word(rng, sigma.domain, 5)
        out_depth = rng.randint(1, 4)
        m = characteristic_measure(w, required_input_depth(sigma, out_depth))
        assert transfer_table(sigma, m, out_depth) == characteristic_measure(apply(sigma, w), out_depth)


# ---------------------------------------------------------------- one-pass sweep

def _sweep_cases(seed, count):
    """Seeded (sigma, table, out_depth) cases over 3 or 4 letters on each side
    with images of length 1-3 and output depth up to 8.  Every third table
    is two levels deeper than the required input depth."""
    rng = random.Random(seed)
    for index in range(count):
        sigma = gen.random_morphism(
            rng, gen.alphabet(rng.randint(3, 4)), gen.alphabet(rng.randint(3, 4), 2)
        )
        out_depth = rng.randint(1, 8)
        depth = required_input_depth(sigma, out_depth) + (2 if index % 3 == 0 else 0)
        yield sigma, gen.random_orbit_table(rng, sigma.domain, depth, terms=3), out_depth


def _essential_sum_table(sigma, m, out_depth):
    """Oracle: every factor of every support image, weighed by the
    essential-occurrence sum over the whole support."""
    targets = set()
    for u in m.values:
        targets |= factors(apply(sigma, u), out_depth)
    values = {}
    for target in targets:
        weight = sum(
            (essential_occurrences(sigma, u, target) * mu for u, mu in m.values.items()),
            Fraction(0),
        )
        if weight:
            values[target] = weight
    mass = sum(
        (
            len(image) * m.value(Word(sigma.domain, (i,)))
            for i, image in enumerate(sigma.images)
        ),
        Fraction(0),
    )
    return MeasureTable(sigma.codomain, out_depth, values, mass)


def test_transfer_table_equals_the_essential_occurrence_sum():
    cases = list(_sweep_cases(56, 30))
    assert any(m.depth > required_input_depth(sigma, d) for sigma, m, d in cases)
    assert max(m.depth for _, m, _ in cases) >= 8
    for sigma, m, out_depth in cases:
        assert transfer_table(sigma, m, out_depth) == _essential_sum_table(sigma, m, out_depth)


def test_transfer_eval_reads_the_table_entry():
    rng = random.Random(57)
    zeros_checked = 0
    for sigma, m, out_depth in _sweep_cases(58, 30):
        out = transfer_table(sigma, m, out_depth)
        for target, weight in out.values.items():
            assert transfer_eval(sigma, m, target) == weight
        for _ in range(20):
            target = gen.random_nonempty_word(rng, sigma.codomain, out_depth)
            if target not in out.values:
                assert transfer_eval(sigma, m, target) == 0
                zeros_checked += 1
        assert transfer_eval(sigma, m, sigma.codomain.epsilon()) == out.total_mass
    assert zeros_checked > 0


def test_sweep_counts_essential_occurrences_within_candidate_lengths():
    """Swept one word at a time, each key is an essential occurrence of the
    counted multiplicity, and the word's length lies in the key's
    candidate-length interval."""
    for sigma, m, out_depth in _sweep_cases(59, 30):
        for u in m.values:
            swept = _essential_sweep(sigma, [(u.letters, 1)], out_depth)
            for letters, count in swept.items():
                target = Word(sigma.codomain, letters)
                assert 1 <= len(target) <= out_depth
                assert count == essential_occurrences(sigma, u, target)
                if len(target) >= 2:
                    shortest, longest = candidate_lengths(sigma, len(target))
                    assert shortest <= len(u) <= longest
            image = apply(sigma, u)
            for target in factors(image, out_depth):
                if essential_occurrences(sigma, u, target):
                    assert target.letters in swept


def test_image_language_equals_the_factors_of_images():
    for sigma, m, out_depth in _sweep_cases(61, 30):
        language = FactorLanguage(sigma.domain, m.depth, frozenset(support_words(m)))
        required = required_input_depth(sigma, out_depth)
        expected = set()
        for u in language.words:
            if len(u) <= required:
                expected |= factors(apply(sigma, u), out_depth)
        assert image_language(sigma, language, out_depth).words == expected


def test_image_language_sweeps_the_window_words(monkeypatch):
    """image_language images exactly the language words in the transfer's
    _window, not every word up to the required depth."""
    received = []

    def recording_sweep(sigma, inputs, max_len):
        inputs = list(inputs)
        received.append([u for u, _ in inputs])
        return _essential_sweep(sigma, inputs, max_len)

    monkeypatch.setattr(language_module, "_essential_sweep", recording_sweep)
    narrower = 0
    for sigma, m, out_depth in _sweep_cases(64, 30):
        language = FactorLanguage(sigma.domain, m.depth, frozenset(support_words(m)))
        image_language(sigma, language, out_depth)
        window = _window(sigma, language._words, out_depth, language.maxlen)
        assert sorted(received.pop()) == sorted(window)
        required = required_input_depth(sigma, out_depth)
        narrower += len(window) < sum(1 for u in language._words if len(u) <= required)
    assert narrower > 0


def test_wrong_table_alphabet_raises_even_with_empty_support():
    sigma = Morphism.from_images(ABC, CD, {"a": "c", "b": "dc", "c": "ccd"})
    stocked = characteristic_measure(AB.word("ab"), 3)
    empty = MeasureTable(AB, 3, {}, 0)
    for m in (stocked, empty):
        with pytest.raises(ValueError, match=r"^table over \[a b\] is not over \[a b c\]$"):
            transfer_table(sigma, m, 2)
        with pytest.raises(ValueError, match=r"^table over \[a b\] is not over \[a b c\]$"):
            transfer_eval(sigma, m, CD.word("cd"))


# ---------------------------------------------------------------- subdivision route

def test_subdivision_measure_worked_example_values():
    """Block values of the subdivision reweighting for image length 3."""
    rng = random.Random(47)
    lengths = {"a": 3, "b": 3}
    pi = subdivision_morphism(AB, lengths)
    sub_word = pi.codomain.word
    for _ in range(10):
        m = gen.random_orbit_table(rng, AB, 2, terms=3)
        out = subdivision_measure(lengths, m, 2)
        assert out.value(sub_word(["a.1", "a.2"])) == m.value(AB.word("a"))
        assert out.value(sub_word(["a.3", "a.1"])) == m.value(AB.word("aa"))
        assert out.value(sub_word(["a.3", "b.1"])) == m.value(AB.word("ab"))
        assert out.value(sub_word(["a.1", "a.3"])) == 0
        assert out.value(sub_word(["a.2"])) == m.value(AB.word("a"))
        assert out.total_mass == 3 * (m.value(AB.word("a")) + m.value(AB.word("b")))
        assert validate(out) == []


def test_subdivision_measure_inverts_the_subdivision_morphism():
    """The reweighting evaluated on subdivision images gives the original."""
    rng = random.Random(48)
    for _ in range(20):
        alph = gen.alphabet(rng.randint(1, 3))
        lengths = {t: rng.randint(1, 3) for t in alph.symbols}
        pi = subdivision_morphism(alph, lengths)
        out_depth = rng.randint(2, 6)
        m = gen.random_orbit_table(rng, alph, required_input_depth(pi, out_depth))
        out = subdivision_measure(lengths, m, out_depth)
        candidates = list(support_words(m)) + [
            gen.random_nonempty_word(rng, alph, m.depth) for _ in range(3)
        ]
        checked = 0
        for w in candidates:
            if len(apply(pi, w)) <= out_depth:
                assert out.value(apply(pi, w)) == m.value(w)
                checked += 1
        assert checked > 0


def _shortest_cover_oracle(pi, u, search_depth):
    """Brute force: the shortest base word whose subdivision image contains
    u as a factor, scanned in canonical order."""
    for k in range(1, search_depth + 1):
        for v in iter_words(pi.domain, k):
            image = apply(pi, v)
            if len(u) <= len(image) and count_occurrences(image, u):
                return v
    return None


def test_subdivision_measure_matches_brute_force_cover():
    rng = random.Random(49)
    for _ in range(15):
        alph = gen.alphabet(rng.randint(1, 2))
        lengths = {t: rng.randint(1, 3) for t in alph.symbols}
        pi = subdivision_morphism(alph, lengths)
        out_depth = rng.randint(1, 4)
        m = gen.random_orbit_table(rng, alph, required_input_depth(pi, out_depth))
        out = subdivision_measure(lengths, m, out_depth)
        for k in range(1, out_depth + 1):
            for u in iter_words(pi.codomain, k):
                cover = _shortest_cover_oracle(pi, u, m.depth)
                expected = m.value(cover) if cover is not None else Fraction(0)
                assert out.value(u) == expected


def _walked_cover(info, letters):
    """Base word tiled by a subdivision word, found by walking its letters,
    or None when the positions do not chain (within a block positions must
    step by one; a block may only be left at its end and entered at
    position one).  info maps a subdivision letter to (base letter, 1-based
    position, block length)."""
    base, position, block_len = info[letters[0]]
    cover = [base]
    for x in letters[1:]:
        b, pos, ln = info[x]
        if position < block_len:
            if b != base or pos != position + 1:
                return None
        else:
            if pos != 1:
                return None
            cover.append(b)
        base, position, block_len = b, pos, ln
    return tuple(cover)


def _walked_subdivision_measure(lengths, m, out_depth):
    """Oracle: every factor of every subdivision image of a support word
    within the required depth, weighed by the cover its letters walk to."""
    pi = subdivision_morphism(m.alphabet, lengths)
    info = {}
    for i, img in enumerate(pi.images):
        for k, letter in enumerate(img.letters):
            info[letter] = (i, k + 1, len(img))
    required = required_input_depth(pi, out_depth)
    candidates = set()
    for u in m.values:
        if len(u) <= required:
            candidates |= factors(apply(pi, u), out_depth)
    values = {}
    for t in candidates:
        cover = _walked_cover(info, t.letters)
        if cover is not None:
            values[t] = m.value(Word(m.alphabet, cover))
    mass = sum((lengths[t] * m.value(Word(m.alphabet, (i,))) for i, t in enumerate(m.alphabet.symbols)),
               Fraction(0))
    return MeasureTable(pi.codomain, out_depth, values, mass)


def test_subdivision_measure_matches_the_walked_cover():
    """The cover read off the block tiling is the one the letter walk finds,
    beyond the brute-force sizes: 3-4 letters, blocks of 1-4 letters, output
    depth up to 8, and every other table deeper than required."""
    rng = random.Random(62)
    for index in range(40):
        alph = gen.alphabet(rng.randint(3, 4))
        lengths = {t: rng.randint(1, 4) for t in alph.symbols}
        out_depth = rng.randint(1, 8)
        required = required_input_depth(subdivision_morphism(alph, lengths), out_depth)
        m = gen.random_orbit_table(rng, alph, required + (rng.randint(1, 3) if index % 2 else 0), terms=3)
        expected = _walked_subdivision_measure(lengths, m, out_depth)
        assert subdivision_measure(lengths, m, out_depth) == expected


def test_the_decomposition_route_runs_without_the_direct_route(monkeypatch):
    """The cross-check stays independent: with the direct route's sweep,
    parse list and window made to raise, the decomposition route still gives
    the table the direct route gives without them."""
    cases = list(_sweep_cases(63, 30))
    expected = [transfer_table(sigma, m, out_depth) for sigma, m, out_depth in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the decomposition route reached the direct route")

    for module in (transfer_module, morphism_module):
        for name in ("_essential_sweep", "_parses", "_window"):
            monkeypatch.setattr(module, name, forbidden)
    for (sigma, m, out_depth), table in zip(cases, expected):
        assert transfer_via_decomposition(sigma, m, out_depth) == table


def test_pushforward_letter_to_letter():
    m = characteristic_measure(AB.word("ab"), 2)
    out = pushforward_letter_to_letter(COLLAPSE, m)
    assert out == characteristic_measure(Alphabet(("c",)).word("cc"), 2)
    assert out.depth == m.depth and out.total_mass == m.total_mass
    with pytest.raises(ValueError):
        pushforward_letter_to_letter(SIGMA4, m)
    with pytest.raises(ValueError):
        pushforward_letter_to_letter(COLLAPSE, characteristic_measure(CD.word("c"), 2))


def test_the_two_routes_agree():
    rng = random.Random(50)
    for _ in range(40):
        sigma = gen.random_morphism(rng, gen.alphabet(rng.randint(1, 3)), gen.alphabet(rng.randint(1, 3)))
        out_depth = rng.randint(1, 3)
        m = gen.random_orbit_table(rng, sigma.domain, required_input_depth(sigma, out_depth))
        assert transfer_via_decomposition(sigma, m, out_depth) == transfer_table(sigma, m, out_depth)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.text(alphabet="cd", min_size=1, max_size=3), min_size=2, max_size=2),
    st.lists(
        st.tuples(st.fractions(min_value=0, max_value=3), st.text(alphabet="ab", min_size=1, max_size=3)),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=1, max_value=3),
)
def test_route_agreement_property(images, table_terms, out_depth):
    sigma = Morphism.from_images(AB, CD, {"a": images[0], "b": images[1]})
    depth = required_input_depth(sigma, out_depth)
    m = linear_combination(
        [(c, characteristic_measure(AB.word(t), depth)) for c, t in table_terms]
    )
    assert transfer_via_decomposition(sigma, m, out_depth) == transfer_table(sigma, m, out_depth)


# ---------------------------------------------------------------- algebraic laws

def test_transfer_is_linear():
    rng = random.Random(51)
    for _ in range(20):
        sigma = gen.random_morphism(rng, AB, CD)
        out_depth = rng.randint(1, 3)
        depth = required_input_depth(sigma, out_depth)
        m1 = gen.random_orbit_table(rng, AB, depth)
        m2 = gen.random_orbit_table(rng, AB, depth)
        c1 = Fraction(rng.randint(0, 4), rng.randint(1, 4))
        c2 = Fraction(rng.randint(0, 4), rng.randint(1, 4))
        combined = transfer_table(sigma, linear_combination([(c1, m1), (c2, m2)]), out_depth)
        separate = linear_combination(
            [(c1, transfer_table(sigma, m1, out_depth)), (c2, transfer_table(sigma, m2, out_depth))]
        )
        assert combined == separate


def test_transfer_is_functorial():
    rng = random.Random(52)
    for _ in range(20):
        inner = gen.random_morphism(rng, AB, ABC)
        outer = gen.random_morphism(rng, ABC, CD)
        out_depth = rng.randint(1, 3)
        mid_depth = required_input_depth(outer, out_depth)
        m = gen.random_orbit_table(rng, AB, required_input_depth(inner, mid_depth))
        staged = transfer_table(outer, transfer_table(inner, m, mid_depth), out_depth)
        direct = transfer_table(compose(outer, inner), m, out_depth)
        assert staged == direct


def test_frequency_identity_and_mass_formula():
    rng = random.Random(53)
    for _ in range(30):
        sigma = gen.random_morphism(rng, gen.alphabet(rng.randint(1, 3)), gen.alphabet(rng.randint(1, 3)))
        m = gen.random_orbit_table(rng, sigma.domain, rng.randint(1, 3))
        out = transfer_table(sigma, m, 1)
        assert frequency_vector(out).entries == incidence_matrix(sigma).apply(
            frequency_vector(m).entries
        )
        expected_mass = sum(
            (
                Fraction(len(sigma.images[i])) * m.value(Word(sigma.domain, (i,)))
                for i in range(len(sigma.domain))
            ),
            Fraction(0),
        )
        assert out.total_mass == expected_mass


def test_cylinder_inequality_and_subdivision_equality():
    rng = random.Random(54)
    for _ in range(30):
        sigma = gen.random_morphism(rng, AB, CD)
        w = gen.random_nonempty_word(rng, AB, 2)
        depth = max(required_input_depth(sigma, len(apply(sigma, w))), len(w))
        m = gen.random_orbit_table(rng, AB, depth)
        assert m.value(w) <= transfer_eval(sigma, m, apply(sigma, w))
    for _ in range(20):
        lengths = {t: rng.randint(1, 3) for t in AB.symbols}
        pi = subdivision_morphism(AB, lengths)
        w = gen.random_nonempty_word(rng, AB, 2)
        depth = max(required_input_depth(pi, len(apply(pi, w))), len(w))
        m = gen.random_orbit_table(rng, AB, depth)
        assert m.value(w) == transfer_eval(pi, m, apply(pi, w))


def test_support_identity_against_image_language():
    rng = random.Random(55)
    for _ in range(25):
        sigma = gen.random_morphism(rng, AB, CD)
        out_depth = rng.randint(1, 3)
        m = gen.random_orbit_table(rng, AB, required_input_depth(sigma, out_depth))
        support_language = FactorLanguage(AB, m.depth, frozenset(support_words(m)))
        out = transfer_table(sigma, m, out_depth)
        assert support_words(out) == image_language(sigma, support_language, out_depth).words
