"""The argument contract of every public name, stated once.  An argument of another kind than the
one it takes is a TypeError, `<what> must be a(n) <Kind>, not <type>`; one of its kind that breaks a
rule, or is over another alphabet than the other arguments fix, is a PreconditionError; nothing else
escapes.  VALID holds one valid call per public callable, and per method the contract covers; each
test varies one argument of it and keeps the others valid."""

import ast
import functools
import inspect
import itertools
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import shiftmeasure
from shiftmeasure import (
    Alphabet, FactorLanguage, FrequencyVector, IncidenceMatrix, MeasureTable, Morphism, ParseError,
    PreconditionError, SubdivisionData, Violation, ViolationReport, Word, apply, candidate_lengths,
    characteristic_measure, check_period_preservation, complexity, compose, essential_occurrences,
    factorial_closure, factors, full_shift_language, incidence_matrix, is_proper_power, iter_words,
    linear_combination, min_rotation, parse_language, parse_measure, parse_morphism, parse_word,
    primitive_root, prolongation_split, render_language, render_measure, render_morphism,
    required_input_depth, rotations, subdivision_measure, subdivision_morphism, transfer_table,
    transfer_via_decomposition, union,
)
from shiftmeasure.words import _Record

AB, CD = Alphabet(("a", "b")), Alphabet(("c", "d"))
A, B = AB.word("a"), AB.word("b")
SIGMA = Morphism.from_images(AB, CD, {"a": "cd", "b": "c"})
ALPHA, PI = Morphism.from_images(AB, CD, {"a": "c", "b": "d"}), Morphism.identity(AB)  # letter to letter
TABLE, CD_TABLE = characteristic_measure(AB.word("aab"), 3), characteristic_measure(CD.word("cd"), 3)
LANGUAGE, CD_LANGUAGE = full_shift_language(AB, 3), full_shift_language(CD, 3)
MATRIX = incidence_matrix(SIGMA)

# Each public callable, and each method the contract covers: its name and a valid, small call.
# A method's first argument is its instance, which no test varies.
VALID = {name: (functools.reduce(getattr, name.split("."), shiftmeasure), args) for name, args in {
    "Alphabet": (("a", "b"),),
    "FactorLanguage": (AB, 2, frozenset({A})),
    "FrequencyVector": (AB, (Fraction(1), Fraction(0))),
    "IncidenceMatrix": (AB, CD, ((1, 0), (0, 1))),
    "MeasureTable": (AB, 1, {A: 1}, Fraction(1)),
    "Morphism": (AB, CD, (CD.word("c"), CD.word("dc"))),
    "SubdivisionData": (AB, PI, ALPHA),
    "Violation": ("left-extension", A, None, Fraction(1), Fraction(0)),
    "ViolationReport": ("period-preservation", 3, (AB.word("ab"),)),
    "Word": (AB, (0, 1)),
    "apply": (SIGMA, AB.word("ab")),
    "candidate_lengths": (SIGMA, 2),
    "canonical_decomposition": (SIGMA,),
    "characteristic_measure": (AB.word("ab"), 2),
    "check_period_preservation": (SIGMA, None, 3),
    "check_periodic_orbit_injectivity": (SIGMA, LANGUAGE, 2),
    "complexity": (LANGUAGE, 2),
    "compose": (SIGMA, PI),
    "count_occurrences": (AB.word("aba"), A),
    "essential_occurrences": (SIGMA, AB.word("ab"), CD.word("c")),
    "factorial_closure": (AB, [AB.word("ab")], 2),
    "factors": (AB.word("abb"), 2),
    "frequency_vector": (TABLE,),
    "full_shift_language": (AB, 2),
    "image_language": (SIGMA, LANGUAGE, 2),
    "incidence_matrix": (SIGMA,),
    "is_proper_power": (AB.word("abab"),),
    "is_rotation": (AB.word("ab"), AB.word("ba")),
    "iter_words": (AB, 2),
    "linear_combination": ([(1, TABLE), (2, TABLE)],),
    "min_rotation": (AB.word("ba"),),
    "norms": (SIGMA,),
    "parse_language": (render_language(LANGUAGE),),
    "parse_measure": (render_measure(TABLE),),
    "parse_morphism": (render_morphism(SIGMA),),
    "parse_word": (AB, "a b", False),
    "periodic_orbit_language": (AB.word("ab"), 2),
    "primitive_root": (AB.word("abab"),),
    "prolongation_split": (ALPHA, LANGUAGE, A, 1),
    "pushforward_letter_to_letter": (ALPHA, TABLE),
    "render_language": (LANGUAGE,),
    "render_measure": (TABLE,),
    "render_morphism": (SIGMA,),
    "required_input_depth": (SIGMA, 2),
    "rotations": (AB.word("ab"),),
    "subdivision_measure": ({"a": 2, "b": 1}, TABLE, 2),
    "subdivision_morphism": (AB, {"a": 2, "b": 1}),
    "support_words": (TABLE,),
    "transfer_eval": (SIGMA, TABLE, CD.word("dc")),
    "transfer_table": (SIGMA, TABLE, 2),
    "transfer_via_decomposition": (SIGMA, TABLE, 2),
    "union": (LANGUAGE, full_shift_language(AB, 2)),
    "validate": (TABLE,),
    "Word.__add__": (A, B),
    "MeasureTable.value": (TABLE, AB.word("ab")),
    "IncidenceMatrix.__matmul__": (MATRIX, incidence_matrix(PI)),
    "Morphism.from_images": (AB, CD, {"a": "cd", "b": "c"}),
    "Morphism.identity": (AB,),
}.items()}
# (row, argument, the kind of value it is given, "foreign" for the same kind over the other alphabet,
# or "*" for both): where the contract legitimately differs, and why.
EXEMPT = {
    ("check_periodic_orbit_injectivity", "language", "NoneType"): "None is the full shift over the domain",
    ("Morphism.from_images", "domain", "*"): "a token sequence is taken too, as the Alphabet of its tokens",
    ("Morphism.from_images", "codomain", "*"): "a token sequence is taken too, as the Alphabet of its tokens",
    ("Violation", "kind", "*"): "a kind is one of three names: any other value is an unknown kind",
    ("ViolationReport", "kind", "*"): "a kind is one of two names: any other value is an unknown kind",
    ("is_rotation", "w1", "foreign"): "it compares token sequences: over two alphabets they are not rotations",
    ("is_rotation", "w2", "foreign"): "it compares token sequences: over two alphabets they are not rotations",
    ("IncidenceMatrix", "row_alphabet", "foreign"): "a matrix's row and column alphabets are independent",
    ("IncidenceMatrix", "col_alphabet", "foreign"): "a matrix's row and column alphabets are independent",
    ("Morphism", "domain", "foreign"): "the images are over the codomain: the domain only fixes their number",
}
# The kinds whose arguments the type-and-alphabet test varies, and the values of other kinds it gives them.
TYPED = (Alphabet, Word, Morphism, MeasureTable, FactorLanguage, IncidenceMatrix, int, str)
OTHER_KINDS = ("t", None, 5, 2.5, True, AB, A, TABLE, LANGUAGE, SIGMA, MATRIX)


def _params(name):
    return list(inspect.signature(VALID[name][0]).parameters)


# Every (row, argument position) but a method's instance.
POSITIONS = [(name, i) for name in VALID for i, param in enumerate(_params(name)[:len(VALID[name][1])])
             if param != "self"]
TYPED_POSITIONS = [(name, i) for name, i in POSITIONS if type(VALID[name][1][i]) in TYPED]


def _ids(positions):
    return [f"{name}-{_params(name)[i]}" for name, i in positions]


def _call(name, i, x):
    """The valid call of name with its argument i replaced by x; an iterator it returns is run out."""
    call, args = VALID[name]
    result = call(*args[:i], x, *args[i + 1:])
    if isinstance(result, Iterator):
        list(result)


def _swapped(x):
    """x over the other alphabet: a b and c d exchanged letter for letter in records, containers and texts."""
    if isinstance(x, Alphabet):
        return Alphabet(tuple(map(_swapped, x.symbols)))
    if isinstance(x, str):
        return x.translate(str.maketrans("abcd", "cdab"))
    if isinstance(x, (tuple, list, frozenset)):
        return type(x)(map(_swapped, x))
    if isinstance(x, dict):
        return {_swapped(k): _swapped(v) for k, v in x.items()}
    return type(x)._trusted(*map(_swapped, x._fields())) if isinstance(x, _Record) else x


def _huge(x):
    """x with each int in it made 10**30: the same shape, declaring a huge size."""
    if type(x) is int:
        return 10**30
    if isinstance(x, (tuple, list)):
        return type(x)(map(_huge, x))
    return {k: _huge(v) for k, v in x.items()} if isinstance(x, dict) else x


INTS = st.one_of(st.integers(min_value=-3, max_value=4), st.sampled_from([10**30, -10**30]))
WORDS = st.sampled_from([alphabet.word(tokens) for alphabet in (AB, CD)
                         for n in range(4) for tokens in itertools.product(alphabet.symbols, repeat=n)])
VALUES = [x for _, args in VALID.values() for x in args]
LEAVES = st.one_of(
    INTS, st.booleans(), st.floats(min_value=-3, max_value=5), st.sampled_from([float("nan"), float("inf")]),
    st.fractions(min_value=-3, max_value=5, max_denominator=4), st.text(alphabet="ab ", max_size=3),
    st.none(), WORDS, st.sampled_from(VALUES + [_swapped(x) for x in VALUES]),
)
MIXED = st.one_of(
    LEAVES,
    st.lists(st.one_of(LEAVES, st.lists(LEAVES, max_size=2).map(tuple)), max_size=3).map(tuple),
    st.dictionaries(st.one_of(st.sampled_from("abc"), WORDS), st.one_of(INTS, st.text(alphabet="cd", max_size=2)),
                    max_size=3),
)


def test_every_public_callable_has_a_valid_call():
    public = {name for name in shiftmeasure.__all__
              if not (isinstance(obj := getattr(shiftmeasure, name), type) and issubclass(obj, Exception))}
    assert sorted(public - VALID.keys()) == []
    for call, args in VALID.values():
        call(*args)


@pytest.mark.parametrize("name, i", POSITIONS, ids=_ids(POSITIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_drawn_argument_raises_only_precondition_or_type_errors(name, i, data):
    """x is drawn from MIXED, or is the valid argument itself, over the other alphabet or declaring a huge size."""
    valid = VALID[name][1][i]
    variants = st.sampled_from([valid, _swapped(valid), _huge(valid)])
    x = data.draw(variants if data.draw(st.booleans()) else MIXED, label="x")
    with gen.deadline(2):
        try:
            _call(name, i, x)
        except (PreconditionError, TypeError):
            pass
        except ParseError:
            assert name in ("parse_language", "parse_measure", "parse_morphism")


@pytest.mark.parametrize("name, i", TYPED_POSITIONS, ids=_ids(TYPED_POSITIONS))
def test_another_kind_is_a_type_error_and_another_alphabet_a_precondition_error(name, i):
    args, param = VALID[name][1], _params(name)[i]
    kind = type(args[i])

    def exempt(label):
        return (name, param, label) in EXEMPT or (name, param, "*") in EXEMPT

    for x in OTHER_KINDS:
        if type(x) is not kind and not exempt(type(x).__name__):
            form = rf"^[\w' ]+ must be an? {kind.__name__}, not {type(x).__name__}$"
            with pytest.raises(TypeError, match=form):
                _call(name, i, x)
    foreign = _swapped(args[i])
    # Only where another argument is over an alphabet can one over the other alphabet be refused.
    if foreign != args[i] and any(_swapped(a) != a for a in args[:i] + args[i + 1:]) and not exempt("foreign"):
        with pytest.raises(PreconditionError):
            _call(name, i, foreign)


def test_linear_combination_refuses_a_term_that_is_not_a_pair():
    for terms, error in [([()], TypeError), ([(1,)], TypeError), ([(1, TABLE, 2)], TypeError),
                         ([5], TypeError), ([(1, 5)], TypeError), ([(1, TABLE), (1, LANGUAGE)], TypeError)]:
        with pytest.raises(error):
            linear_combination(terms)
    for index, term in [(0, ()), (1, (1,)), (1, (1, TABLE, 2)), (1, 5)]:
        with pytest.raises(TypeError, match=rf"^term {index} is not a \(coefficient, table\) pair$"):
            linear_combination([(1, TABLE)] * index + [term])
    assert linear_combination([[1, TABLE]]) == TABLE


@pytest.mark.parametrize("call, error, message", [
    (lambda: MeasureTable(AB, 2.5, {}, 1), TypeError, "depth must be an int, not float"),
    (lambda: MeasureTable(AB, 0, {}, 1), PreconditionError, "depth must be >= 1"),
    (lambda: required_input_depth(SIGMA, 2.5), TypeError, "output length must be an int, not float"),
    (lambda: required_input_depth(SIGMA, -1), PreconditionError, "output length must be >= 0"),
    (lambda: full_shift_language(AB, True), TypeError, "maxlen must be an int, not bool"),
    (lambda: transfer_table(SIGMA, TABLE, Fraction(2)), TypeError,
     "output depth must be an int, not Fraction"),
    (lambda: check_period_preservation(SIGMA, None, 0), PreconditionError, "bound must be >= 1"),
    (lambda: MeasureTable(AB, 2, {"a": 1}, 1), TypeError, "word must be a Word, not str"),
    (lambda: essential_occurrences(SIGMA, "a", CD.word("c")), TypeError, "word must be a Word, not str"),
    (lambda: apply(SIGMA, "ab"), TypeError, "word must be a Word, not str"),
    (lambda: apply(SIGMA, CD.word("cd")), PreconditionError, "word 'c d' is not over [a b]"),
    (lambda: apply("ab", AB.word("a")), TypeError, "morphism must be a Morphism, not str"),
    (lambda: compose(SIGMA, None), TypeError, "inner morphism must be a Morphism, not NoneType"),
    (lambda: Morphism(AB, CD, (CD.word("c"), AB.word("a"))), PreconditionError,
     "image of 'b' 'a' is not over [c d]"),
    (lambda: ViolationReport("period-preservation", 3, (5,)), TypeError, "'int' object is not iterable"),
    (lambda: transfer_table(SIGMA, "t", 2), TypeError, "table must be a MeasureTable, not str"),
    (lambda: transfer_table(SIGMA, CD_TABLE, 2), PreconditionError, "table over [c d] is not over [a b]"),
    (lambda: transfer_via_decomposition(SIGMA, CD_TABLE, 2), PreconditionError,
     "table over [c d] is not over [a b]"),
    (lambda: union(LANGUAGE, CD_LANGUAGE), PreconditionError, "language over [c d] is not over [a b]"),
    (lambda: complexity(LANGUAGE, 2.0), TypeError, "length must be an int, not float"),
    (lambda: complexity(LANGUAGE, 4), PreconditionError, "length must be <= 3"),
    (lambda: check_period_preservation(SIGMA, LANGUAGE, 0), PreconditionError, "bound must be >= 1"),
    (lambda: check_period_preservation(SIGMA, LANGUAGE, 9), PreconditionError, "bound must be <= 3"),
    (lambda: FactorLanguage(AB, 2, {"a"}), TypeError, "word must be a Word, not str"),
    (lambda: linear_combination([(1, 5)]), TypeError, "term must be a MeasureTable, not int"),
    (lambda: Word("ab", (0,)), TypeError, "alphabet must be an Alphabet, not str"),
    (lambda: MeasureTable("ab", 1, {}, 1), TypeError, "alphabet must be an Alphabet, not str"),
    (lambda: FactorLanguage("ab", 1, frozenset()), TypeError, "alphabet must be an Alphabet, not str"),
    (lambda: factorial_closure(("a", "b"), [], 1), TypeError, "alphabet must be an Alphabet, not tuple"),
    (lambda: full_shift_language("ab", 2), TypeError, "alphabet must be an Alphabet, not str"),
    (lambda: iter_words(None, 2), TypeError, "alphabet must be an Alphabet, not NoneType"),
    (lambda: Morphism("ab", CD, (CD.word("c"), CD.word("d"))), TypeError,
     "domain must be an Alphabet, not str"),
    (lambda: Morphism(AB, "cd", (CD.word("c"), CD.word("d"))), TypeError,
     "codomain must be an Alphabet, not str"),
    (lambda: subdivision_morphism("ab", {"a": 1, "b": 1}), TypeError, "alphabet must be an Alphabet, not str"),
    (lambda: IncidenceMatrix(5, AB, ()), TypeError, "row alphabet must be an Alphabet, not int"),
    (lambda: IncidenceMatrix(AB, "ab", ((1, 0), (0, 1))), TypeError,
     "column alphabet must be an Alphabet, not str"),
    (lambda: parse_word("ab", "a"), TypeError, "alphabet must be an Alphabet, not str"),
    (lambda: SubdivisionData(1, 2, 3), TypeError, "subdivision alphabet must be an Alphabet, not int"),
    (lambda: SubdivisionData(AB, PI, 3), TypeError, "alpha must be a Morphism, not int"),
    (lambda: SubdivisionData(CD, PI, ALPHA), PreconditionError,
     "pi's codomain and alpha's domain must be the subdivision alphabet"),
    (lambda: parse_word(AB, None), TypeError, "text must be a str, not NoneType"),
    (lambda: parse_measure(None), TypeError, "text must be a str, not NoneType"),
    (lambda: parse_morphism(b"a -> a"), TypeError, "text must be a str, not bytes"),
    (lambda: parse_language(["!alphabet a"]), TypeError, "text must be a str, not list"),
    (lambda: iter_words(AB, 10**30), PreconditionError, "length 1000000000000000000000000000000 is over the "
     "table budget: each word holds 1000000000000000000000000000000 letters, more than 10000000"),
    (lambda: Morphism.from_images(AB, AB, 5), TypeError, "images must be a Mapping, not int"),
    (lambda: Morphism.from_images(AB, CD, {"a": "c"}), PreconditionError,
     "missing images for letters: ['b']"),
    (lambda: Morphism.from_images(AB, CD, {"a": "c", "b": "d", "e": "c"}), PreconditionError,
     "images given for letters outside the domain: ['e']"),
    (lambda: subdivision_morphism(AB, [1, 2]), TypeError, "subdivision lengths must be a Mapping, not list"),
    (lambda: subdivision_morphism(AB, {"b": 1}), PreconditionError,
     "missing subdivision lengths for letters: ['a']"),
    (lambda: subdivision_measure({"a": 1, "b": 1, "c": 2}, TABLE, 2), PreconditionError,
     "subdivision lengths for letters outside the alphabet: ['c']"),
    (lambda: MeasureTable(AB, 1, {AB.word("a"): "x"}, 1), PreconditionError,
     "value of 'a' is not a rational: 'x'"),
    (lambda: MeasureTable(AB, 1, {}, "1/0"), PreconditionError, "total mass is not a rational: '1/0'"),
    (lambda: linear_combination([("x", TABLE)]), PreconditionError, "coefficient is not a rational: 'x'"),
    (lambda: Word(AB, (1.0,)), TypeError, "letter index must be an int, not float"),
    (lambda: Word(AB, (0, True)), TypeError, "letter index must be an int, not bool"),
    (lambda: Word(AB, ("x",)), TypeError, "letter index must be an int, not str"),
    (lambda: Word(AB, (0, 2)), PreconditionError, "letter index 2 out of range for alphabet [a b]"),
    (lambda: primitive_root("ab"), TypeError, "word must be a Word, not str"),
    (lambda: rotations("ab"), TypeError, "word must be a Word, not str"),
    (lambda: min_rotation("ab"), TypeError, "word must be a Word, not str"),
    (lambda: factors("ab", 2), TypeError, "word must be a Word, not str"),
    (lambda: is_proper_power(None), TypeError, "word must be a Word, not NoneType"),
    (lambda: Morphism.identity(5), TypeError, "alphabet must be an Alphabet, not int"),
    (lambda: MATRIX @ 5, TypeError, "matrix must be an IncidenceMatrix, not int"),
    (lambda: ViolationReport("period-preservation", "x", ()), TypeError, "bound must be an int, not str"),
    (lambda: ViolationReport("period-preservation", 0, ()), PreconditionError, "bound must be >= 1"),
    (lambda: IncidenceMatrix(AB, AB, ((1.5, 0), (0, 1))), TypeError, "entry must be an int, not float"),
    (lambda: MeasureTable(AB, 1, [1], 1), TypeError, "values must be a Mapping, not list"),
    (lambda: Violation(1, 2, 3, 4, 5), PreconditionError,
     "unknown kind 1: not left-extension, right-extension or level-sum"),
    (lambda: FrequencyVector(AB, (1,)), PreconditionError, "need one entry per letter"),
    (lambda: subdivision_morphism(AB, {"a": 10**30, "b": 1}), PreconditionError,
     "subdivision length sum 1000000000000000000000000000001 is over the token budget: the images hold "
     "1000000000000000000000000000001 letters, more than 500000"),
    (lambda: characteristic_measure(None, 2), TypeError, "word must be a Word, not NoneType"),
    (lambda: candidate_lengths(SIGMA, "x"), TypeError, "target length must be an int, not str"),
    (lambda: prolongation_split(ALPHA, LANGUAGE, "a", 1), TypeError, "word must be a Word, not str"),
    (lambda: linear_combination([(1, TABLE), (1, CD_TABLE)]), PreconditionError,
     "term over [c d] is not over [a b]"),
], ids=["float-depth", "zero-depth", "float-length", "negative-length", "bool-maxlen", "fraction-depth",
        "zero-bound", "str-key", "str-word", "str-apply", "foreign-apply",
        "str-morphism", "none-inner-morphism", "foreign-image",
        "int-certificate", "str-table", "foreign-table", "foreign-decomposition-table", "foreign-union", "float-complexity",
        "over-complexity", "zero-language-bound", "over-language-bound", "str-language-word", "int-term",
        "str-word-alphabet", "str-table-alphabet", "str-language-alphabet", "tuple-closure-alphabet",
        "str-full-shift-alphabet", "none-iter-words-alphabet", "str-domain", "str-codomain",
        "str-subdivision-alphabet", "int-row-alphabet", "str-column-alphabet", "str-parse-word-alphabet",
        "int-subdivision-data", "int-subdivision-alpha", "foreign-subdivision-alphabet",
        "none-word-text", "none-measure-text", "bytes-morphism-text", "list-language-text", "huge-iter-words",
        "int-images", "missing-image", "extra-image", "list-lengths", "missing-length", "extra-length",
        "str-value", "zero-denominator-mass", "str-coefficient", "float-letter", "bool-letter", "str-letter",
        "out-of-range-letter", "str-primitive-root", "str-rotations", "str-min-rotation", "str-factors",
        "none-proper-power", "int-identity-alphabet", "int-matrix-operand", "str-report-bound",
        "zero-report-bound", "float-matrix-entry", "list-table-values", "int-violation-kind",
        "short-frequency-entries", "huge-subdivision-length", "none-characteristic-word", "str-target-length",
        "str-prolongation-word", "foreign-term"])
def test_argument_checks_raise_one_error_form(call, error, message):
    with pytest.raises(error) as err, gen.deadline(2):
        call()
    assert str(err.value) == message


def test_a_rational_text_that_fraction_reads_is_still_a_value():
    table = MeasureTable(AB, 1, {AB.word("a"): "1/2", AB.word("b"): " 3/2 "}, "2")
    assert (table.value(AB.word("a")), table.value(AB.word("b")), table.total_mass) == (
        Fraction(1, 2), Fraction(3, 2), 2)
    assert linear_combination([("1/2", TABLE)]).total_mass == TABLE.total_mass / 2


def test_src_refuses_only_through_precondition_error():
    """Outside textio, whose readers' errors become ParseErrors, no module raises a bare
    ValueError, and the table budget is assigned in words alone."""
    raised, budgets = {}, []
    for path in sorted(Path(shiftmeasure.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.setdefault(exc.id, []).append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Name) and node.id == "TABLE_BUDGET" and isinstance(node.ctx, ast.Store):
                budgets.append(path.name)
    assert [site for site in raised["ValueError"] if not site.startswith("textio.py:")] == []
    assert len(raised["PreconditionError"]) >= 40
    assert budgets == ["words.py"]
