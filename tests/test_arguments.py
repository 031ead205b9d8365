"""The argument contract of the count, Word, letter index, table, language, alphabet, text, morphism,
letter-map and matrix operand arguments: a value of the right type that breaks a rule is a
PreconditionError, a value of the wrong type a TypeError, and nothing else escapes."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftmeasure
from shiftmeasure import (
    Alphabet,
    FactorLanguage,
    IncidenceMatrix,
    MeasureTable,
    Morphism,
    PreconditionError,
    SubdivisionData,
    ViolationReport,
    Word,
    apply,
    candidate_lengths,
    canonical_decomposition,
    characteristic_measure,
    check_period_preservation,
    check_periodic_orbit_injectivity,
    complexity,
    compose,
    count_occurrences,
    essential_occurrences,
    factorial_closure,
    factors,
    frequency_vector,
    full_shift_language,
    image_language,
    incidence_matrix,
    is_proper_power,
    is_rotation,
    iter_words,
    linear_combination,
    min_rotation,
    norms,
    parse_language,
    parse_measure,
    parse_morphism,
    parse_word,
    periodic_orbit_language,
    primitive_root,
    prolongation_split,
    pushforward_letter_to_letter,
    render_language,
    render_measure,
    render_morphism,
    required_input_depth,
    rotations,
    subdivision_measure,
    subdivision_morphism,
    support_words,
    transfer_eval,
    transfer_table,
    transfer_via_decomposition,
    union,
    validate,
)

AB = Alphabet(("a", "b"))
CD = Alphabet(("c", "d"))
SIGMA = Morphism.from_images(AB, CD, {"a": "cd", "b": "c"})
COLLAPSE = Morphism.from_images(AB, ("c",), {"a": "c", "b": "c"})
TABLE = characteristic_measure(AB.word("aab"), 3)
LANGUAGE = full_shift_language(AB, 3)
CD_TABLE = characteristic_measure(CD.word("cd"), 3)
CD_LANGUAGE = full_shift_language(CD, 3)
# A decomposition whose subdivision alphabet is AB: SIGMA's would not be over AB.
PI, ALPHA = Morphism.identity(AB), Morphism.from_images(AB, CD, {"a": "c", "b": "d"})
MATRIX = incidence_matrix(SIGMA)

# Each callable takes the one drawn argument; its other arguments are valid and small.
COUNTS = {
    "MeasureTable depth": lambda x: MeasureTable(AB, x, {}, 1),
    "characteristic_measure depth": lambda x: characteristic_measure(AB.word("ab"), x),
    "FactorLanguage maxlen": lambda x: FactorLanguage(AB, x, frozenset()),
    "factorial_closure maxlen": lambda x: factorial_closure(AB, [AB.word("ab")], x),
    "periodic_orbit_language maxlen": lambda x: periodic_orbit_language(AB.word("ab"), x),
    "full_shift_language maxlen": lambda x: full_shift_language(AB, x),
    "image_language maxlen": lambda x: image_language(SIGMA, LANGUAGE, x),
    "transfer_table output depth": lambda x: transfer_table(SIGMA, TABLE, x),
    "subdivision_measure output depth": lambda x: subdivision_measure({"a": 2, "b": 1}, TABLE, x),
    "required_input_depth output length": lambda x: required_input_depth(SIGMA, x),
    "subdivision_morphism length": lambda x: subdivision_morphism(AB, {"a": x, "b": 1}),
    "check_period_preservation bound": lambda x: check_period_preservation(SIGMA, None, x),
    "check_period_preservation language bound": lambda x: check_period_preservation(SIGMA, LANGUAGE, x),
    "complexity length": lambda x: complexity(LANGUAGE, x),
    "prolongation_split length": lambda x: prolongation_split(COLLAPSE, LANGUAGE, AB.word("a"), x),
    "factors bound": lambda x: factors(AB.word("abb"), x),
    "iter_words length": lambda x: list(iter_words(AB, x)),
    "ViolationReport bound": lambda x: ViolationReport("period-preservation", x, ()),
}
WORDS = {
    "Word.__add__": lambda x: AB.word("a") + x,
    "count_occurrences word": lambda x: count_occurrences(x, AB.word("a")),
    "count_occurrences pattern": lambda x: count_occurrences(AB.word("ab"), x),
    "MeasureTable key": lambda x: MeasureTable(AB, 2, {x: 1}, 1),
    "MeasureTable.value": lambda x: TABLE.value(x),
    "Morphism image": lambda x: Morphism(AB, CD, (x, CD.word("c"))),
    "apply": lambda x: apply(SIGMA, x),
    "essential_occurrences word": lambda x: essential_occurrences(SIGMA, x, CD.word("c")),
    "essential_occurrences target": lambda x: essential_occurrences(SIGMA, AB.word("ab"), x),
    "transfer_eval target": lambda x: transfer_eval(SIGMA, TABLE, x),
    "factorial_closure word": lambda x: factorial_closure(AB, [AB.word("a"), x], 2),
    "ViolationReport period certificate": lambda x: ViolationReport("period-preservation", 3, (x,)),
    "ViolationReport orbit item": lambda x: ViolationReport("orbit-injectivity", 3, ((AB.word("a"), x),)),
    "primitive_root": primitive_root,
    "is_proper_power": is_proper_power,
    "rotations": rotations,  # not consumed: a wrong word is refused at the call
    "min_rotation": min_rotation,
    "factors word": lambda x: factors(x, 2),
    "is_rotation": lambda x: is_rotation(x, AB.word("ab")),
    "periodic_orbit_language word": lambda x: periodic_orbit_language(x, 2),
}
MAPPINGS = {
    "Morphism.from_images images": lambda x: Morphism.from_images(AB, CD, x),
    "subdivision_morphism lengths": lambda x: subdivision_morphism(AB, x),
    "subdivision_measure lengths": lambda x: subdivision_measure(x, TABLE, 2),
}
# Word's letter indices: one index, and the whole letters argument.
LETTERS = {
    "Word letter": lambda x: Word(AB, (x,)),
    "Word letters": lambda x: Word(AB, x),
}
# The operand of IncidenceMatrix's @.
OPERANDS = {
    "IncidenceMatrix @": lambda x: MATRIX @ x,
}
CALLS = {**COUNTS, **WORDS, **MAPPINGS, **LETTERS, **OPERANDS}
# Each table or language argument: (its type, the alphabet it must be over or None for any, the call).
RECORDS = {
    "transfer_eval table": (MeasureTable, AB, lambda x: transfer_eval(SIGMA, x, CD.word("c"))),
    "transfer_table table": (MeasureTable, AB, lambda x: transfer_table(SIGMA, x, 2)),
    "transfer_via_decomposition table": (MeasureTable, AB, lambda x: transfer_via_decomposition(SIGMA, x, 2)),
    "pushforward_letter_to_letter table": (
        MeasureTable, AB, lambda x: pushforward_letter_to_letter(COLLAPSE, x)),
    # The lengths fix the alphabet: a foreign table misses its lengths.
    "subdivision_measure table": (MeasureTable, AB, lambda x: subdivision_measure({"a": 2, "b": 1}, x, 2)),
    "linear_combination term": (MeasureTable, AB, lambda x: linear_combination([(1, TABLE), (2, x)])),
    "validate table": (MeasureTable, None, validate),
    "frequency_vector table": (MeasureTable, None, frequency_vector),
    "support_words table": (MeasureTable, None, support_words),
    "render_measure table": (MeasureTable, None, render_measure),
    "image_language language": (FactorLanguage, AB, lambda x: image_language(SIGMA, x, 2)),
    "union first": (FactorLanguage, AB, lambda x: union(x, LANGUAGE)),
    "union second": (FactorLanguage, AB, lambda x: union(LANGUAGE, x)),
    "check_period_preservation language": (
        FactorLanguage, AB, lambda x: check_period_preservation(SIGMA, x, 2)),
    "check_periodic_orbit_injectivity language": (
        FactorLanguage, AB, lambda x: check_periodic_orbit_injectivity(SIGMA, x, 2)),
    "prolongation_split language": (
        FactorLanguage, AB, lambda x: prolongation_split(COLLAPSE, x, AB.word("a"), 1)),
    "complexity language": (FactorLanguage, None, lambda x: complexity(x, 2)),
    "render_language language": (FactorLanguage, None, render_language),
}
# Each alphabet argument; the other arguments are valid and small, and over AB where it is.
ALPHABETS = {
    "Word alphabet": lambda x: Word(x, (0,)),
    "MeasureTable alphabet": lambda x: MeasureTable(x, 1, {}, 1),
    "FactorLanguage alphabet": lambda x: FactorLanguage(x, 1, frozenset()),
    "factorial_closure alphabet": lambda x: factorial_closure(x, [AB.word("ab")], 2),
    "full_shift_language alphabet": lambda x: full_shift_language(x, 2),
    "iter_words alphabet": lambda x: list(iter_words(x, 2)),
    "Morphism domain": lambda x: Morphism(x, CD, (CD.word("c"), CD.word("dc"))),
    "Morphism codomain": lambda x: Morphism(AB, x, (AB.word("a"), AB.word("ba"))),
    "subdivision_morphism alphabet": lambda x: subdivision_morphism(x, {"a": 2, "b": 1}),
    "IncidenceMatrix row alphabet": lambda x: IncidenceMatrix(x, CD, ((1, 0), (0, 1))),
    "IncidenceMatrix column alphabet": lambda x: IncidenceMatrix(AB, x, ((1, 0), (0, 1))),
    "parse_word alphabet": lambda x: parse_word(x, "a b"),
    "SubdivisionData subdivision alphabet": lambda x: SubdivisionData(x, PI, ALPHA),
    "Morphism.identity alphabet": Morphism.identity,
}
# Each Morphism argument: (a morphism the call accepts, the call); the other arguments are valid and small.
MORPHISMS = {
    "apply": (SIGMA, lambda x: apply(x, AB.word("ab"))),
    "compose outer": (SIGMA, lambda x: compose(x, Morphism.identity(AB))),
    "compose inner": (SIGMA, lambda x: compose(Morphism.identity(CD), x)),
    "incidence_matrix": (SIGMA, incidence_matrix),
    "norms": (SIGMA, norms),
    "required_input_depth": (SIGMA, lambda x: required_input_depth(x, 1)),
    "canonical_decomposition": (SIGMA, canonical_decomposition),
    "essential_occurrences": (SIGMA, lambda x: essential_occurrences(x, AB.word("ab"), CD.word("c"))),
    "candidate_lengths": (SIGMA, lambda x: candidate_lengths(x, 2)),
    "transfer_eval": (SIGMA, lambda x: transfer_eval(x, TABLE, CD.word("dc"))),
    "transfer_table": (SIGMA, lambda x: transfer_table(x, TABLE, 2)),
    "transfer_via_decomposition": (SIGMA, lambda x: transfer_via_decomposition(x, TABLE, 2)),
    "pushforward_letter_to_letter": (COLLAPSE, lambda x: pushforward_letter_to_letter(x, TABLE)),
    "image_language": (SIGMA, lambda x: image_language(x, LANGUAGE, 2)),
    "check_period_preservation": (SIGMA, lambda x: check_period_preservation(x, None, 3)),
    "check_periodic_orbit_injectivity": (SIGMA, lambda x: check_periodic_orbit_injectivity(x, LANGUAGE, 2)),
    "prolongation_split": (COLLAPSE, lambda x: prolongation_split(x, LANGUAGE, AB.word("a"), 1)),
    "render_morphism": (SIGMA, render_morphism),
    "SubdivisionData pi": (PI, lambda x: SubdivisionData(AB, x, ALPHA)),
    "SubdivisionData alpha": (ALPHA, lambda x: SubdivisionData(AB, PI, x)),
}

SMALL_WORDS = st.sampled_from([AB, CD]).flatmap(
    lambda alphabet: st.lists(st.sampled_from(alphabet.symbols), max_size=3).map(alphabet.word))
MIXED = st.one_of(
    st.integers(min_value=-3, max_value=4),
    st.booleans(),
    st.floats(min_value=-3, max_value=5),
    st.sampled_from([float("nan"), float("inf")]),
    st.fractions(min_value=-3, max_value=5, max_denominator=4),
    st.text(alphabet="ab ", max_size=3),
    st.none(),
    st.lists(st.one_of(st.integers(min_value=-1, max_value=2), st.sampled_from("ab"), SMALL_WORDS),
             max_size=3).map(tuple),
    SMALL_WORDS,
    st.dictionaries(st.sampled_from("abc"), st.one_of(st.integers(min_value=-1, max_value=3),
                                                       st.text(alphabet="cd", max_size=2)), max_size=3),
)


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=40, deadline=None)
@given(MIXED)
def test_a_count_or_word_argument_raises_only_value_or_type_errors(name, x):
    try:
        CALLS[name](x)
    except (PreconditionError, TypeError):
        pass


@pytest.mark.parametrize("name", RECORDS)
@settings(max_examples=40, deadline=None)
@given(st.one_of(MIXED, st.sampled_from([TABLE, CD_TABLE, LANGUAGE, CD_LANGUAGE])))
def test_a_table_or_language_argument_raises_only_value_or_type_errors(name, x):
    try:
        RECORDS[name][2](x)
    except (PreconditionError, TypeError):
        pass


@pytest.mark.parametrize("name", ALPHABETS)
@settings(max_examples=40, deadline=None)
@given(st.one_of(MIXED, st.sampled_from([AB, CD, TABLE, LANGUAGE])))
def test_an_alphabet_argument_raises_only_value_or_type_errors(name, x):
    try:
        ALPHABETS[name](x)
    except (PreconditionError, TypeError):
        pass


@pytest.mark.parametrize("name", MORPHISMS)
@settings(max_examples=40, deadline=None)
@given(st.one_of(MIXED, st.sampled_from([SIGMA, COLLAPSE, AB, TABLE, LANGUAGE])))
def test_a_morphism_argument_raises_only_value_or_type_errors(name, x):
    try:
        MORPHISMS[name][1](x)
    except (PreconditionError, TypeError):
        pass


@pytest.mark.parametrize("name", MORPHISMS)
def test_a_morphism_argument_is_refused_by_type(name):
    right, call = MORPHISMS[name]
    call(right)
    for x in ("t", None, 5, AB, AB.word("a"), TABLE, LANGUAGE):
        with pytest.raises(TypeError, match=" must be a Morphism, not "):
            call(x)


@pytest.mark.parametrize("name", ALPHABETS)
def test_an_alphabet_argument_is_refused_by_type(name):
    call = ALPHABETS[name]
    call(AB)
    for x in ("t", None, 5, AB.word("a"), TABLE):
        with pytest.raises(TypeError, match=" must be an Alphabet, not "):
            call(x)


@pytest.mark.parametrize("name", RECORDS)
def test_a_table_or_language_argument_is_refused_by_type_and_by_alphabet(name):
    kind, alphabet, call = RECORDS[name]
    right, wrong = (TABLE, LANGUAGE) if kind is MeasureTable else (LANGUAGE, TABLE)
    call(right)
    for x in ("t", None, 5, AB.word("a"), wrong):
        if x is None and "check" in name:
            continue  # no language is the full shift
        with pytest.raises(TypeError):
            call(x)
    foreign = CD_TABLE if kind is MeasureTable else CD_LANGUAGE
    if alphabet is None:
        call(foreign)
    else:
        with pytest.raises(PreconditionError):
            call(foreign)


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
        "zero-report-bound", "float-matrix-entry", "list-table-values"])
def test_argument_checks_raise_one_error_form(call, error, message):
    with pytest.raises(error) as err:
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
