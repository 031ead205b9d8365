"""The ten public record types behave as the frozen dataclasses they replace.

Each record is checked against a frozen-dataclass twin with the same name and
fields: construction, equality, hashing, immutability, repr, __match_args__,
pickling and deep copies.  Every record that the package builds through
_trusted equals the one its checking constructor builds from the same fields."""

import copy
import inspect
import itertools
import pickle
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmeasure import (
    Alphabet,
    FactorLanguage,
    FrequencyVector,
    IncidenceMatrix,
    MeasureTable,
    Morphism,
    SubdivisionData,
    Violation,
    ViolationReport,
    Word,
    canonical_decomposition,
    check_periodic_orbit_injectivity,
    check_period_preservation,
    compose,
    factors,
    frequency_vector,
    incidence_matrix,
    min_rotation,
    parse_morphism,
    primitive_root,
    render_morphism,
    rotations,
    subdivision_morphism,
    validate,
)

AB = Alphabet(("a", "b"))
AC = Alphabet(("a", "c"))
SIGMA = Morphism(AB, AB, (Word(AB, (0, 1)), Word(AB, (0,))))
TAU = Morphism(AB, AB, (Word(AB, (1,)), Word(AB, (0, 0))))
A, B = Word(AB, (0,)), Word(AB, (1,))


def _parts(sigma):
    d = canonical_decomposition(sigma)
    return d.subdivision_alphabet, d.pi, d.alpha


# record type -> (field names of the dataclass it was, two constructor argument tuples
# that give unequal records)
RECORDS = {
    Alphabet: (("symbols",), (("a", "b"),), (("a", "c"),)),
    Word: (("alphabet", "letters"), (AB, (0, 1)), (AB, (1, 0))),
    Morphism: (("domain", "codomain", "images"), (AB, AB, SIGMA.images), (AB, AB, TAU.images)),
    IncidenceMatrix: (("row_alphabet", "col_alphabet", "entries"),
                      (AB, AC, ((1, 1), (1, 0))), (AB, AC, ((0, 2), (1, 0)))),
    SubdivisionData: (("subdivision_alphabet", "pi", "alpha"), _parts(SIGMA), _parts(TAU)),
    MeasureTable: (("alphabet", "depth", "_weights", "total_mass"),
                   (AB, 1, {A: Fraction(1, 2), B: Fraction(1, 2)}, 1), (AB, 1, {A: 1}, 1)),
    Violation: (("kind", "word", "level", "expected", "actual"),
                ("left-extension", A, None, Fraction(1, 2), Fraction(1, 3)),
                ("level-sum", None, 2, Fraction(1), Fraction(0))),
    FrequencyVector: (("alphabet", "entries"), (AB, (Fraction(1), Fraction(0))), (AB, (0, 1))),
    ViolationReport: (("kind", "bound", "_domain", "_letters"),
                      ("period-preservation", 3, (Word(AB, (0, 1)),)),
                      ("orbit-injectivity", 3, ((A, B),))),
    FactorLanguage: (("alphabet", "maxlen", "_words"), (AB, 1, frozenset({A})),
                     (AB, 1, frozenset({A, B}))),
}
# The oracles: frozen dataclasses with each record's name and fields.
TWINS = {cls: make_dataclass(cls.__name__, fields, frozen=True)
         for cls, (fields, *_) in RECORDS.items()}


def _twin(record):
    """The record as its frozen dataclass twin would hold it."""
    return TWINS[type(record)](*[getattr(record, name) for name in RECORDS[type(record)][0]])


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:
        return TypeError, str(exc)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    fields, args, other_args = RECORDS[cls]
    record, other = cls(*args), cls(*other_args)
    keywords = dict(zip(inspect.signature(cls).parameters, args))
    same = cls(**keywords)
    twin, twin_same, twin_other = _twin(record), _twin(same), _twin(other)
    foreign = next(cls2(*a) for cls2, (_, a, _) in RECORDS.items() if cls2 is not cls)
    as_tuple = tuple(getattr(record, name) for name in fields)

    assert same is not record and type(same) is cls
    assert record == same and record != other
    for x, twin_x in [(same, twin_same), (other, twin_other), (foreign, _twin(foreign)),
                      (as_tuple, as_tuple)]:
        assert (record == x, record != x, x == record, x != record) == (
            twin == twin_x, twin != twin_x, twin_x == twin, twin_x != twin), x
    assert record.__eq__(as_tuple) is NotImplemented is twin.__eq__(as_tuple)

    assert _hash(record) == _hash(same) == _hash(twin)
    if cls is MeasureTable:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(FrozenInstanceError):
            setattr(twin, name, None)
    assert tuple(getattr(record, name) for name in fields) == as_tuple

    assert repr(record) == repr(twin) and repr(other) == repr(twin_other)
    assert cls.__match_args__ == type(twin).__match_args__ == fields

    for copied in [pickle.loads(pickle.dumps(record)), copy.deepcopy(record)]:
        assert type(copied) is cls and copied == record and repr(copied) == repr(record)
        assert _hash(copied) == _hash(record)



def test_equal_records_over_distinct_equal_objects_compare_and_hash_by_fields():
    """Equality past the identity shortcut: an Alphabet against an equal copy,
    and Words over two equal but distinct Alphabet objects."""
    copy_ab = Alphabet(("a", "b"))
    assert copy_ab is not AB and copy_ab == AB and not copy_ab != AB
    assert hash(copy_ab) == hash(AB) == hash((("a", "b"),))
    w, same = Word(AB, (0, 1)), Word(copy_ab, (0, 1))
    assert w.alphabet is not same.alphabet and w == same and not w != same
    assert hash(w) == hash(same) == hash((AB, (0, 1)))
    assert w != Word(copy_ab, (1, 0)) and w != Word(AC, (0, 1))


# The records that a _trusted build may hand out in place of a checked one.
CHECKED = (Word, Morphism, IncidenceMatrix, SubdivisionData, Violation, FrequencyVector)
ALPHABETS = st.lists(st.sampled_from(["a", "b", "c", "x.1", "y2"]), min_size=1, max_size=3,
                     unique=True).map(lambda tokens: Alphabet(tuple(tokens)))


def _words(alphabet, min_size=0, max_size=6):
    return st.lists(st.integers(0, len(alphabet) - 1), min_size=min_size, max_size=max_size).map(
        lambda letters: Word(alphabet, tuple(letters)))


def _morphisms(domain, codomain):
    return st.lists(_words(codomain, 1, 3), min_size=len(domain), max_size=len(domain)).map(
        lambda images: Morphism(domain, codomain, tuple(images)))


def _words_upto(alphabet, n):
    return [Word(alphabet, letters) for k in range(1, n + 1)
            for letters in itertools.product(range(len(alphabet)), repeat=k)]


def _fields(value):
    return value._fields() if type(value) in CHECKED else value


def _checked(value):
    """value as the checking constructors build it: each record of the CHECKED kinds, in
    it or in a tuple, rebuilt from its fields, its inner records first."""
    if type(value) is tuple:
        return tuple(_checked(x) for x in value)
    if type(value) in CHECKED:
        return type(value)(*[_checked(x) for x in value._fields()])
    return value


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_trusted_build_equals_the_checked_build_of_its_fields(data):
    a, b = data.draw(ALPHABETS), data.draw(ALPHABETS)
    sigma, tau = data.draw(_morphisms(a, b)), data.draw(_morphisms(b, a))
    w, v = data.draw(_words(a, 1)), data.draw(_words(a))
    lengths = {t: data.draw(st.integers(1, 3)) for t in a.symbols}
    weights = {u: data.draw(st.fractions(0, 2, max_denominator=3)) for u in _words_upto(a, 2)}
    table = MeasureTable(a, 2, weights, data.draw(st.fractions(0, 2, max_denominator=3)))
    bound = data.draw(st.integers(1, 4))
    report = ViolationReport("orbit-injectivity", bound, ((w, v),))
    built = {
        "primitive_root": [primitive_root(w)[0]],
        "rotations": list(rotations(w)),
        "min_rotation": [min_rotation(w)],
        "factors": list(factors(w, data.draw(st.integers(0, 7)))),
        "epsilon": [a.epsilon()],
        "+": [w + v],
        "identity": [Morphism.identity(a)],
        "compose": [compose(sigma, tau), compose(tau, sigma)],
        "incidence_matrix": [incidence_matrix(sigma)],
        "@": [incidence_matrix(sigma) @ incidence_matrix(tau)],
        "subdivision_morphism": [subdivision_morphism(a, lengths)],
        "canonical_decomposition": [canonical_decomposition(sigma)],
        "parse_morphism": [parse_morphism(render_morphism(sigma))],
        "certificates": [report.certificates, check_period_preservation(sigma, None, bound).certificates,
                         check_periodic_orbit_injectivity(sigma, None, bound).certificates],
        "validate": validate(table),
        "frequency_vector": [frequency_vector(table)],
    }
    for site, records in built.items():
        for record in records:
            checked = _checked(record)
            assert type(checked) is type(record), site
            assert [type(x) for x in _fields(checked)] == [type(x) for x in _fields(record)], site
            assert _fields(checked) == _fields(record), site
            assert checked == record and hash(checked) == hash(record), site
            assert repr(checked) == repr(record), site

