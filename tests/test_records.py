"""The ten public record types behave as the frozen dataclasses they replace.

Each record is checked against a frozen-dataclass twin with the same name and
fields: construction, equality, hashing, immutability, repr, __match_args__,
pickling and deep copies."""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction

import pytest

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

