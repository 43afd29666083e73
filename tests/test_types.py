"""The package's types: the value semantics of the validated classes and
the fields and defaults of the records."""

import copy
import pickle

import pytest

from kabminor.extremal import ExtremalPrediction, InternalCorpus, SearchReport
from kabminor.graphs import FamilyParams, Graph
from kabminor.minors import AbPropertyReport, MinorWitness
from kabminor.spectral import PerronStats, QuotientMatrix, SpectralResult
from kabminor.verify import CheckOutcome

# (build, fields, repr): each build() makes a new, equal instance
VALUES = [
    pytest.param(lambda: Graph(3, (2, 5, 2)), (3, (2, 5, 2), None),
                 "Graph(n=3, rows=(2, 5, 2), labels=None)", id="Graph"),
    pytest.param(lambda: Graph(2, (2, 1), ("a", "b")), (2, (2, 1), ("a", "b")),
                 "Graph(n=2, rows=(2, 1), labels=('a', 'b'))", id="Graph-labels"),
    pytest.param(lambda: FamilyParams(2, 5, 18), (2, 5, 18, 3, 2, 2, 2),
                 "FamilyParams(a=2, b=5, n=18, k=3, t=2, tau=2, omega=2)", id="FamilyParams"),
    pytest.param(lambda: InternalCorpus(5, connected_only=True), (5, True),
                 "InternalCorpus(n=5, connected_only=True)", id="InternalCorpus"),
]


@pytest.mark.parametrize("build, fields, text", VALUES)
def test_validated_types_are_immutable_values(build, fields, text):
    x, y = build(), build()
    cls = type(x)
    assert tuple(getattr(x, name) for name in cls.__slots__) == fields
    # equal only to an instance of the same class with equal fields
    assert x == y and not x != y and x is not y
    assert x != fields and fields != x
    sub = type("Sub", (cls,), {})
    other = sub.__new__(sub)
    other.__setstate__(fields)
    assert x != other and other != x
    # the hash follows the fields
    assert hash(x) == hash(y) == hash(fields)
    assert len({x, y}) == 1
    assert repr(x) == text
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.other = 1
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is cls and clone == x and hash(clone) == hash(x)
        assert repr(clone) == text
        with pytest.raises(AttributeError):
            setattr(clone, cls.__slots__[0], None)


@pytest.mark.parametrize("record, fields, defaults", [
    (MinorWitness, ("verdict", "branch_sets", "expansions"), {}),
    (AbPropertyReport, ("checked_pairs", "verdicts", "overall"), {}),
    (SpectralResult, ("lam", "vector", "residual", "is_perron"), {}),
    (QuotientMatrix, ("entries", "equitable", "sizes"), {}),
    (PerronStats, ("X_M", "X_m", "lower_ok", "lower_margin", "upper_ok", "upper_margin"), {}),
    (ExtremalPrediction, ("params", "clause", "graph", "caveat"), {"caveat": ""}),
    (SearchReport, ("constraint", "corpus_source", "corpus_size", "survivors", "alpha",
                    "lambda_max", "maximizers", "prediction_clause", "prediction_graph6",
                    "prediction_agrees"),
     {"prediction_clause": None, "prediction_graph6": None, "prediction_agrees": None}),
    (CheckOutcome, ("check_id", "scope", "status", "margin", "artifacts", "notes"),
     {"margin": None, "artifacts": (), "notes": ()}),
])
def test_record_fields_and_defaults(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
