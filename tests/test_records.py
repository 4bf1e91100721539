"""The package's records: how each is built, compared, hashed and shown,
and the messages its validating constructors raise.

A record is built from positional or keyword arguments in field order.
Two records built from equal fields are equal.  The records that are
immutable are hashable and refuse assignment with an AttributeError.  A
record shows as `Name(field=value, ...)`; a census hides its category.  A
record whose constructor checks nothing is a tuple of its fields.
"""

import pytest

from orbicalc.bundles import AutGroupDescriptor, CoarseStableBundle, Framing, StableBundle
from orbicalc.corpus import corpus_group
from orbicalc.errors import ValidationError
from orbicalc.groups import SubgroupClass
from orbicalc.homs import HomClass, RepRecoveryReport
from orbicalc.localize import ArrowData, LocalizedHom, RMSVerdict, Span
from orbicalc.realreps import IsotypicPiece, RealIrrep, isotypic_decomposition, one_dim_rep
from orbicalc.rstar import Arrow, Cell, CellCensus, build_quotient_category
from orbicalc.snf import ChainComplex, HomologyDegree
from orbicalc.stablemaps import CrossCheckReport, MapGenerator, MapGroupPresentation
from orbicalc.transversality import (
    DetectorVerdict,
    IsotypicBlockReport,
    LinearChart,
    SurjectivityReport,
)

from .test_linalg import c3_rotation

C2 = corpus_group("c2")
S3 = corpus_group("s3")
TRIVIAL = one_dim_rep(C2, [1, 1])
SIGN = one_dim_rep(C2, [1 if g == C2.identity else -1 for g in range(C2.order)])
GEN = MapGenerator(0, 1, (0,), (0,))
PARTNER = MapGenerator(0, 1, (0,), (1,))
CATEGORY = build_quotient_category(2)
BLOCK = IsotypicBlockReport(0, 1, 1, 1, True)

# (record, field names, field values, frozen today)
RECORDS = [
    (SubgroupClass, ("representative", "normalizer_order", "conjugates_count"), ((0, 1), 2, 1), True),
    (HomClass, ("representative", "injective", "orbit_size", "centralizer_order"), ((0, 1), True, 1, 2), True),
    (AutGroupDescriptor, ("contributors",), ((0, 1),), True),
    (ArrowData, ("name", "src", "dst"), ("u", "a", "b"), True),
    (Span, ("w", "f"), ("ia", "u"), True),
    (RealIrrep, ("index", "real_dim", "end_type", "constituents", "char"), (0, 1, "R", (0,), (1, 1)), True),
    (Arrow, ("src", "dst", "rep"), (0, 1, (0, 1)), True),
    (Cell, ("object_names", "arrow_reps"), (("c1", "c2"), ((0,),)), True),
    (MapGroupPresentation, ("variant", "rank", "basis", "orbit_table"),
     ("rep", 1, (GEN,), ((GEN, PARTNER),)), True),
    (StableBundle, ("base", "coords"), (C2, (3, -2)), True),
    (CoarseStableBundle, ("base", "trivial_part", "coords"), (C2, 5, (0,)), True),
    (Framing, ("base", "bits"), (C2, (0, 1)), True),
    (ChainComplex, ("ranks", "columns"), ((2, 1), [None, [{0: -1, 1: 1}]]), False),
    (LinearChart, ("group", "V", "E", "alpha"), (C2, SIGN, SIGN, [[2]]), False),
    (RepRecoveryReport,
     ("total_classes", "injective_classes", "classes_by_normal", "identity_a", "identity_b"),
     (2, 1, {(0,): 1, (0, 1): 1}, True, True), False),
    (RMSVerdict, ("ok", "failures"), (False, [{"axiom": "identities", "object": "a"}]), False),
    (LocalizedHom, ("source", "target", "classes"), ("a", "b", [[Span("ia", "u")]]), False),
    (IsotypicPiece, ("irrep_index", "multiplicity", "projector"), (0, 1, [[1]]), False),
    (CellCensus, ("max_order", "max_dim", "include_isos", "category", "chains"),
     (2, 1, False, CATEGORY, [[((0,), ())], []]), False),
    (HomologyDegree, ("degree", "betti", "torsion", "reliable"), (1, 0, (2,), True), False),
    (CrossCheckReport, ("main_count", "abstract_count", "per_iso_class"), (3, 3, [(1, 3)]), False),
    (IsotypicBlockReport, ("irrep_index", "dim_v", "dim_e", "rank", "surjective"), (0, 1, 1, 1, True), False),
    (SurjectivityReport, ("consistent", "blocks", "trivial_index"), (True, [BLOCK], 0), False),
    (DetectorVerdict, ("status", "degree", "fixed_dim"), ("inconclusive", -1, 1), False),
]
IDS = [r[0].__name__ for r in RECORDS]


def test_every_record_is_listed():
    assert len(RECORDS) == len(set(IDS)) == 24


@pytest.mark.parametrize("record, names, values, frozen", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record, names, values, frozen):
    by_position = record(*values)
    by_keyword = record(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    for name, value in zip(names, values):
        # LinearChart keeps alpha in its backend's entries, which equal the input.
        assert getattr(by_position, name) == value, name


@pytest.mark.parametrize("record, names, values, frozen", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(record, names, values, frozen):
    a, b = record(*values), record(*values)
    assert a == b
    assert a is not b
    if frozen:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("record, names, values, frozen", [r for r in RECORDS if r[3]],
                         ids=[r[0].__name__ for r in RECORDS if r[3]])
def test_frozen_records_refuse_assignment(record, names, values, frozen):
    rec = record(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    assert tuple(getattr(rec, n) for n in names) == values


@pytest.mark.parametrize("record, names, values, frozen", RECORDS, ids=IDS)
def test_repr_lists_the_fields(record, names, values, frozen):
    rec = record(*values)
    shown = [n for n in names if not (record is CellCensus and n == "category")]
    fields = ", ".join(f"{n}={getattr(rec, n)!r}" for n in shown)
    assert repr(rec) == f"{record.__name__}({fields})"


def test_a_census_hides_its_category():
    census = CellCensus(2, 1, False, CATEGORY, [[((0,), ())], []])
    assert "category" not in repr(census)
    assert repr(census) == "CellCensus(max_order=2, max_dim=1, include_isos=False, chains=[[((0,), ())], []])"


def test_unequal_fields_give_unequal_records():
    assert Span("ia", "u") != Span("ia", "v")
    assert StableBundle(C2, (1, 0)) != StableBundle(C2, (0, 1))
    assert Framing(C2, (0, 1)) != Framing(C2, (1, 1))
    assert ChainComplex((1,), [None]) != ChainComplex((2,), [None])


@pytest.mark.parametrize("build, message", [
    (lambda: StableBundle(C2, (1,)), "coordinate length must match the irrep table"),
    (lambda: CoarseStableBundle(C2, 0, ()), "need one coordinate per nontrivial irrep"),
    (lambda: CoarseStableBundle(C2, 0, (-1,)), "coarsely stable coordinates must be nonnegative"),
    (lambda: Framing(C2, (0,)), "need one bit per R-type irrep"),
    (lambda: Framing(C2, (0, 2)), "framing bits live in Z/2"),
    (lambda: ChainComplex((1, 1), [None]), "1 boundaries for 2 degrees"),
    (lambda: ChainComplex((2, 2), [None, [{0: 1}]]), "boundary 1 has 1 columns, not 2"),
    (lambda: ChainComplex((2, 1), [None, [{2: 1}]]), "boundary 1 has a row outside 0..1"),
    (lambda: ChainComplex((2, 1), [None, [{-1: 1}]]), "boundary 1 has a row outside 0..1"),
    (lambda: ChainComplex((2, 1), [None, [{0: 0}]]), "boundary 1 stores a zero coefficient"),
    (lambda: ChainComplex((1, 1, 1), [None, [{0: 1}], [{0: 1}]]), "boundary squared is nonzero"),
    (lambda: LinearChart(C2, TRIVIAL, one_dim_rep(S3, [1] * S3.order), [[1]]),
     "chart pieces must share one group"),
    (lambda: LinearChart(C2, TRIVIAL, TRIVIAL, [[1, 0]]), "alpha has the wrong shape"),
    (lambda: LinearChart(C2, TRIVIAL, TRIVIAL, [[1], [0]]), "alpha has the wrong shape"),
    (lambda: LinearChart(C2, TRIVIAL, SIGN, [[1]]), "alpha is not equivariant"),
], ids=[
    "stable-length", "coarse-length", "coarse-sign", "framing-length", "framing-bit",
    "complex-degrees", "complex-columns", "complex-row-high", "complex-row-low",
    "complex-zero", "complex-square", "chart-group", "chart-columns", "chart-rows",
    "chart-equivariance",
])
def test_validating_constructors_keep_their_messages(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_a_linear_chart_keeps_its_backend_and_tolerance():
    chart = LinearChart(C2, SIGN, SIGN, [[2]])
    assert chart.tolerance == 1e-9
    assert chart.la.matrix([[2]]) == chart.alpha
    assert chart.alpha == [[2]]


def test_fixed_mode_records_compare_by_their_entries():
    # Built separately, so equality reads the float entries themselves.
    C3, V = corpus_group("c3"), c3_rotation()
    assert LinearChart(C3, V, V, [[1, 0], [0, 1]]) == LinearChart(C3, V, V, [[1, 0], [0, 1]])
    assert LinearChart(C3, V, V, [[1, 0], [0, 1]]) != LinearChart(C3, V, V, [[2, 0], [0, 2]])
    assert isotypic_decomposition(V) == isotypic_decomposition(V)


PLAIN = {StableBundle, CoarseStableBundle, Framing, ChainComplex, LinearChart}


@pytest.mark.parametrize("record, names, values, frozen", RECORDS, ids=IDS)
def test_records_without_checks_are_tuples_of_their_fields(record, names, values, frozen):
    rec = record(*values)
    if record in PLAIN:
        assert not isinstance(rec, tuple)
    else:
        assert rec == values and tuple(rec) == values and rec[0] == values[0]
