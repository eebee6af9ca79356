"""The contract of the frozen value classes: equal and hashed by their
fields, unequal across classes, immutable, a repr naming every field,
positional, keyword and default construction, and cached properties
computed once per object."""

import importlib
import pkgutil
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import pytest

from coeff_oracle import (fraction_branch_coeff, fraction_class_gamma,
                          fraction_quotient_coeffs)

import germcalc
from germcalc import cli, dualgraph, germs
from germcalc._record import FrozenRecord, memoized
from germcalc.cli import GermFile
from germcalc.dualgraph import BoundaryBranch, ResolutionGraph
from germcalc.errors import BadParameters, NotApplicable, ValidationError
from germcalc.germs import (ClassGroup, CyclicQuotientGerm, GermClass, GermTag,
                            NonNormalGerm, Trichotomy, hj_expand)
from germcalc.residue import (ResidueReport, ResidueTable, find_failure_m,
                              glued_restriction_coeff)
from germcalc.stdcoeff import CoeffCheck, coeff_check

HALF = Fraction(1, 2)
GERM = CyclicQuotientGerm(5, 2, Fraction(1), HALF)
GRAPH = ResolutionGraph((2, 2), frozenset({(0, 1)}), (BoundaryBranch(0, Fraction(1)),))

# class, its constructor's parameter names in order, the positional
# arguments of one record, those of a record that differs from it in one
# argument, and how many arguments may be left out for their defaults
# (the tail of the first record's). Each argument is stored as the field
# of its name.
RECORDS = [
    (BoundaryBranch, "attach coeff", (0, HALF), (1, HALF), 0),
    (ResolutionGraph, "selfints edges branches", ((2, 2), frozenset({(0, 1)}), ()),
     ((2, 3), frozenset({(0, 1)}), ()), 1),
    (CyclicQuotientGerm, "n q conductor_coeff side_coeff",
     (5, 2, Fraction(1), Fraction(0)), (5, 3, Fraction(1), Fraction(0)), 2),
    (GermClass, "tag cartier_index gamma violation",
     (GermTag.DIHEDRAL_31, 2, None, None), (GermTag.DIHEDRAL_31, 1, None, None), 2),
    (NonNormalGerm, "components trichotomy cartier_index",
     ((GERM,), Trichotomy.LC_CENTER_CASE, None),
     ((GERM, GERM), Trichotomy.LC_CENTER_CASE, None), 1),
    (ResidueReport, "m source_exponent target_exponent", (3, 1, 2), (3, 1, 3), 0),
    (ResidueTable, "p n m_max", (1, 10, 24), (1, 10, 6), 0),
    (CoeffCheck, "c m", (HALF, 2), (HALF, 3), 0),
    (GermFile, "germ graph parts payload",
     (None, None, (), None), (GERM, None, (), None), 4),
]
IDS = [case[0].__name__ for case in RECORDS]
# the fields that __init__ computes from its arguments, stored after
# them, with their values in the first record of RECORDS
DERIVED = {
    ResidueReport: {"surjective": True, "deficit": 0},
    CoeffCheck: {"standard": True, "hypothesis_ok": True, "bracket_ok": True},
}


@pytest.fixture(params=RECORDS, ids=IDS)
def case(request):
    cls, params, args, other, defaults = request.param
    return cls, tuple(params.split()), args, other, defaults


def stored(cls, params, args):
    """The field names of the first record of cls and their values: its
    arguments, then what __init__ computes from them."""
    derived = DERIVED.get(cls, {})
    return params + tuple(derived), args + tuple(derived.values())


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_of_the_package_is_listed():
    for module in pkgutil.iter_modules(germcalc.__path__):
        importlib.import_module(f"germcalc.{module.name}")
    defined = {cls for cls in _subclasses(FrozenRecord)
               if cls.__module__.partition(".")[0] == "germcalc"}
    assert defined == {case[0] for case in RECORDS}


def test_construction_stores_exactly_the_fields(case):
    # the arguments, each once, besides what __init__ derives or caches
    cls, params, args, _, _ = case
    rec = cls(*args)
    cached = {name for name, attr in vars(cls).items() if isinstance(attr, cached_property)}
    derived = {"_adj", "_tree"} if cls is ResolutionGraph else set(DERIVED.get(cls, ()))
    assert set(vars(rec)) - cached - derived == set(params)
    assert [vars(rec)[name] for name in params] == list(args)
    assert cls._fields == stored(cls, params, args)[0]


def test_records_with_equal_fields_are_equal_and_hash_equal(case):
    cls, _, args, other, _ = case
    rec, twin = cls(*args), cls(*args)
    assert rec is not twin
    assert rec == twin and not rec != twin
    assert hash(rec) == hash(twin)
    assert rec != cls(*other) and not rec == cls(*other)
    assert len({rec, twin, cls(*other)}) == 2


def test_records_of_different_classes_are_unequal(case):
    cls, _, args, _, _ = case
    rec = cls(*args)
    assert rec != args and rec != list(args)
    for other_cls, _, other_args, _, _ in RECORDS:
        if other_cls is not cls:
            assert rec != other_cls(*other_args)
            assert rec.__eq__(other_cls(*other_args)) is NotImplemented


def test_a_subclass_record_is_not_equal_to_its_base():
    class Branch(BoundaryBranch):
        pass

    assert Branch(0, HALF) != BoundaryBranch(0, HALF)
    assert Branch(0, HALF) == Branch(0, HALF)


def test_records_refuse_assignment_and_deletion(case):
    cls, params, args, _, _ = case
    rec = cls(*args)
    fields, _ = stored(cls, params, args)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == cls(*args)
    assert "extra" not in vars(rec)


def test_the_repr_names_every_field(case):
    cls, params, args, _, _ = case
    rec = cls(*args)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(*stored(cls, params, args)))
    assert repr(rec) == f"{cls.__qualname__}({shown})"


def test_the_repr_of_a_branch():
    assert repr(BoundaryBranch(0, HALF)) == "BoundaryBranch(attach=0, coeff=Fraction(1, 2))"


def test_positional_keyword_and_default_construction_agree(case):
    cls, params, args, _, defaults = case
    rec = cls(*args)
    fields, values = stored(cls, params, args)
    assert tuple(getattr(rec, name) for name in fields) == values
    assert cls(**dict(zip(params, args))) == rec
    assert cls(*args[:len(args) - defaults]) == rec


# the records that the constructors took, field by field, before they
# computed the last fields: each contradicts itself, and none can be built
@pytest.mark.parametrize("make", [
    lambda: CoeffCheck(HALF, 2, False, False, False),
    lambda: ResidueReport(3, 1, 1, True, 0),
    lambda: NonNormalGerm((GERM,), Trichotomy.ONE_COMPONENT_PLT, ClassGroup.RANK_ONE, None),
], ids=["CoeffCheck", "ResidueReport", "NonNormalGerm"])
def test_a_computed_field_is_no_argument(make):
    with pytest.raises(TypeError):
        make()


def test_a_record_computes_its_last_fields():
    assert CoeffCheck(HALF, 2).standard is True
    assert CoeffCheck(HALF, 2) == coeff_check(HALF, 2)
    low = CoeffCheck(Fraction(1, 3), 2)
    assert (low.standard, low.hypothesis_ok, low.bracket_ok) == (False, False, False)
    report = ResidueReport(4, 1, 4)
    assert (report.surjective, report.deficit) == (False, 1)
    with pytest.raises(BadParameters, match=r"^negative deficit$"):
        ResidueReport(3, 1, 1)


def test_construction_normalises_and_checks_its_fields():
    graph = ResolutionGraph([2, 2], [(1, 0)], [BoundaryBranch(0, 1)])
    assert graph == GRAPH
    assert graph.edges == frozenset({(0, 1)}) and type(graph.branches) is tuple
    germ = CyclicQuotientGerm(n=5, q=2, side_coeff=HALF)
    assert germ == GERM and type(germ.conductor_coeff) is Fraction
    assert NonNormalGerm([GERM], Trichotomy.ONE_COMPONENT_PLT).components == (GERM,)
    with pytest.raises(BadParameters):
        CyclicQuotientGerm(5, 5)
    with pytest.raises(ValidationError):
        BoundaryBranch(0, 2)


def test_an_int_number_is_stored_as_a_fraction():
    # as_fraction's value is the one stored, as in BoundaryBranch and
    # CyclicQuotientGerm: every number is a Fraction
    gamma = GermClass(GermTag.PLT_CHAIN, 1, 1).gamma
    assert gamma == 1 and type(gamma) is Fraction
    c = coeff_check(1, 2).c
    assert c == 1 and type(c) is Fraction


# values at and around 0 and 1, then each one as a Fraction, as an int
# when it is one, and as text for the records that take text
EDGES = [Fraction(-1), Fraction(-1, 2), Fraction(-1, 10**30), Fraction(0),
         Fraction(1, 10**30), HALF, Fraction(10**30 - 1, 10**30), Fraction(1),
         Fraction(10**30 + 1, 10**30), Fraction(3, 2), Fraction(2)]
NUMBERS = EDGES + [int(v) for v in EDGES if v.denominator == 1]
GIVEN = NUMBERS + [str(v) for v in EDGES]


def outcome(make):
    """The values that make() returns, with the type of each, or the
    type and text of what it raises."""
    try:
        values = make()
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "returns", values, tuple(map(type, values))


def quotient_coeffs(*args):
    germ = CyclicQuotientGerm(*args)
    return germ.conductor_coeff, germ.side_coeff


@pytest.mark.parametrize("coeff", GIVEN, ids=repr)
def test_a_branch_refuses_what_the_fraction_check_refused(coeff):
    assert (outcome(lambda: (BoundaryBranch(0, coeff).coeff,))
            == outcome(lambda: (fraction_branch_coeff(coeff),)))


@pytest.mark.parametrize("n, q", [(5, 2), (1, 1), (0, 1), (4, 6), (3, 3)])
def test_a_quotient_germ_refuses_what_the_fraction_checks_refused(n, q):
    for conductor in GIVEN:
        for side in GIVEN:
            assert (outcome(lambda: quotient_coeffs(n, q, conductor, side))
                    == outcome(lambda: fraction_quotient_coeffs(n, q, conductor, side)))


@pytest.mark.parametrize("tag", [GermTag.PLT_CHAIN, GermTag.DIHEDRAL_31,
                                 GermTag.UNCLASSIFIED])
def test_a_germ_class_refuses_what_the_fraction_check_refused(tag):
    for index in (1, 2, 3):
        for gamma in NUMBERS + [None]:
            assert (outcome(lambda: (GermClass(tag, index, gamma).gamma,))
                    == outcome(lambda: (fraction_class_gamma(tag, index, gamma),)))


# every value that is neither an int nor a Fraction where the library
# takes one, or that is not an int where it takes an int: each call
# raises its entry point's own GermError, never a TypeError or an
# AttributeError, and no float reaches the arithmetic
@pytest.mark.parametrize("make, error, message", [
    (lambda: ResolutionGraph.chain([2.7, 2], [(0, 1)]), ValidationError,
     "self-intersection label 2.7 is not an integer"),
    (lambda: ResolutionGraph.chain(["3", 2], [(0, 1)]), ValidationError,
     "self-intersection label '3' is not an integer"),
    (lambda: ResolutionGraph.chain([0, "x"]), ValidationError,
     "self-intersection label 0 must be >= 1"),
    (lambda: ResolutionGraph((2, 2), [(0, 1)], [BoundaryBranch(0.5, Fraction(1))]),
     ValidationError, "branch attach index 0.5 out of range"),
    (lambda: ResolutionGraph((2, 2), [(0, 1)], [BoundaryBranch("1", Fraction(1))]),
     ValidationError, "branch attach index '1' out of range"),
    (lambda: BoundaryBranch(0, 0.1), ValidationError,
     "branch coefficient 0.1 is not an integer or a Fraction"),
    (lambda: BoundaryBranch(0, "1/2"), ValidationError,
     "branch coefficient '1/2' is not an integer or a Fraction"),
    (lambda: CyclicQuotientGerm(5, 2, side_coeff=0.5), BadParameters,
     "side coefficient 0.5 is not an integer or a Fraction"),
    (lambda: CyclicQuotientGerm(5, 2, Decimal(1)), BadParameters,
     "conductor coefficient Decimal('1') is not an integer or a Fraction"),
    (lambda: CyclicQuotientGerm(5.0, 2), BadParameters,
     "order n = 5.0 and weight q = 2 must be integers"),
    (lambda: hj_expand(5.0, 2), BadParameters,
     "order n = 5.0 and weight q = 2 must be integers"),
    (lambda: hj_expand(5, Fraction(2)), BadParameters,
     "order n = 5 and weight q = Fraction(2, 1) must be integers"),
    (lambda: find_failure_m([Fraction(1, 2), 0.25]), BadParameters,
     "coefficient 0.25 is not an integer or a Fraction"),
    (lambda: coeff_check(0.5, 2), BadParameters,
     "coefficient 0.5 is not an integer or a Fraction"),
    (lambda: coeff_check(Fraction(1, 2), 2.5), BadParameters, "m = 2.5 is not an integer"),
    (lambda: glued_restriction_coeff(2, 3, 0.5), BadParameters,
     "coefficient 0.5 is not an integer or a Fraction"),
    (lambda: glued_restriction_coeff(2.5, 3, HALF), BadParameters,
     "m = 2.5 and n = 3 must be integers"),
    (lambda: GermClass(GermTag.PLT_CHAIN, 2, 0.5), BadParameters,
     "gamma 0.5 is not an integer or a Fraction"),
    (lambda: GermClass(GermTag.PLT_CHAIN, 2.5, HALF), BadParameters,
     "Cartier index 2.5 is not an integer >= 1"),
    (lambda: GermClass(GermTag.DIHEDRAL_31, "2"), BadParameters,
     "Cartier index '2' is not an integer >= 1"),
    (lambda: GermClass(GermTag.DIHEDRAL_31, 0), BadParameters,
     "Cartier index 0 is not an integer >= 1"),
    (lambda: NonNormalGerm((GERM,), Trichotomy.LC_CENTER_CASE, cartier_index=0.5),
     BadParameters, "Cartier index 0.5 is not an integer >= 1"),
    (lambda: ResidueTable(0.5, 1, 3), BadParameters,
     "p = 0.5, n = 1 and m_max = 3 must be integers"),
    (lambda: ResidueTable(1, 3, 2.5), BadParameters,
     "p = 1, n = 3 and m_max = 2.5 must be integers"),
    (lambda: ResidueTable(True, 2, 3), BadParameters,
     "p = True, n = 2 and m_max = 3 must be integers"),
    (lambda: ResidueTable(1, True, 3), BadParameters,
     "p = 1, n = True and m_max = 3 must be integers"),
    (lambda: ResidueTable(1, 2, False), BadParameters,
     "p = 1, n = 2 and m_max = False must be integers"),
    (lambda: CyclicQuotientGerm(3, True), BadParameters,
     "order n = 3 and weight q = True must be integers"),
    (lambda: hj_expand(True, 1), BadParameters,
     "order n = True and weight q = 1 must be integers"),
    (lambda: GermClass(GermTag.PLT_CHAIN, True, HALF), BadParameters,
     "Cartier index True is not an integer >= 1"),
    (lambda: NonNormalGerm((GERM,), Trichotomy.LC_CENTER_CASE, cartier_index=True),
     BadParameters, "Cartier index True is not an integer >= 1"),
    (lambda: ResolutionGraph((2, 2), [(0, 1)], [BoundaryBranch(True, Fraction(1))]),
     ValidationError, "branch attach index True out of range"),
    (lambda: BoundaryBranch(0, True), ValidationError,
     "branch coefficient True is not an integer or a Fraction"),
    (lambda: coeff_check(True, 2), BadParameters,
     "coefficient True is not an integer or a Fraction"),
    (lambda: coeff_check(HALF, True), BadParameters, "m = True is not an integer"),
    (lambda: glued_restriction_coeff(2, True, HALF), BadParameters,
     "m = 2 and n = True must be integers"),
    (lambda: ResolutionGraph.chain([2, 2]).with_fork(True, 2), ValidationError,
     "fork attach index True out of range 0..1"),
    (lambda: ResolutionGraph.chain([2, 2]).with_fork("1", 2), ValidationError,
     "fork attach index '1' out of range 0..1"),
    (lambda: ResolutionGraph.chain([2, 2]).with_fork(0.5, 2), ValidationError,
     "fork attach index 0.5 out of range 0..1"),
], ids=["label float", "label str", "label below 1 first", "attach float",
        "attach str", "branch float", "branch str", "side float",
        "conductor Decimal", "order float", "hj_expand float", "hj_expand Fraction",
        "failure_m float", "coeff_check float", "coeff_check m float",
        "glue coefficient float",
        "glue m float", "germ class gamma float", "germ class index float",
        "germ class index str", "germ class index 0", "non-normal index float",
        "residue table slope float", "residue table m_max float",
        "residue table slope bool", "residue table order bool",
        "residue table m_max bool", "weight bool", "hj_expand bool",
        "germ class index bool", "non-normal index bool", "attach bool",
        "branch bool", "coeff_check bool", "coeff_check m bool", "glue n bool",
        "fork attach bool", "fork attach str", "fork attach float"])
def test_a_value_that_is_not_exact_is_refused_by_a_germ_error(make, error, message):
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_bool_label_is_stored_as_an_int():
    # operator.index reads each label, so True is stored as the int 1
    graph = ResolutionGraph.chain([True, 2], [(1, 1)])
    assert graph.selfints == (1, 2) and type(graph.selfints[0]) is int
    assert type(graph.with_fork(0, True).selfints[2]) is int


def test_a_residue_table_of_negative_length_is_refused():
    with pytest.raises(BadParameters, match=r"^m_max = -5 must be >= 0$"):
        ResidueTable(1, 2, -5)
    # the slope is checked first
    with pytest.raises(BadParameters, match=r"^slope 3/2 outside \[0, 1\]$"):
        ResidueTable(3, 2, -5)
    assert ResidueTable(1, 2, 0).m_max == 0


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("make, prop, module, function", [
    (lambda: ResolutionGraph.chain([2, 2], [(0, 1)]), "_elimination",
     dualgraph, "_eliminate"),
    (lambda: CyclicQuotientGerm(5, 2, 1, HALF), "_graph", germs, "hj_expand"),
    (lambda: GermFile(graph=ResolutionGraph.chain([2, 2], [(0, 1)])),
     "classification", cli, "classify_lc_germ"),
], ids=["ResolutionGraph", "CyclicQuotientGerm", "GermFile"])
def test_a_cached_property_is_computed_once(monkeypatch, make, prop, module, function):
    calls = _counting(monkeypatch, module, function)
    rec = make()
    first = getattr(rec, prop)
    assert getattr(rec, prop) is first
    assert vars(rec)[prop] is first
    assert len(calls) == 1
    # the cached value is no field: it leaves equality and the repr alone
    assert rec == make() and prop not in repr(rec)


# the per-object analyses, each stored by memoized on its first read
ANALYSES = {
    GermFile: ("discrepancy", "classification", "modification"),
    CyclicQuotientGerm: ("gamma", "classification", "_graph"),
    ResolutionGraph: ("_elimination", "_lc_class", "_cartier_index"),
}


def test_every_analysis_is_memoized():
    for cls, names in ANALYSES.items():
        cached = {name for name, attr in vars(cls).items() if isinstance(attr, cached_property)}
        assert cached == set(names)
        for name in names:
            assert type(vars(cls)[name]) is memoized
            # read on the class, the descriptor is itself
            assert getattr(cls, name) is vars(cls)[name]


def _counted(monkeypatch, cls, name):
    """The calls of the function behind cls's memoized analysis name."""
    calls = []
    descriptor = vars(cls)[name]
    original = descriptor.func

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(descriptor, "func", counting)
    return calls


class _Refused:
    def __enter__(self):
        raise AssertionError("memoized took the lock")

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("cls, name", [(cls, name) for cls, names in ANALYSES.items()
                                       for name in names])
def test_a_memoized_analysis_takes_no_lock_and_runs_once(monkeypatch, cls, name):
    # cached_property keeps an RLock in .lock before Python 3.12 and takes
    # it on each first read; memoized never touches one
    monkeypatch.setattr(vars(cls)[name], "lock", _Refused(), raising=False)
    calls = _counted(monkeypatch, cls, name)
    rec = {GermFile: lambda: cli.parse_germ_file(
               '{"kind": "cyclic_quotient", "n": 5, "q": 2, "side": "1/2"}'),
           CyclicQuotientGerm: lambda: CyclicQuotientGerm(5, 2, 1, HALF),
           ResolutionGraph: lambda: ResolutionGraph.chain([2, 2], [(0, 1)])}[cls]()
    first = getattr(rec, name)
    assert getattr(rec, name) is first and vars(rec)[name] is first
    assert calls == [rec]


@pytest.mark.parametrize("make, cls, name", [
    # no coefficient-1 branch: the germ is klt, so classify is not applicable
    (lambda: GermFile(graph=ResolutionGraph.chain([2, 2], [(0, HALF)])),
     GermFile, "classification"),
    # b = 3/2 > 1 on the one curve: not log canonical, so no Cartier index
    (lambda: ResolutionGraph.chain([2], [(0, 1)] * 3), ResolutionGraph, "_cartier_index"),
], ids=["GermFile.classification", "ResolutionGraph._cartier_index"])
def test_an_analysis_that_raises_stores_nothing_and_raises_again(monkeypatch, make, cls, name):
    calls = _counted(monkeypatch, cls, name)
    rec = make()
    for read in (1, 2):
        with pytest.raises(NotApplicable):
            getattr(rec, name)
        assert name not in vars(rec)
        assert len(calls) == read
