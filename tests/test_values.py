"""The package's small data classes.  Each one that is compared or hashed
by the package is a value: equal data gives equal objects of one class,
which hash alike.  The others compare by identity.  Every class but the
two that are filled in step by step (``CheckReport``, ``kernels._Desc``)
is immutable."""

from fractions import Fraction

import pytest

from qheis import fock, kernels, liealg, report, series, vertexops
from qheis.scalar import L, ONE, Q, SYMBOLIC, ZERO, RationalPoint
from qheis.series import NEG_INF


def _hq():
    return fock.FockModule("hq")


# class -> a builder of one object from fixed data, given the class (a
# subclass must build the same object)
VALUES = {
    series.Window: lambda cls: cls(("x1", "x2"), (-1, 0), (2, 3)),
    fock.FockModule: lambda cls: cls(
        "hq", scalars=RationalPoint(Fraction(3, 5), 2)),
    kernels.Factor: lambda cls: cls("binom", "x1", "x2", Q),
    vertexops.GeneratorField: lambda cls: cls(_hq(), 1),
    vertexops.Multiplier: lambda cls: cls(((Q, 1), (ONE, 2)), L),
}

# one part shared by every PairData built here, so that two of them hold
# equal fields
_PART = vertexops.PairPart("plain", L, Q)

RECORDS = {
    report.CheckReport: lambda cls: cls("law", report.PASS, 3, "all", [],
                                        ["note"]),
    liealg.AlgebraSpec: lambda cls: cls("hq", 0, False, 0, "summary"),
    kernels._V: lambda cls: cls({(): ONE}, ()),
    kernels._Desc: lambda cls: cls("x", {"x": -1}, abs),
    vertexops.PairPart: lambda cls: cls("plain", L, Q),
    vertexops.PairData: lambda cls: cls((_PART,), SYMBOLIC),
    vertexops._LawSpec: lambda cls: cls(abs, 5, "summary"),
    series.Cert: lambda cls: cls(False, (NEG_INF, 0), (NEG_INF, 0), (4, 4)),
    # the fields other than GeneratorField: no memo keys on them
    vertexops.SumField: lambda cls: cls(
        _hq(), [(ONE, vertexops.field_of(_hq())),
                (ZERO, vertexops.field_of(_hq(), 1))]),
    vertexops.ProductExpression: lambda cls: cls(
        vertexops.field_of(_hq(), 1), vertexops.field_of(_hq()), -1,
        vertexops.Multiplier.of((Q, 1), (ONE / Q, 1))),
}

MUTABLE = {report.CheckReport, kernels._Desc}


def _name(cls) -> str:
    return cls.__name__


def test_the_tables_cover_every_class_with_slots():
    """A new data class of the package must be listed here."""
    found = {obj for mod in (fock, kernels, liealg, report, series, vertexops)
             for obj in vars(mod).values()
             if isinstance(obj, type) and obj.__module__ == mod.__name__
             and "__slots__" in vars(obj) and vars(obj)["__slots__"]
             and not issubclass(obj, BaseException)}
    # the vector, kernel and table classes have tests of their own
    found -= {fock.FockVector, kernels.RationalKernel,
              series.TruncatedLaurent, vertexops.StateTable}
    assert found == set(VALUES) | set(RECORDS)
    assert not set(VALUES) & set(RECORDS)


@pytest.mark.parametrize("cls", VALUES, ids=_name)
def test_equal_data_gives_equal_values(cls):
    a, b = VALUES[cls](cls), VALUES[cls](cls)
    assert a is not b and a == b and not a != b
    if cls.__hash__ is not None:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", [*VALUES, *RECORDS], ids=_name)
def test_equal_fields_on_another_class_are_not_equal(cls):
    twin_cls = type(f"Twin{cls.__name__}", (cls,), {})
    build = {**VALUES, **RECORDS}[cls]
    a, twin = build(cls), build(twin_cls)
    assert all(getattr(a, s) == getattr(twin, s) for s in cls.__slots__
               if not s.startswith("_"))
    assert a != twin and twin != a


@pytest.mark.parametrize("cls", RECORDS, ids=_name)
def test_records_compare_by_identity(cls):
    a, b = RECORDS[cls](cls), RECORDS[cls](cls)
    assert a == a and a != b


@pytest.mark.parametrize("cls", [*VALUES, *RECORDS], ids=_name)
def test_immutable_classes_refuse_assignment(cls):
    obj = {**VALUES, **RECORDS}[cls](cls)
    slot = cls.__slots__[0]
    value = getattr(obj, slot)
    if cls in MUTABLE:
        setattr(obj, slot, value)
        return
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(obj, slot, value)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(obj, slot)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, slot) is value
