"""The record contract: every ``_Frozen`` subclass in the package declares
its fields once, as class annotations, and is built, stored, compared and
frozen the same way."""

import importlib
import pkgutil

import pytest

import qslab
from qslab.groups import _Frozen

for _info in pkgutil.iter_modules(qslab.__path__):
    importlib.import_module(f"qslab.{_info.name}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(
    (cls for cls in _subclasses(_Frozen) if cls.__module__.startswith("qslab.")),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
# The records whose constructor checks or converts its input.
CHECKED = {"GroupSpec", "GroupElement", "ClassFunction", "BundleCohomology"}
PLAIN = [cls for cls in RECORDS if cls.__qualname__ not in CHECKED]


def test_every_record_is_covered():
    assert {cls.__qualname__ for cls in RECORDS} == CHECKED | {
        "Token", "Declaration", "SessionModel",
        "ConjugacyClass", "Subgroup",
        "CharacterTable", "ReferenceTable",
        "SphericalSystem", "FiberOrbits",
        "PairResult", "SearchReport",
        "VerificationCheck", "VerificationReport",
    }
    assert {cls.__qualname__ for cls in RECORDS if "__init__" in vars(cls)} == CHECKED


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_fields_are_the_annotations_in_order(cls):
    assert cls._fields == tuple(vars(cls)["__annotations__"])
    assert cls._fields and "_fields" not in vars(cls)["__annotations__"]


def test_a_subclass_adds_its_fields_after_its_bases():
    class Base(_Frozen):
        a: int

    class Child(Base):
        b: int

    assert (Base._fields, Child._fields) == (("a",), ("a", "b"))
    assert vars(Child(1, b=2)) == {"a": 1, "b": 2}


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__qualname__)
def test_records_bind_like_a_signature(cls):
    fields = cls._fields
    values = [f"value of {name}" for name in fields]
    name = cls.__qualname__
    by_position = cls(*values)
    assert list(vars(by_position).items()) == list(zip(fields, values))
    # keywords in reverse order are stored in field order too
    by_keyword = cls(**dict(reversed(list(zip(fields, values)))))
    assert list(vars(by_keyword).items()) == list(zip(fields, values))
    mixed = cls(values[0], **dict(zip(fields[1:], values[1:])))
    assert list(vars(mixed).items()) == list(zip(fields, values))
    if cls.__eq__ is _Frozen.__eq__:
        assert by_position == by_keyword == mixed
        assert hash(by_position) == hash(mixed)
    if cls.__repr__ is _Frozen.__repr__:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(by_position) == f"{name}({shown})"

    def refused(text):
        return pytest.raises(TypeError, match=rf"^{name}\(\) {text}$")

    with refused(f"takes {len(fields)} arguments but {len(fields) + 1} were given"):
        cls(*values, "extra")
    for i, missing in enumerate(fields):
        with refused(f"missing required argument '{missing}'"):
            cls(*values[:i], **dict(zip(fields[i + 1 :], values[i + 1 :])))
    with refused("got an unexpected keyword argument 'nope'"):
        cls(*values, nope=1)
    with refused("got an unexpected keyword argument 'nope'"):
        cls(**dict(zip(fields, values)), nope=1)
    with refused(f"got multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__qualname__)
def test_plain_records_are_frozen(cls):
    record = cls(*cls._fields)
    for name in cls._fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.other = 0
    assert list(vars(record)) == list(cls._fields)


def test_checked_records_store_their_fields_in_order_and_are_frozen(g32, table):
    from qslab.search import BundleCohomology

    row = table.rows[0]
    records = [g32.spec, g32.identity(), row, BundleCohomology(row, row)]
    assert {type(r).__qualname__ for r in records} == CHECKED
    for record in records:
        assert list(vars(record)) == list(record._fields)
        for name in record._fields:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, getattr(record, name))
