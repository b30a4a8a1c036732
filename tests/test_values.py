"""Value semantics of the package's value types.

The records are NamedTuples and the types built in hot loops, or checked
on construction, are __slots__ classes.  Either way an instance equals
exactly the instances of its own type with equal fields, hashes like
them, keeps its construction checks, defaults and a dataclass-style repr.
GeneratedGroup, the record of the enumerate_subgroup oracle in
tests/oracles.py, is held to the same semantics.
"""
from __future__ import annotations

import re

import pytest

from weylinv.algebra import BnContext, IndependenceResult, KInvariant
from weylinv.basis import (
    BasisReport,
    CheckResult,
    Correction,
    FoldInvariant,
    FormSW,
    NamedInvariant,
    Product,
    SignClass,
)
from weylinv.cosets import CosetSpace, FoldCertificate
from weylinv.forms import DiagonalForm
from weylinv.groups import _compose, build_dihedral

from oracles import GeneratedGroup

_ONE = NamedInvariant("1", 0, Product(()))

#: each type with its fields in declaration order, and for some fields a
#: different value that still passes the type's construction check
CASES = [
    (KInvariant, dict(labels=("a", "b"), terms=frozenset({0, 2})),
     dict(labels=("a", "c"), terms=frozenset({4}))),
    (BnContext, dict(L=1, n=3), dict(L=0, n=4)),
    (IndependenceResult, dict(independent=False, rank=2, dependency=(0, 1)),
     dict(independent=True, rank=3, dependency=None)),
    (DiagonalForm, dict(labels=("a",), entries=((1, 1),)),
     dict(labels=("b",), entries=((0, 1),))),
    (FoldCertificate,
     dict(frame_roots=(0,), labels=("a",), a_sets=((0,),)),
     dict(frame_roots=(1,), labels=("b",), a_sets=())),
    (CosetSpace,
     dict(type_label="A", rank=1, u_gen_roots=(), u_order=1, size=2,
          certificate=None),
     dict(type_label="B", rank=2, u_gen_roots=((2, 0),), u_order=2, size=1,
          certificate=FoldCertificate((), (), ()))),
    (GeneratedGroup, dict(elements=(b"\0\1", b"\1\0"), order=2),
     dict(elements=(b"\0\1",), order=1)),
    (FormSW, dict(d=1, action="linear", modified=False),
     dict(d=2, action="signed", modified=True)),
    (SignClass, dict(label="a"), dict(label="b")),
    (FoldInvariant, dict(m=3), dict(m=2)),
    (Product, dict(factors=()), dict(factors=(_ONE,))),
    (Correction, dict(terms=()), dict(terms=((1, ()),))),
    (NamedInvariant, dict(name="x", degree=1, recipe=SignClass("a")),
     dict(name="y", recipe=SignClass("b"))),
    (CheckResult, dict(check_id="c", status="pass", witness=None),
     dict(check_id="d", status="fail", witness="w")),
    (BasisReport,
     dict(type_label="A", rank=1, basis=(), frames=(), restrictions=(),
          checks=(), dims=(), warnings=()),
     dict(type_label="B", rank=2, basis=(_ONE,), frames=(("P_0", ()),),
          restrictions=((),), checks=(CheckResult("c", "pass"),),
          dims=((0, 1, 1),), warnings=("w",))),
]

#: fields that are derived data, left out of the repr
NOT_IN_REPR = {GeneratedGroup: {"elements"}}

_IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_value_type_is_covered():
    assert len(CASES) == 15 == len(set(_IDS))


@pytest.mark.parametrize("cls,fields,alternates", CASES, ids=_IDS)
def test_equal_fields_are_equal_and_hash_alike(cls, fields, alternates):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls,fields,alternates", CASES, ids=_IDS)
def test_changing_one_field_breaks_equality(cls, fields, alternates):
    a = cls(**fields)
    for name, value in alternates.items():
        c = cls(**{**fields, name: value})
        assert a != c and not a == c, name


@pytest.mark.parametrize("cls,fields,alternates", CASES, ids=_IDS)
def test_never_equal_to_a_tuple_or_another_type(cls, fields, alternates):
    a = cls(**fields)
    values = tuple(fields.values())
    assert a != values and values != a
    assert not a == values and not values == a
    met = 0
    for other, other_fields, _ in CASES:
        if other is cls or len(other_fields) != len(values):
            continue
        try:
            b = other(*values)
        except Exception:
            continue  # other's construction refuses these fields
        met += 1
        assert a != b and b != a and not a == b, other.__name__
    if cls in (Product, Correction):
        assert met, "Product(()) and Correction(()) hold the same fields"


@pytest.mark.parametrize("cls,fields,alternates", CASES, ids=_IDS)
def test_repr_names_the_fields(cls, fields, alternates):
    hidden = NOT_IN_REPR.get(cls, set())
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items() if k not in hidden)
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_defaults():
    assert IndependenceResult(True, 0).dependency is None
    assert CheckResult("c", "pass").witness is None
    assert BasisReport("A", 1, (), (), (), (), ()).warnings == ()
    assert CosetSpace("A", 1, (), 1, 1).certificate is None


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: KInvariant(("a",), frozenset({4})),
         "monomial references a coordinate outside the context"),
        (lambda: KInvariant(("a",), frozenset({-1})),
         "monomial references a coordinate outside the context"),
        (lambda: BnContext(2, 3),
         "no frame X_L at (L, n) = (2, 3): need 0 <= 2L <= n"),
        (lambda: BnContext(-1, 3),
         "no frame X_L at (L, n) = (-1, 3): need 0 <= 2L <= n"),
        (lambda: DiagonalForm(("a",), ((-1, 0),)), "negative 2-exponent"),
        (lambda: DiagonalForm(("a",), ((0, 2),)),
         "entry references a coordinate outside the context"),
        (lambda: NamedInvariant("x", 2, SignClass("a")),
         "x: recipe degree 1 != declared 2"),
        (lambda: NamedInvariant("x", 3, FormSW(2, "linear", False)),
         "x: recipe degree 2 != declared 3"),
        (lambda: NamedInvariant("y", 1, Correction(((0, (_ONE,)), (1, ())))),
         "y: correction terms differ in degree"),
    ],
)
def test_construction_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_dihedral_group_index():
    """A dihedral group is the tuple of its elements' image tuples, the
    identity first; rotation k is undone by rotation -k mod n and each
    reflection by itself."""
    g = build_dihedral(4)
    assert len(g) == 8 and g[0] == (0, 1, 2, 3)
    assert all(_compose(g[k], g[-k % 4]) == g[0] for k in range(4))
    assert all(_compose(r, r) == g[0] for r in g[4:])
