"""Type-strict equality for the package's NamedTuple records.

A NamedTuple compares as a plain tuple, so a record would equal a plain
tuple, or a record of another type, holding the same fields (Product(())
and Correction(()) in weylinv.basis, say).  Each record class takes

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__

so that it equals only records of its own type with equal fields.
Defining __eq__ in a class body sets __hash__ to None, hence the third.
"""
from __future__ import annotations


def record_eq(self: tuple, other: object) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def record_ne(self: tuple, other: object) -> bool:
    return not record_eq(self, other)
