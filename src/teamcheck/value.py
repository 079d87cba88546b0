"""Immutable value classes that generate no code when they are defined.

A value is a tuple whose first item is its class and whose other items
are its fields.  So equality, hashing and dict lookup run in the tuple's
own C code, and two values are equal exactly when they have the same
class and equal fields: ``And(a, b) != Or(a, b)``.

A subclass sets ``__slots__ = ()`` and names its fields, with their
defaults, as the parameters of its ``__new__``.  That method checks and
normalizes the arguments and ends in ``new_value(cls, (cls, *fields))``.
Each field is read by a read-only attribute, and assigning or deleting
any attribute raises ``AttributeError``.  Values are tuples, so ``len``,
iteration and indexing see the class item too, unless a class defines its
own (``Team.__len__`` counts rows, ``Assignment.__getitem__`` reads a
variable); read fields by name.
"""

from __future__ import annotations

from itertools import islice

try:
    from _collections import _tuplegetter  # the C field reader of namedtuple
except ImportError:  # pragma: no cover - other Python implementations
    def _tuplegetter(index, doc):
        return property(lambda self: tuple.__getitem__(self, index), doc=doc)

new_value = tuple.__new__


class Value(tuple):
    """Base of the value classes; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__new__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, _tuplegetter(i, None))

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, islice(self, 1, None)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __getnewargs__(self) -> tuple:  # copy and pickle call __new__ with these
        return tuple(islice(self, 1, None))
