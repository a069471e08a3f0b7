"""Record, the base of ExactScalar, Interval and the package's report
classes: it gives them value semantics as plain classes.

`dataclasses` imports `inspect`, which would dominate the start-up of
every command, and a module of its own keeps the scalar layer (with
`fractions` and `decimal`) out of the launches that only report.
"""
from __future__ import annotations

__all__ = ["Record"]


class Record:
    """A frozen value with named fields.

    A subclass names its fields in `_fields`, in constructor order, and
    holds them in `__slots__`.  Records of one class are equal when
    their fields are, hash as the tuple of their fields, and show as
    Name(field=value, ...).  Assigning or deleting a field raises
    AttributeError, so constructors set fields through object.__setattr__
    (Record.__init__ does) or through the slot's own setter.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"values, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # rebuilt through __init__, since assignment is closed to pickle too
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
