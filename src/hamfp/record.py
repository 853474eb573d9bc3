"""Immutable value records with named, ordered fields.

``Record`` is the base of the package's value types. A subclass names its
fields, in order, in ``__slots__``; its annotations are for readers only, so
no interpreter's handling of annotations can change the field order. A record
is built by position or by keyword and then checked by its
``__post_init__``. It equals only a record of its own class with equal
fields, hashes its field tuple, prints as ``Name(field=value, ...)``, refuses
assignment and deletion, and pickles by its field values.

A record class is an ordinary class statement: defining one generates and
compiles no code, which keeps the CLI's start-up short, since it loads every
value type.
"""

from __future__ import annotations

from typing import Any


class FrozenRecordError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


class Record:
    """Base of the immutable value types; see the module docstring."""

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = _arrange(type(self), args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalize the fields; runs once, after construction."""

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._values()


def _arrange(cls: type, args: tuple[Any, ...], kwargs: dict[str, Any]) -> list[Any]:
    """Positional and keyword arguments as one value per field, in order,
    with the TypeError a function signature would raise on a mismatch."""
    fields = cls.__slots__
    name = cls.__name__
    if len(args) > len(fields):
        raise TypeError(
            f"{name}() takes {len(fields)} arguments but {len(args)} were given"
        )
    values = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values[key] = value
    missing = [key for key in fields if key not in values]
    if missing:
        raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
    return [values[key] for key in fields]
