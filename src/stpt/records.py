"""The record base of every layer's value types; it imports nothing from the package."""

from __future__ import annotations

from operator import attrgetter


def is_int(value: object) -> bool:
    """Whether ``value`` is an int and not a bool, which is no time or coordinate."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Record:
    """An immutable record, with the methods a frozen ``dataclass`` has.

    A subclass names its fields, in constructor order, in ``_fields``,
    holds them in ``__slots__`` and sets each once in its own
    ``__init__``, through ``object.__setattr__`` or its slot's
    descriptor. Equality holds field by field between instances of one
    class only, the hash is that of the fields' tuple, ``repr`` is
    ``Name(field=value, ...)``, assigning or deleting an attribute raises
    ``AttributeError``, and pickle and copies rebuild an instance through
    its constructor. A record takes weak references. It writes these
    once, where ``dataclass`` compiles them for every class at import.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        # the fields' tuple, read by one C call when there are several
        if len(fields) > 1:
            values = attrgetter(*fields)
        else:
            values = lambda record: tuple([getattr(record, name) for name in fields])
        cls._values = staticmethod(values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
