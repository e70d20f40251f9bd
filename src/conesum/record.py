"""Records: field-wise equality, hash and repr derived from ``__slots__``.  A
record's own ``__init__`` sets its fields in slot order with ``_fill``; nothing is
generated or ``exec``ed when a module defines one, so importing stays cheap."""


class Record:
    """A mutable record: field-wise ``==`` and repr; unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class FrozenRecord(Record):
    """An immutable record, hashed on its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a frozen record cannot change")

    __delattr__ = __setattr__
