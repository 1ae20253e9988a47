"""Value-class bases for the package's small records.

A record names its fields in the class tuple `_fields`, in constructor
order, and declares `__slots__` and an explicit `__init__`.  Its fields are
values, set by the constructor: reading one, comparing or printing a record
computes nothing, and work a caller may not need is a function of the record
that the caller calls.  Equality holds
between records of exactly the same class whose fields compare equal, and
any other operand gets NotImplemented, so GammaAB(1, 2) != DeltaAB(1, 2).
The repr is `Name(field=value, ...)`.  A `Record` is mutable and
unhashable; a `FrozenRecord` hashes by its field values and refuses to
assign or delete a field after `_freeze` has set them in `__init__`.

The module imports nothing, so the CLI pays no import for its records.
"""


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    __slots__ = ()

    def _freeze(self, *values) -> None:
        """Set the fields, in `_fields` order; only `__init__` calls this."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
