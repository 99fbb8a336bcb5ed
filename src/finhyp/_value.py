"""The protocol of the package's value types, held once.

A subclass names its fields in `_fields` (usually `__slots__ = _fields =
(...)`) and sets them with `_init` after validating them.  Two values are
equal when they are of the exact same class and their fields are equal; a
value is hashed once, at `_init`, over its fields, and refuses assignment.
A mutable subclass sets `__hash__ = None` and `__setattr__ =
object.__setattr__`.
"""

from operator import attrgetter


class Value:
    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        # one C call reads every field; it returns the field itself when
        # there is one, which compares the same way
        cls._key = attrgetter(*cls._fields)

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        if self.__hash__ is not None:
            object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
