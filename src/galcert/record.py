"""Value semantics for the record classes.

A record's fields are its ``__slots__``, in constructor order.  Each
record class keeps its own ``__init__``, with its signature, defaults and
validation, and ends it with ``Record.__init__(self, *fields)``.
Equality compares the slots named in ``_compared``, or every slot when a
class leaves it unset; pickling and copying pass every slot back to the
constructor.  ``Record`` is mutable and unhashable; ``Frozen`` refuses
assignment and hashes the compared fields.
"""


class Record:
    __slots__ = ()
    _compared = None

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, name) for name in self._compared or self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")

    def __hash__(self):
        return hash(self._key())
