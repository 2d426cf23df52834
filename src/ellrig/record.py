"""The base of the package's value records.

A record's fields are the names in ``_fields``, held in slots (``__slots__``
may add private ones after them).  A record compares, hashes, prints, pickles
and copies by the tuple of its fields' values, ``_key``, and is read-only
once ``__init__`` has stored them with ``_set``.
"""


class Record:
    __slots__ = ("_key",)

    def _set(self, *values):
        object.__setattr__(self, "_key", values[:len(self._fields)])
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._key)))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._key
