"""Result records: plain classes whose fields are their `__slots__`.

Records of one class are equal, and hash alike, when their fields are equal
in order; a record with a dict or list field is unhashable, as a tuple of
its fields is. `repr` lists the fields by name.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
