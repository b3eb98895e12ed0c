"""`Record`, the frozen base of the package's parameter and result types.

A subclass declares its fields as annotations, in order; a class attribute
is a field's default.  `__post_init__` may normalize fields with `_set`;
after it the record is read-only.  Records compare and hash by type and
fields, or by identity if declared `class X(Record, eq=False)`.  Unlike a
dataclass, a record class generates no code when it is defined.
"""


class Record:
    _fields = ()

    def __init_subclass__(cls, eq=True):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)   # a repeated field counts once
        ok = len(values) == len(args) + len(kwargs) and values.keys() <= set(self._fields)
        if not ok or any(f not in values and not hasattr(type(self), f) for f in self._fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields {self._fields}; got "
                            f"{len(args)} by position and {sorted(kwargs)} by name")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Validate and normalize the fields; nothing to do here."""

    def _set(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot change {name!r}")
    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), *self._values()))
