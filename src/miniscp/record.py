"""The one base of the package's record classes, in place of `dataclasses`.

A subclass of `Record` lists its fields as `__slots__`, in constructor
order (a `__dict__` entry there, which cached properties need, and a
`__weakref__` entry, which weak references need, are not fields), and may
give defaults in `_defaults` (a list default is copied for each record).
It gets a constructor taking the fields by position or by name, equality
between records of one class whose fields are equal, and the repr
`Name(field=value, ...)`.  A subclass declared with `frozen=True`
(and every subclass of it) refuses to set or delete a field once built,
with AttributeError, and hashes by its fields; any other record is mutable
and unhashable.  Records copy and pickle through their constructor.

A class built by the million (the terms and configurations) writes its own
constructor, equality and hash.  Its constructor stores through the slot
descriptors (see `setters`), which a frozen class's `__setattr__` does not
see.  Classes built by the thousand, such as `driving.Branch` and
`interpreter.Outcome`, use the generic ones.  Nothing here imports a
module, so defining a record costs about what the class statement costs.
"""

_store = object.__setattr__


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(f for f in cls.__dict__.get("__slots__", ())
                             if f not in ("__dict__", "__weakref__"))
        if frozen or cls.__setattr__ is _refuse_set:
            cls.__setattr__ = _refuse_set
            cls.__delattr__ = _refuse_delete
            if cls.__hash__ is None:
                cls.__hash__ = Record._hash

    def __init__(self, *args, **kwargs):
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, "
                            f"got {len(args)}")
        for field, value in zip(fields, args):
            _store(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in self._defaults:
                value = self._defaults[field]
                if value.__class__ is list:
                    value = list(value)
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
            _store(self, field, value)
        if kwargs:
            raise TypeError(f"{name}() got an unexpected argument "
                            f"{next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which a frozen
        # record's __setattr__ does not stop
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def setters(cls) -> tuple:
    """The setters of a record class's slot descriptors, one per field in
    order: what a hand-written constructor of a frozen class stores
    through."""
    return tuple(getattr(cls, f).__set__ for f in cls._fields)
