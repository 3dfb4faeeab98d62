"""Immutable record classes without generated code.

`Record` is the package's one base for value types: a subclass lists its
fields as annotations, in order, and a class attribute of the same name is
that field's default.  Construction, equality, hashing and repr follow the
rules of the standard library's frozen data classes: a call takes the fields
by position or keyword, two records are equal when they are of the same
class with equal fields, the hash is that of the field tuple, and the repr
is `Name(field=value, ...)`.  Every subclass shares one set of methods, so
defining a record class generates no code.  The package does not use the
standard library's module for this because importing it pulls in `inspect`,
`ast` and `dis`, and each of its classes compiles its methods from source:
together a third of the package's import time, which every command pays
before it does any work.

Each record keeps its field tuple, which equality and hashing compare
directly, as cheaply as a generated method that builds the tuple.  A
subclass may define `__post_init__(self)`; `__init__` looks it up on the
class at each call, so a wrapper set on the class later is the one that
runs.  Caches that a `__post_init__` stores with `object.__setattr__` are
not fields.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """Base class of the package's immutable value types."""

    _fields: tuple[str, ...] = ()
    _field_set: frozenset[str] = frozenset()
    _defaults: dict = {}
    __post_init__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", {}))
        cls._fields = tuple(dict.fromkeys(cls._fields + own))
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        i = 0  # no zip: it would cost more than the stores themselves
        for field in fields:
            _set(self, field, args[i])
            i += 1
        _set(self, "_values", args)  # the field tuple, which equality and hashing read
        post = type(self).__post_init__
        if post is not None:
            post(self)

    def _arguments(self, args: tuple, kwargs: dict) -> tuple:
        """The field tuple of a call that is not one positional value per
        field: defaults filled in, or the TypeError a function whose
        parameters are the fields would raise."""
        cls = type(self)
        fields, name = cls._fields, cls.__qualname__
        if not args and kwargs.keys() == cls._field_set:
            return tuple(map(kwargs.__getitem__, fields))
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key not in cls._field_set:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**cls._defaults, **given, **kwargs}
        if len(values) != len(fields):
            missing = ", ".join(repr(f) for f in fields if f not in values)
            raise TypeError(f"{name}() missing required arguments: {missing}")
        return tuple(map(values.__getitem__, fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        parts = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({parts})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")

    def replace(self, **changes):
        """A copy with the given fields changed; `__post_init__` runs again."""
        return type(self)(**{**dict(zip(self._fields, self._values)), **changes})
