"""Immutable value types on ``__slots__``: the base of the specs, gains,
limits and commands.

A subclass lists its fields, in order, as ``__slots__`` (or as ``_fields``
when it keeps extra, non-field slots) and their defaults in ``_defaults``;
a dict default is copied for each instance. Instances are built
positionally or by keyword, checked by ``_validate`` and compare, hash and
print like frozen dataclasses: equal only to the same class with equal
fields. ``_replace`` builds a checked copy with some fields changed.
"""

_MISSING = object()
_new = object.__new__


class Value:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__)
        # The slots' own setters: assignment through an instance raises.
        cls._setters = tuple([getattr(cls, name).__set__ for name in fields])

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                value = cls._defaults.get(name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                if type(value) is dict:
                    value = value.copy()
            values.append(value)
        if kwargs:
            name = next(iter(kwargs))
            how = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {how} argument {name!r}")
        for set_field, value in zip(cls._setters, values):
            set_field(self, value)
        self._validate()

    @classmethod
    def _unchecked(cls, *values):
        """An instance of trusted field values, built without ``_validate``."""
        self = _new(cls)
        for set_field, value in zip(cls._setters, values):
            set_field(self, value)
        return self

    def _validate(self):
        """Raise on invalid field values; may set non-field slots."""

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._astuple()), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
