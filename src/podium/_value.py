"""The immutable value base shared by podium's records, AST nodes and series.

A subclass names its fields, in order, in ``__slots__``, and gives any
trailing defaults in ``_defaults`` (a class attribute, never a slot
name: a class attribute of a slot's name is a ValueError).  Instances
are built positionally or by keyword, equal only to an instance of the
same class with equal fields, hashed by their fields, printed as
``Name(field=value, ...)``, and refuse assignment and deletion.  A copy
or a pickle rebuilds an instance from its fields through the class's
own constructor, so ``Series``, the one type that checks its fields in
``__init__``, checks the copy too.  ``Series`` and
``Mismatch`` keep their own reprs, which print an int that ``str``
refuses (one past the digit limit) by its size.

Building such a class compiles nothing, so importing podium stays cheap
and loads neither ``inspect`` nor the modules it pulls in.  The helpers
that read generated record classes (``fields``, ``replace``, ``asdict``)
do not apply to these types.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        # the fields, as one value to compare and hash: a tuple, or the
        # field itself when there is one
        cls._key = staticmethod(attrgetter(*cls.__slots__))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """`args` and `kwargs` as one list of field values in field order,
        with the defaults filled in; a TypeError like a function call's."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
        for name in kwargs:
            what = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {what} argument {name!r}")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])
