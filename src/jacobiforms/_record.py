"""Value records: the methods @dataclass would generate, written once.

A dataclass generates and compiles its __init__, __eq__, __repr__ and
__hash__ when its module is imported, and imports `dataclasses` and `inspect`
to do it, every time a request starts.  A `Record` subclass instead names its
fields in `_fields` (compared, hashed and shown by repr, in that order) and
`_extra` (stored after them, neither compared nor shown), with defaults in
`_defaults`.  Its instances are built from the fields positionally or by
keyword, then run `__post_init__`.  Records compare by their fields and are
unhashable, as a mutable dataclass is; a `Frozen` record is read-only after
__init__ and hashed by its fields, as a frozen dataclass is, so it serves as
a dict or lru_cache key.
"""

from operator import attrgetter


class Record:
    _fields = ()
    _extra = ()
    _defaults = {}
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields + self._extra
        if len(args) > len(names) or set(kwargs).difference(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}; "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{type(self).__name__}() is missing {missing}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
