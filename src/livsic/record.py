"""Frozen value types built without ``dataclasses``.

``@record`` turns a class whose annotations name its fields into a frozen
``__slots__`` class that behaves like ``@dataclass(frozen=True)``:
positional or keyword construction with defaults, ``==``, ``hash``, the
dataclass ``repr`` and pickling.  A record that defines a
``cached_property`` also gets a ``__dict__`` for the values it caches,
which ``==``, ``hash``, ``repr`` and pickling leave out.  Its methods
are closures over the field names, so building a type compiles no
source; a command line process builds a score of these at import, where
the generated-source route of ``dataclasses`` (with ``inspect`` behind
it) cost about a quarter of the process.
"""
from __future__ import annotations

from functools import cached_property
from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def record(cls):
    """Rebuild ``cls`` as a frozen slots class whose fields are its annotations.

    A class attribute named like a field is that field's default.  The
    field names, in order, are in ``_fields``.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    defaults = {name: ns.pop(name) for name in names if name in ns}
    title = cls.__name__
    # `key` reads the fields for ==; `fields` is always the tuple that
    # dataclasses hashes and this pickles.
    key = attrgetter(*names)
    fields = (lambda self: (key(self),)) if len(names) == 1 else key

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} positional arguments, got {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{title}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{title}() got {problem} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs and not args and len(kwargs) == len(names):
            # Every field by keyword is the common call.
            try:
                for setter, name in named_setters:
                    setter(self, kwargs[name])
                return
            except KeyError:
                pass  # an unknown keyword in place of a field: bind names it
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for setter, value in zip(setters, args):
            setter(self, value)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __getstate__(self):
        return fields(self)

    def __setstate__(self, state):
        for setter, value in zip(setters, state):
            setter(self, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    methods = [__init__, __repr__, __eq__, __hash__, __getstate__, __setstate__,
               __setattr__, __delattr__]
    ns.update({method.__name__: method for method in methods})
    caches = any(isinstance(value, cached_property) for value in ns.values())
    slots = names + ("__dict__",) * caches
    ns.update(__slots__=slots, _fields=names, __qualname__=cls.__qualname__)
    built = type(cls)(cls.__name__, cls.__bases__, ns)
    setters = [getattr(built, name).__set__ for name in names]
    named_setters = list(zip(setters, names))
    return built
