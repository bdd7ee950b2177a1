"""Exact-arithmetic toolkit for composition polynomials and the sign
behaviour of their alternating weighted part-count sums."""

from ._backend import BACKEND

__version__ = "0.1.0"


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in compsigns, never bad input
    and never a mathematical finding.  The CLI exits 4 on it."""


class Record:
    """Base of the package's record classes.

    A subclass lists its fields as annotations, in order; a class-level
    value is that field's default.  It gets a constructor taking the
    fields by position or keyword, then calling ``__post_init__``; ``==``
    between instances of the same class; a ``Name(field=value, ...)``
    repr; immutability; and a hash of the field values.  Fields are read
    from the annotations once per class and no code is generated, so a
    record class costs next to nothing to define.
    """

    _fields: tuple[str, ...] = ()
    _field_defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [n for n in cls.__annotations__ if n not in cls._fields]
        cls._fields += tuple(own)
        cls._field_defaults = {**cls._field_defaults,
                               **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments, got {len(args)}")
        values = self.__dict__
        values.update(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._field_defaults:
                values[field] = self._field_defaults[field]
            else:
                raise TypeError(f"{name} missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name} got unexpected or repeated arguments {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen record")

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


__all__ = ["BACKEND", "InternalError", "Record", "__version__"]
