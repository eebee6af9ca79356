"""The one base of the package's frozen value classes.

A record class names its fields in ``_fields`` and writes its own
``__init__``, which checks the values first, when the class has checks,
and then passes each of them by its field name to one
``self._set(name=value, ...)``. The base stores the fields, with one
``__dict__.update``: ``_set`` is the only code that writes one.
The base also gives the rest of what a frozen dataclass would: equality
and hashing by the field tuple, a ``Name(field=value, ...)`` repr, and
assignment and deletion that raise AttributeError. Instances keep their
``__dict__``, so ``memoized``, a ``functools.cached_property`` that takes
no lock, stores an analysis there on its first read; one that raises
stores nothing. Records load none of ``dataclasses``, ``inspect`` or ``ast``.
"""

from functools import cached_property


class memoized(cached_property):
    """A cached_property that takes no lock (its ``__get__`` locks before 3.12)."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class FrozenRecord:
    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
