"""The base of the package's frozen result records.

A record class lists its fields as annotations, in order, with optional
defaults.  The base generates, once per class, an ``__init__`` that takes
them positionally or by keyword, stores each straight into the instance
``__dict__`` and then calls ``__post_init__`` where the class defines one.
Records compare and hash by their fields, print as ``Name(field=value, ...)``
and refuse assignment and deletion.  A value a ``functools.cached_property``
stores in the instance is not a field: it never takes part in equality,
hashing, ``repr`` or JSON.
"""

from __future__ import annotations


class Record:
    """Frozen record; ``_fields`` holds a subclass's field names in order."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # with postponed evaluation the annotations are strings, and only
        # their names are read
        fields = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        params = ", ".join(
            f"{name}=_defaults[{name!r}]" if name in defaults else name for name in fields
        )
        body = ["_dict = _self.__dict__"] + [f"_dict[{name!r}] = {name}" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("_self.__post_init__()")
        namespace = {"_defaults": defaults}
        exec(f"def __init__(_self, {params}):\n    " + "\n    ".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls._fields = fields

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")
