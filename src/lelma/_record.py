"""Frozen records whose constructor costs about what a plain object's does.

A frozen dataclass's `__init__` sets each field through
`object.__setattr__`, a generic attribute store per field. `record`
makes the class a frozen, slotted dataclass and gives it an `__init__`
that calls each slot's own member descriptor instead. Equality,
hashing, `repr`, `replace`, copying, pickling and the
`FrozenInstanceError` on assignment are the dataclass's own. Slotted
classes are rebuilt by `dataclass`, so a record's methods cannot use
zero-argument `super()`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


def record(cls: type) -> type:
    """`cls` as a frozen, slotted dataclass with a cheap `__init__`. Field
    defaults and a `__post_init__` are kept; `default_factory`, `kw_only`
    and `init=False` are not supported."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    namespace: "dict[str, object]" = {}
    params, body = ["self"], []
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: a record takes no default_factory or kw_only")
        if not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: a record takes no init=False field")
        namespace[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is not MISSING:
            namespace[f"_default_{f.name}"] = f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
        body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body), namespace)
    init = namespace["__init__"]
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
