"""Dataclass fields their owner computes the first time they are read.

A timeline is the costliest thing most results could hold, and most
callers never read it: the step graph's trace events
(:mod:`repro.train.executor`) and the multi-step run log
(:mod:`repro.resilience.run`) are kept as flat timings and built into a
:class:`~repro.sim.engine.Simulator` only on first read.
"""

from __future__ import annotations

from dataclasses import MISSING
from typing import Optional

#: Value of a :class:`BuiltOnRead` field that has not been built yet.
UNBUILT = object()


class BuiltOnRead:
    """A dataclass field its owner computes on first read.

    A value passed at construction (``None`` included) is kept as it is.
    A field left unset (or passed :data:`UNBUILT`) is filled by the
    owner's ``_build(name)`` the first time it is read.  Dataclasses
    route descriptor-typed fields through ``__set__``/``__get__``; the
    class-level read gives the default (``MISSING`` for a required one).
    """

    def __init__(self, required: bool = False) -> None:
        self.default = MISSING if required else UNBUILT

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, owner: Optional[type] = None) -> object:
        if obj is None:
            return self.default
        value = obj.__dict__[self.name]
        if value is UNBUILT:
            value = obj.__dict__[self.name] = obj._build(self.name)
        return value

    def __set__(self, obj: object, value: object) -> None:
        obj.__dict__[self.name] = value
