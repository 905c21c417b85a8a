"""``dataclass`` whose generated methods carry a profiler label of their own.

:func:`dataclasses.dataclass` compiles each generated method from source
text, so every generated ``__init__`` has the same code label,
``("<string>", 2, "__init__")``.  ``pstats`` keys its table by that label
and keeps one entry per label: a profile of a run (``mantle-sim run
--profile``) would count the calls of one constructor out of ~30, and
which one follows the memory addresses of their code.  This wrapper
renames the generated code after its class, e.g.
``<dataclass repro.clients.ops.OpRequest>:2(__init__)``.
"""

from __future__ import annotations

import dataclasses
from typing import Any


def dataclass(cls: Any = None, /, **options: Any) -> Any:
    """:func:`dataclasses.dataclass`, with one profiler label per class."""
    def wrap(cls: type) -> type:
        cls = dataclasses.dataclass(cls, **options)
        label = f"<dataclass {cls.__module__}.{cls.__qualname__}>"
        for method in vars(cls).values():
            code = getattr(method, "__code__", None)
            if code is not None and code.co_filename == "<string>":
                method.__code__ = code.replace(co_filename=label)
        return cls
    return wrap if cls is None else wrap(cls)
