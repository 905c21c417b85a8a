"""Every dataclass in ``repro`` gives its generated methods their own label.

``dataclasses`` compiles all generated methods as ``<string>``, so pstats
would merge the constructors of different classes into one entry
(``repro.dataclass``).
"""

import cProfile
import dataclasses
import importlib
import inspect
import pkgutil
import pstats

import repro
from repro.dataclass import dataclass


def repro_dataclasses():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)):
                yield cls


def test_generated_methods_are_labelled_by_class():
    classes = list(repro_dataclasses())
    assert len(classes) > 50
    for cls in classes:
        for method in vars(cls).values():
            code = getattr(method, "__code__", None)
            assert code is None or code.co_filename != "<string>", cls


def test_profile_counts_each_constructor():
    @dataclass
    class Plain:
        x: int

    @dataclass(frozen=True)
    class Frozen:
        y: int

    profile = cProfile.Profile()
    profile.enable()
    Plain(1)
    Plain(2)
    Frozen(3)
    profile.disable()
    calls = {filename: stat[1] for (filename, _line, name), stat
             in pstats.Stats(profile).stats.items() if name == "__init__"}
    assert sorted(calls.values()) == [1, 2]
    assert all(filename.startswith("<dataclass ") for filename in calls)
