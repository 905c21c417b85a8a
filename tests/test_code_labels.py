"""No two code objects in ``repro`` share a profiler label.

cProfile and pstats key a function by ``(filename, first line, name)``.
Two code objects with the same key merge into one pstats entry, which
keeps only one of them depending on memory layout, so per-layer call
counts stop repeating.  Before Python 3.12, a comprehension nested in
another on one line compiles to two ``<listcomp>`` code objects with the
same key; so can two lambdas on one line.
"""

import os
from collections import Counter

import repro

SRC_DIR = os.path.dirname(repro.__file__)


def code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_consts"):
            yield from code_objects(const)


def source_files():
    for directory, _dirs, files in os.walk(SRC_DIR):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def test_no_two_code_objects_share_a_label():
    labels: Counter = Counter()
    for path in source_files():
        with open(path, encoding="utf-8") as handle:
            module = compile(handle.read(), path, "exec")
        labels.update((code.co_filename, code.co_firstlineno, code.co_name)
                      for code in code_objects(module))
    assert len(labels) > 1000
    shared = sorted(label for label, count in labels.items() if count > 1)
    assert shared == []
