"""Every library name the benchmark tracer wraps still exists.

bench/tracing.py looks up the functions in its FUNCTIONS table on their
modules and the methods in its METHODS table in their class __dict__; a name
deleted or renamed in the library would otherwise fail only in the slow
benchmark tests.  The tracer's source is read and executed here, not
imported, so nothing is written under bench/.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_traced_functions_exist():
    missing = [(module_name, name)
               for module_name, names in _tracing().FUNCTIONS.values()
               for name in names
               if not callable(getattr(importlib.import_module(module_name), name, None))]
    assert missing == []


def test_traced_methods_are_defined_on_their_classes():
    missing = [(module_name, class_name, name)
               for specs in _tracing().METHODS.values()
               for module_name, class_name, names in specs
               for name in names
               if name not in vars(getattr(importlib.import_module(module_name),
                                           class_name))]
    assert missing == []
