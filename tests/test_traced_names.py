"""Every function the benchmark's traced mode wraps by name still exists.

``perfbench/tracing.py`` replaces ``fatpoints.<module>.<name>`` for each
entry of its ``TRACED`` table; a renamed or deleted function would break
the traced run, so the names are checked here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED_NAMES = [(module, name) for module, names in _traced().items() for name in names]


def test_the_table_is_read():
    assert ("linalg", "rref") in TRACED_NAMES


@pytest.mark.parametrize("module, name", TRACED_NAMES, ids=lambda x: x)
def test_traced_name_is_a_callable_of_the_package(module, name):
    mod = importlib.import_module(f"fatpoints.{module}")
    assert callable(getattr(mod, name, None)), f"fatpoints.{module}.{name} is gone"
