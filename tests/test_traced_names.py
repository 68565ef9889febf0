"""Every name the benchmark reads, and every name the package exports, still exists.

``perfbench/tracing.py`` replaces ``fatpoints.<module>.<name>`` for each
entry of its ``TRACED`` table, and ``perfbench/worker.py`` reads a few
more names without tracing them; a renamed or deleted function would
break the benchmark, so the names are checked here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fatpoints
from fatpoints import linalg, schemes

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


def test_untraced_names_the_worker_reads():
    linalg.set_modular_filter(True)
    linalg.reset_modular_stats()
    assert set(linalg.modular_stats()) == {"short_circuits", "certified", "fallbacks", "disagreements"}
    assert linalg.mpz(7) == 7
    info = schemes.regularity_index.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_every_exported_name_resolves():
    assert [name for name in fatpoints.__all__ if not hasattr(fatpoints, name)] == []
