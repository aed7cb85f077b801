"""The benchmark's tracer binds nsvar functions by name; keep those names.

perfbench/tracer.py rebinds each function named in its TRACED table, so
renaming one of them breaks only the benchmark, whose own tests are not
part of this suite.  This test loads the tracer by path and checks that
every name it traces still resolves.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_home_module(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.TRACED
    for home, names in tracer.TRACED.items():
        module = importlib.import_module(f"nsvar.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"nsvar.{home}.{name}"
