"""The benchmark tracer's bindings still resolve in caf.

``perfbench/tracer.py`` wraps caf's functions by name and its harness
fails on public functions it does not name. This module loads the tracer
read-only by path, so a rename or a new public function fails here, in
the tier-1 suite, and not only in the slow harness self-test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_bindings", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for modname in module.LAYERS:
        importlib.import_module(modname)
    return module


def test_every_layer_function_resolves(tracer):
    missing = []
    for modname, funcs in tracer.LAYERS.items():
        module = importlib.import_module(modname)
        for name in funcs:
            if not inspect.isfunction(getattr(module, name, None)):
                missing.append(f"{modname}.{name}")
    assert missing == []


def test_every_public_function_is_traced(tracer):
    assert tracer.unmapped_public_functions() == []
