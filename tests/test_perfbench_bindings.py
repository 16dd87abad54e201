"""The benchmark tracer's bindings still resolve in caf.

``perfbench/tracer.py`` wraps caf's functions by name, its work-counter
hooks read the wrapped call's arguments by parameter name, and its harness
fails on public functions it does not name. This module loads the tracer
read-only by path, so a rename, a dropped parameter or a new public
function fails here, in the tier-1 suite, and not only in the slow harness
self-test. The ``caf.inversion`` hooks also run here on a real incidence,
so a hook that no longer fits its function's result fails here too.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
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


def hook_argument_reads():
    """(module, function, hook, name) for every ``a["name"]`` that a ``HOOKS`` entry reads.

    The tracer source is parsed, not run: a hook is ``hook(tracer, span,
    arguments, result)``, and a read is a string subscript of its third
    parameter.
    """
    tree = ast.parse(TRACER_PATH.read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (hooks,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)]
    reads = []
    for key, value in zip(hooks.keys, hooks.values):
        modname, fname = ast.literal_eval(key)
        hook = defs[value.id]
        arguments = hook.args.args[2].arg
        for node in ast.walk(hook):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == arguments and isinstance(node.slice, ast.Constant)):
                reads.append((modname, fname, value.id, node.slice.value))
    return reads


def test_every_hook_reads_parameters_of_the_function_it_hooks():
    reads = hook_argument_reads()
    assert len(reads) >= 10  # the parse found the hooks' argument reads
    missing = []
    for modname, fname, hook, name in reads:
        function = getattr(importlib.import_module(modname), fname)
        if name not in inspect.signature(function).parameters:
            missing.append(f"{hook} reads {name!r}, not a parameter of {modname}.{fname}")
    assert missing == []


def test_inversion_hooks_run_on_a_real_incidence(tracer):
    alignment = importlib.import_module("caf.alignment")
    inversion = importlib.import_module("caf.inversion")
    rng = np.random.default_rng(5)
    sig = alignment.canonical_signature(rng.uniform(0.5, 2.0, size=(2, 2)), 2, 5)
    eqsys = alignment.derive_equation_system(sig)
    w = [rng.integers(0, 5, size=(len(v), 1)) for v in sig.values]
    u = [t % 5 for t in alignment.true_equations(w, eqsys)]
    t = tracer.Tracer()
    with t.installed():
        sys = inversion.build_incidence(eqsys)
        solve = inversion.solve_linear(sys, u, eqsys)
        peel = inversion.peel_invert(eqsys, u)
    assert tracer.leftover_wrappers() == []
    assert solve.rank == 32 and not peel.fallback
    # both results are one (columns, width) int64 array in col_keys order
    for values in (peel.values, solve.values):
        assert values.dtype == np.int64 and values.shape == (32, 1)
    assert np.array_equal(peel.values, solve.values)
    assert [span[0] for span in t.spans] == ["inversion.incidence", "inversion.solve",
                                             "inversion.peel"]
    # the solve hook sizes the dense view, which it builds to read its shape
    assert sys.shape == (56, 32)
    assert t.counters["inversion.solve.cells"] == 56 * 32
    assert t.counters["inversion.peel.rounds"] == peel.rounds > 0
    assert t.counters["inversion.peel.fallbacks"] == 0
