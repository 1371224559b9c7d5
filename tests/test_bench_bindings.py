"""Every library attribute the benchmark binds must exist.

The benchmark's tracer (``bench/spans.py``) and its workloads
(``bench/workloads.py``) replace functions at named module attributes; a
deletion or rename in ``src/`` would otherwise surface only when a traced
benchmark run fails.  The benchmark files are loaded without writing
bytecode next to them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def bound_attributes():
    spans = load_bench_module("spans")
    workloads = load_bench_module("workloads")
    bindings = list(spans.LAYER_BINDINGS)
    for workload in workloads.WORKLOADS.values():
        bindings += workload.phase_bindings
    return sorted({(module, attr) for module, attr, _, _ in bindings})


@pytest.mark.parametrize("module,attr", bound_attributes())
def test_bound_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} is bound by the benchmark but missing"
