"""Every library attribute the benchmark binds must exist.

The benchmark's tracer (``bench/spans.py``) and its workloads
(``bench/workloads.py``) replace functions at named module attributes; a
deletion or rename in ``src/`` would otherwise surface only when a traced
benchmark run fails.  The benchmark files are loaded without writing
bytecode next to them.  The sampler's calls through one such attribute are
counted too, as the traced counts depend on them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bgwr import bayes_gwr
from bgwr.bayes_gwr import BayesConfig, run_sampler
from bgwr.suffstats import Dataset

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


def test_shell_sampler_scores_each_bandwidth_with_one_kernel_call(china_d, monkeypatch):
    # China hop counts take the shell path.  The tracer counts
    # weighting.log_kernel_weight at bgwr.bayes_gwr: one
    # call for the starting bandwidth and one per proposal, so the traced
    # count reads chain_length + 1 per fit (4001 on china-cli, 8002 for the
    # two china-study fits, 251 on lattice-fit)
    calls = []
    log_kernel_weight = bayes_gwr.log_kernel_weight

    def counting(*args, **kwargs):
        calls.append(args[0].bandwidth)
        return log_kernel_weight(*args, **kwargs)

    monkeypatch.setattr(bayes_gwr, "log_kernel_weight", counting)
    rng = np.random.default_rng(50)
    X = rng.normal(size=(150, 5))
    data = Dataset(y=X @ np.linspace(2.0, 0.0, 5) + rng.normal(size=150), X=X,
                   locations=tuple(s for s in china_d.labels for _ in range(5)))
    cfg = BayesConfig(tau2=0.01, chain_length=300, burn_in=100, seed=15)
    post = run_sampler(data, china_d, "exponential", cfg)
    assert 0 < post.acceptance_rate_b < 1
    assert len(calls) == cfg.chain_length + 1
    assert calls[0] == cfg.bandwidth_upper / 2.0
