"""In-memory span tracer for the benchmark.

A ``Tracer`` replaces public bgwr functions, at the module attributes their
callers look up, with wrappers that record one span per call: name, start,
end, parent span and operation id.  Hooks attached to a binding add counts
taken from the call's arguments or result.  Nothing is written until the
benchmark ends; leaving the ``with`` block restores every original binding.
"""

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self, bindings=()):
        self.bindings = tuple(bindings)
        self.spans = []                  # [name, start, end, parent index, op]
        self.counts = defaultdict(int)  # (op, name) -> value
        self.captured = {}
        self.op = None
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr, name, hook in self.bindings:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False

    def _open(self, name):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def count(self, name, value=1):
        self.counts[(self.op, name)] += value

    # ---- aggregation ------------------------------------------------------

    def per_op(self, op):
        """name -> [inclusive seconds, self seconds, calls] for one operation."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[OP] == op and s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, s in enumerate(self.spans):
            if s[OP] != op:
                continue
            dur = s[END] - s[START]
            agg = out[s[NAME]]
            agg[0] += dur
            agg[1] += dur - child_time[i]
            agg[2] += 1
        return out

    def call_durations(self, name):
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def dump(self, path):
        """Write every span as ``op,name,start,end,parent`` lines."""
        with open(path, "w") as fh:
            fh.write("op,name,start,end,parent\n")
            for s in self.spans:
                parent = "" if s[PARENT] is None else s[PARENT]
                fh.write(f"{s[OP]},{s[NAME]},{s[START]!r},{s[END]!r},{parent}\n")


# ---- count hooks ------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_sampler(tracer, post, args, kwargs):
    cfg = _arg(args, kwargs, 3, "cfg")
    tracer.count("bayes_gwr.sweeps", cfg.chain_length)
    if cfg.fix_bandwidth is None:
        # acceptance_rate_b covers the post-burn-in draws only
        tracer.count("bayes_gwr.mh_accepted", round(post.acceptance_rate_b * post.n_draws))
        tracer.count("bayes_gwr.mh_proposed", post.n_draws)
        tracer.captured.setdefault(
            "sampler", (args[:3], cfg, float(post.b.mean())))


def _on_dic(tracer, result, args, kwargs):
    post = _arg(args, kwargs, 0, "post")
    L = len(post.locations)
    tracer.count("assessment.kernel_evals", len(np.unique(post.b)) + 1)
    tracer.count("assessment.a_tensor_bytes_computed", post.n_draws * L * L * 8)


def _on_grid(tracer, result, args, kwargs):
    _, table = result
    tracer.count("freq_gwr.singular_grid_points",
                 sum(1 for _, sse in table if not np.isfinite(sse)))


def _on_study(tracer, report, args, kwargs):
    tracer.count("simulation.replicate_errors", len(report.errors))


def _on_write_chains(tracer, result, args, kwargs):
    tracer.count("dataio.chain_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _bind(name, modules, hook=None):
    attr = name.rsplit(".", 1)[1]
    return [(f"bgwr.{m}", attr, name, hook) for m in modules]


# Every public layer entry point, at each module attribute a caller (bgwr's
# own modules or this benchmark) looks it up through.
LAYER_BINDINGS = (
    _bind("cli.main", ["cli"])
    + _bind("spatial_graph.graph_distances", ["cli", "spatial_graph"])
    + _bind("weighting.log_kernel_weight", ["bayes_gwr"])
    + _bind("weighting.weight_matrix", ["freq_gwr"])
    + _bind("bayes_gwr.run_sampler", ["bayes_gwr", "simulation", "cli"], hook=_on_sampler)
    + _bind("bayes_gwr.block_stats", ["bayes_gwr", "assessment"])
    + _bind("bayes_gwr.posterior_summary", ["bayes_gwr", "simulation", "cli"])
    + _bind("assessment.assess", ["assessment", "cli"])
    + _bind("assessment.dic", ["assessment"], hook=_on_dic)
    + _bind("assessment.cpo_lpml", ["assessment"])
    + _bind("freq_gwr.select_bandwidth_grid", ["simulation", "cli"], hook=_on_grid)
    + _bind("freq_gwr.fit_all_locations", ["freq_gwr", "simulation", "cli"])
    + _bind("freq_gwr.effective_params_freq", ["freq_gwr"])
    + _bind("freq_gwr.wls_fit", ["freq_gwr"])
    + _bind("simulation.generate_dataset", ["simulation"])
    + _bind("simulation.run_study", ["simulation"], hook=_on_study)
    + _bind("dataio.parse_dataset", ["dataio"])
    + _bind("dataio.write_chains", ["dataio"], hook=_on_write_chains)
    + _bind("dataio.read_chains", ["dataio"])
)
