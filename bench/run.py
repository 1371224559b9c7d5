"""bgwr benchmark: one workload in one process, BLAS pinned to one thread.

    python3 bench/run.py --workload {china-study,china-cli,lattice-fit} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
``src/`` there and never from an installed copy, so a directory without the
sources makes it exit with code 2.  The seed makes the inputs.  Set-up runs
five times; then operations run closed loop (one caller, each starting when
the previous one returns) until ``--seconds`` have passed and at least the
workload's ``timed_ops`` untraced operations are done.  Every operation's
outputs are checked and hashed; an operation that fails a check, raises, or
hashes differently from the first one counts as failed.

``--trace 0`` reports the end-to-end metrics.  The operations of a run are
identical (same inputs, outputs hash-checked), and on a shared two-core
machine interference from other tenants only ever adds time to them, so each
phase reports its minimum, as ``timeit`` does, over the first ``timed_ops``
untraced operations: the same number of samples on a fast commit and a slow
one.  The median and maximum are printed next to it.  Medians are taken
across runs.

* ``setup_s``  -- the minimum over five fresh imports of ``bgwr``, each in a
  new Python process, plus the minimum over the five set-ups (graph load,
  distances, and data generation or writing);
* ``study_s``  -- the criterion-6 ``run_study`` call on china-study, the
  whole operation on the other workloads;
* ``fit_s``    -- Bayesian fit and posterior summary (and, through the CLI,
  output writing);
* ``assess_s`` -- DIC and LPML (on china-cli with reading the chains);
* ``freq_s``   -- frequentist fit (with the grid search where there is one);
* ``peak_rss_mb`` -- ``ru_maxrss`` of this process.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones, the tracing overhead, and ROADMAP's
baseline figures next to the measured ones.  A traced operation whose counts
differ from those of the first traced operation counts as failed.  Spans are
kept in memory and written to ``.bench_work/traces/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import bgwr; print(time.perf_counter() - t)")

Op = namedtuple("Op", "index traced phases failures")

# (label, measured metric, ROADMAP figure, unit); ROADMAP quotes +-20% noise
ROADMAP_BASELINE = (("run_sampler per sweep", "sweep_total_us", 413.0, "us"),
                    ("assess (DIC + LPML)", "assess_call_s", 0.22, "s"),
                    ("40-point bandwidth grid", "grid_call_s", 0.35, "s"))
ROADMAP_TOLERANCE = 0.20

# per-layer times that exist only on some workloads; printed, not gated
WORKLOAD_ONLY_TIMES = (("freq_gwr.select_bandwidth_grid_s", "freq_gwr.select_bandwidth_grid", "incl"),
                       ("simulation.run_study_self_s", "simulation.run_study", "self"),
                       ("dataio.parse_dataset_s", "dataio.parse_dataset", "incl"),
                       ("dataio.write_chains_s", "dataio.write_chains", "incl"),
                       ("dataio.read_chains_s", "dataio.read_chains", "incl"),
                       ("cli.main_self_s", "cli.main", "self"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def import_seconds():
    """Fastest of several imports of bgwr, each in a fresh Python process."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return min(times)


class Run:
    def __init__(self, workload, trace, tracer_cls, layer_bindings):
        self.workload = workload
        self.trace = trace
        self.phase_tracer = tracer_cls(workload.phase_bindings)
        self.layer_tracer = tracer_cls(layer_bindings) if trace else None
        self.tracer_cls = tracer_cls
        self.ops = []

    def setup(self):
        times = []
        for k in range(SETUP_REPEATS):
            tracer = self.layer_tracer or self.tracer_cls()
            tracer.op = f"setup{k}"
            with tracer:
                t0 = time.perf_counter()
                self.workload.setup()
                times.append(time.perf_counter() - t0)
        return min(times)

    def untraced_done(self):
        return sum(1 for o in self.ops if not o.traced)

    def window(self, seconds):
        reference = ref_counts = None
        t_end = time.perf_counter() + seconds
        i = 0
        while (self.untraced_done() < self.workload.timed_ops
               or time.perf_counter() < t_end):
            traced = self.trace and i % 2 == 1
            tracer = self.layer_tracer if traced else self.phase_tracer
            tracer.op = i
            failures = []
            try:
                with tracer:
                    out = self.workload.op(tracer)
                failures += self.workload.check(out)
                digest = self.workload.digest(out)
                reference = reference or digest
                if digest != reference:
                    failures.append("outputs hash differently from the first operation")
                if traced:
                    counts = {n: v for (o, n), v in tracer.counts.items() if o == i}
                    ref_counts = counts if ref_counts is None else ref_counts
                    if counts != ref_counts:
                        failures.append(f"counts {counts} differ from the first traced "
                                        f"operation's {ref_counts}")
            except Exception as exc:  # counted as a failed operation
                failures.append(f"{type(exc).__name__}: {exc}")
            agg = tracer.per_op(i)
            phases = {m: sum(agg[n][0] for n in names if n in agg)
                      for m, names in self.workload.phases.items()}
            for msg in failures:
                print(f"operation {i} failed: {msg}", file=sys.stderr)
            print(f"  op {i}{' traced' if traced else ''}: "
                  + " ".join(f"{m} {v:.4f}" for m, v in phases.items()))
            self.ops.append(Op(i, traced, phases, failures))
            i += 1

    def e2e(self, traced, stat=min):
        ops = [o for o in self.ops if o.traced == traced]
        if not traced:
            ops = ops[:self.workload.timed_ops]
        return {m: stat([o.phases[m] for o in ops]) for m in self.workload.phases}

    def per_layer(self):
        from bgwr import bayes_gwr

        tr = self.layer_tracer
        traced = [o.index for o in self.ops if o.traced]
        aggs = [tr.per_op(i) for i in traced]

        def incl(name):
            return median([a[name][0] if name in a else 0.0 for a in aggs])

        def calls(name):
            return median([a[name][2] if name in a else 0 for a in aggs])

        def count(name):
            return median([tr.counts.get((i, name), 0) for i in traced])

        def per_sweep_us(agg_list, op_ids, column):
            vals = [a["bayes_gwr.run_sampler"][column] / tr.counts[(i, "bayes_gwr.sweeps")]
                    for a, i in zip(agg_list, op_ids) if "bayes_gwr.run_sampler" in a]
            return 1e6 * median(vals)

        # the same sampler call with the bandwidth fixed at its chain mean:
        # the gap to sweep_us is the cost of the MH step
        args, cfg, b_mean = tr.captured["sampler"]
        tr.op = "fixed_b"
        with tr:
            bayes_gwr.run_sampler(*args, replace(cfg, fix_bandwidth=b_mean))
        fixed = tr.per_op("fixed_b")

        accepted = sum(tr.counts.get((i, "bayes_gwr.mh_accepted"), 0.0) for i in traced)
        proposed = sum(tr.counts.get((i, "bayes_gwr.mh_proposed"), 0.0) for i in traced)
        untraced, with_trace = self.e2e(False), self.e2e(True)
        m = {
            "spatial_graph.graph_distances_s": median(tr.call_durations("spatial_graph.graph_distances")),
            "weighting.log_kernel_weight_s": incl("weighting.log_kernel_weight"),
            "weighting.log_kernel_weight_calls": calls("weighting.log_kernel_weight"),
            "weighting.weight_matrix_s": incl("weighting.weight_matrix"),
            "weighting.weight_matrix_calls": calls("weighting.weight_matrix"),
            "bayes_gwr.run_sampler_s": incl("bayes_gwr.run_sampler"),
            "bayes_gwr.sweep_us": per_sweep_us(aggs, traced, 1),
            "bayes_gwr.sweeps": count("bayes_gwr.sweeps"),
            "bayes_gwr.mh_accept_ratio": accepted / proposed if proposed else 0.0,
            "bayes_gwr.sweep_fixed_b_us": per_sweep_us([fixed], ["fixed_b"], 1),
            "bayes_gwr.block_stats_s": incl("bayes_gwr.block_stats"),
            "bayes_gwr.posterior_summary_s": incl("bayes_gwr.posterior_summary"),
            "assessment.dic_s": incl("assessment.dic"),
            "assessment.cpo_lpml_s": incl("assessment.cpo_lpml"),
            "assessment.kernel_evals": count("assessment.kernel_evals"),
            "assessment.a_tensor_bytes_computed": count("assessment.a_tensor_bytes_computed"),
            "freq_gwr.fit_all_locations_s": incl("freq_gwr.fit_all_locations"),
            "freq_gwr.effective_params_freq_s": incl("freq_gwr.effective_params_freq"),
            "freq_gwr.wls_fit_s": incl("freq_gwr.wls_fit"),
            "freq_gwr.wls_fit_calls": calls("freq_gwr.wls_fit"),
            "freq_gwr.singular_grid_points": count("freq_gwr.singular_grid_points"),
            "simulation.generate_dataset_s": median(tr.call_durations("simulation.generate_dataset")),
            "simulation.replicate_errors": count("simulation.replicate_errors"),
            "dataio.chain_bytes": count("dataio.chain_bytes"),
            "trace.overhead_study_s": with_trace["study_s"] - untraced["study_s"],
            "trace.overhead_fit_s": with_trace["fit_s"] - untraced["fit_s"],
        }
        extra = {}
        for metric, name, column in WORKLOAD_ONLY_TIMES:
            present = [a[name][0 if column == "incl" else 1] for a in aggs if name in a]
            extra[metric] = median(present) if present else None
        extra["sweep_total_us"] = per_sweep_us(aggs, traced, 0)
        extra["assess_call_s"] = median(tr.call_durations("assessment.assess"))
        grid = tr.call_durations("freq_gwr.select_bandwidth_grid")
        extra["grid_call_s"] = median(grid) if grid else None
        return m, extra


UNITS = {"_s": "s", "_us": "us", "_calls": "count", "_mb": "MB", "_bytes": "bytes",
         "_ratio": "ratio", "_points": "count", "_evals": "count", "_errors": "count",
         "_computed": "bytes", "sweeps": "count"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bgwr" / "__init__.py").is_file():
        print(f"bench: no bgwr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bgwr
    if Path(bgwr.__file__).resolve().parent != SRC / "bgwr":
        print(f"bench: imported bgwr from {bgwr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    from spans import LAYER_BINDINGS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "commit": git_commit(),
              "cpu_count": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "bgwr": bgwr.__version__,
              "blas_threads": {v: os.environ[v] for v in BLAS_ENV}}
    print("record:", json.dumps(record))

    scratch = WORKDIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(scratch))
        run = Run(workload, args.trace == 1, Tracer, LAYER_BINDINGS)
        setup_s = import_seconds() + run.setup()
        run.window(args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for o in run.ops if o.failures)
    untraced = run.e2e(False)
    print(f"{args.workload}: {len(run.ops) - failed}/{len(run.ops)} operations passed "
          f"(failed {failed} of {len(run.ops)} attempted)")
    n_untraced = run.untraced_done()
    print(f"  end to end over the first {workload.timed_ops} of {n_untraced} untraced "
          f"operations (min, median, max):")
    e2e = {"setup_s": setup_s, **untraced,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    spread = {"median": run.e2e(False, median), "max": run.e2e(False, max)}
    for name, value in e2e.items():
        more = (f"  median {spread['median'][name]:.6f}  max {spread['max'][name]:.6f}"
                if name in spread["median"] else "")
        print(f"    {name:<14} {value:12.6f} {unit_of(name)}{more}")

    if args.trace:
        metrics, extra = run.per_layer()
        traced_e2e = run.e2e(True)
        print(f"  per layer, median of {len(run.ops) - n_untraced} traced operations:")
        for name, value in metrics.items():
            print(f"    {name:<38} {value:16.6f} {unit_of(name)}")
        print("  per layer, only on some workloads (printed, not in the JSON):")
        for name, *_ in WORKLOAD_ONLY_TIMES:
            value = extra[name]
            shown = "absent: no call on this workload" if value is None else f"{value:.6f} s"
            print(f"    {name:<38} {shown}")
        print(f"  tracing overhead: study_s {traced_e2e['study_s']:.4f} traced vs "
              f"{untraced['study_s']:.4f} untraced; fit_s {traced_e2e['fit_s']:.4f} vs "
              f"{untraced['fit_s']:.4f}")
        if args.workload.startswith("china-"):
            for label, key, figure, unit in ROADMAP_BASELINE:
                value = extra[key]
                if value is None:
                    print(f"  ROADMAP baseline {label}: {figure} {unit}; not run here")
                    continue
                ratio = value / figure
                verdict = ("reproduces" if abs(ratio - 1) <= ROADMAP_TOLERANCE
                           else "does not reproduce")
                print(f"  ROADMAP baseline {label}: {figure} {unit}; measured {value:.4g} "
                      f"{unit} (x{ratio:.2f}) {verdict} within +-20%")
        traces = WORKDIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.csv"
        run.layer_tracer.dump(path)
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        metrics = e2e

    result = {"correct": failed == 0, "attempted": len(run.ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
