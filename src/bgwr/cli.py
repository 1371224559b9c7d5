"""Command-line entry point: fit, simulate, assess, distance.

Flag values override config-file values, which override built-in defaults.
Every run writes a ``manifest.txt`` echoing the resolved configuration; on
failure, partial outputs from the run are removed and a diagnostic goes to
standard error.
"""

import argparse
import os
import sys

import numpy as np

from . import dataio
from .assessment import assess
from .bayes_gwr import BayesConfig, posterior_summary, run_sampler
from .freq_gwr import default_bandwidth_grid, fit_all_locations, select_bandwidth_grid
from .simulation import (BASE_BETAS, REGIONAL_BETAS, SimulationDesign, run_study)
from .spatial_graph import graph_distances
from .weighting import WeightScheme

DEFAULTS = {
    "kernel": "graph_exp",
    "bandwidth": None,
    "prior_D": 100.0,
    "chain": 4000,
    "burnin": 1000,
    "seed": 0,
    "method": "bayes",
    "standardize": False,
    "log_response": False,
    "tau2": 0.001,
    "c2": 10000.0,
    "alpha1": 0.01,
    "alpha2": 0.01,
}


class _OutputTracker:
    """Records written files so a failed run can clean up after itself."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.files = []
        os.makedirs(outdir, exist_ok=True)

    def path(self, name):
        p = os.path.join(self.outdir, name)
        self.files.append(p)
        return p

    def cleanup(self):
        for p in self.files:
            if os.path.exists(p):
                os.remove(p)


def _resolve(args, config):
    """defaults < config file < explicit CLI flags."""
    resolved = dict(DEFAULTS)
    casts = {"prior_D": float, "bandwidth": float, "chain": int, "burnin": int,
             "seed": int, "tau2": float, "c2": float,
             "alpha1": float, "alpha2": float,
             "standardize": lambda v: v.lower() in ("1", "true", "yes"),
             "log_response": lambda v: v.lower() in ("1", "true", "yes")}
    for key, value in config.items():
        if key not in resolved:
            raise ValueError(f"unknown config key {key!r}")
        resolved[key] = casts.get(key, str)(value)
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            resolved[key] = flag
    return resolved


def _load_graph(args):
    if getattr(args, "adjacency", None):
        return dataio.load_adjacency(args.adjacency)
    return dataio.china_graph()


def _bayes_config(rc):
    return BayesConfig(tau2=rc["tau2"], c2=rc["c2"], alpha1=rc["alpha1"],
                       alpha2=rc["alpha2"], bandwidth_upper=rc["prior_D"],
                       chain_length=rc["chain"], burn_in=rc["burnin"],
                       seed=rc["seed"])


def _manifest(out, rc, extra=None):
    mapping = dict(rc)
    mapping = {k: ("" if v is None else v) for k, v in mapping.items()}
    if extra:
        mapping.update(extra)
    dataio.write_keyvalues(out.path("manifest.txt"), mapping)


def cmd_distance(args, rc):
    graph = _load_graph(args)
    d = graph_distances(graph)
    out = _OutputTracker(args.out)
    try:
        d.to_csv(out.path("graph_distance.csv"))
        _manifest(out, {"command": "distance",
                        "adjacency": args.adjacency or "<packaged China graph>",
                        "vertices": graph.n})
    except Exception:
        out.cleanup()
        raise
    return 0


def cmd_fit(args, rc):
    if rc["method"] == "bayes" and rc["bandwidth"] is not None:
        raise ValueError("--bandwidth applies to --method freq only; "
                         "the Bayesian fit samples the bandwidth")
    graph = _load_graph(args)
    d = graph_distances(graph)
    data = dataio.parse_dataset(args.data, standardize=rc["standardize"],
                                log_response=rc["log_response"])
    unknown = set(data.locations) - set(graph.vertices)
    if unknown:
        raise ValueError(f"dataset locations not in the graph: {sorted(unknown)}")
    out = _OutputTracker(args.out)
    try:
        if rc["method"] == "freq":
            if rc["bandwidth"] is not None:
                b_star = rc["bandwidth"]
                table = []
            else:
                grid = default_bandwidth_grid(d)
                b_star, table = select_bandwidth_grid(data, rc["kernel"], d, grid)
            fit = fit_all_locations(data, WeightScheme(rc["kernel"], b_star), d)
            dataio.write_coefficients(out.path("coefficients.csv"), fit)
            if table:
                dataio.write_sse_table(out.path("sse_grid.csv"), table)
            dataio.write_keyvalues(out.path("summary.txt"), {
                "bandwidth": float(b_star), "sse": float(fit.sse),
                "effective_params": float(fit.effective_params)})
        else:
            cfg = _bayes_config(rc)
            post = run_sampler(data, d, rc["kernel"], cfg)
            summ = posterior_summary(post)
            dataio.write_posterior_summary(out.path("posterior_summary.csv"), summ)
            dataio.write_gamma_table(out.path("gamma_inclusion.csv"), summ)
            dataio.write_b_trace(out.path("b_trace.csv"), post)
            if args.dump_chains:
                dataio.write_chains(out.path("chains.csv"), post)
        _manifest(out, rc, {"command": "fit", "data": args.data,
                            "n": data.n, "p": data.p})
    except Exception:
        out.cleanup()
        raise
    return 0


def cmd_simulate(args, rc):
    graph = _load_graph(args)
    d = graph_distances(graph)
    setting = args.setting
    pattern = {"constant": "constant", "mds": "mds_linear",
               "regional": "regional"}[args.design]
    kwargs = {}
    if pattern == "regional":
        kwargs["regions"] = dataio.china_regions()
        kwargs["region_betas"] = REGIONAL_BETAS[setting]
    design = SimulationDesign(pattern=pattern, base_beta=BASE_BETAS[setting],
                              replicates=args.replicates, seed=rc["seed"],
                              **kwargs)
    cfg = _bayes_config(rc)
    methods = tuple(args.methods.split(","))
    out = _OutputTracker(args.out)
    try:
        report = run_study(design, d, rc["kernel"], cfg, methods=methods,
                           with_assessment=args.with_assessment)
        dataio.write_report(out.path("report.csv"), report)
        _manifest(out, rc, {"command": "simulate", "design": args.design,
                            "setting": setting, "replicates": args.replicates,
                            "replicates_done": report.replicates_done})
    except Exception:
        out.cleanup()
        raise
    return 0


def cmd_assess(args, rc):
    graph = _load_graph(args)
    d = graph_distances(graph)
    data = dataio.parse_dataset(args.data, standardize=rc["standardize"],
                                log_response=rc["log_response"])
    post = dataio.read_chains(args.chains, rc["kernel"], d)
    out = _OutputTracker(args.out)
    try:
        a = assess(post, data)
        dataio.write_keyvalues(out.path("assessment.csv"), {
            "dic": a.dic, "p_d": a.p_d, "lpml": a.lpml,
            "mean_deviance": a.mean_deviance,
            "deviance_at_mean": a.deviance_at_mean})
        with open(out.path("cpo.csv"), "w") as fh:
            fh.write("observation,cpo,log_cpo\n")
            for i, c in enumerate(a.cpo):
                fh.write(f"{i},{dataio.fmt(float(c))},{dataio.fmt(float(np.log(c)))}\n")
        _manifest(out, rc, {"command": "assess", "chains": args.chains,
                            "data": args.data})
    except Exception:
        out.cleanup()
        raise
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bgwr",
        description="Bayesian and frequentist geographically weighted regression")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--adjacency", help="adjacency file (default: packaged China graph)")
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--kernel", choices=("unity", "step", "exponential",
                                             "gaussian", "bisquare", "graph_exp"))
        sp.add_argument("--bandwidth", type=float)
        sp.add_argument("--prior-D", dest="prior_D", type=float)
        sp.add_argument("--chain", type=int)
        sp.add_argument("--burnin", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", required=True)
        sp.add_argument("--standardize", action="store_true", default=None)
        sp.add_argument("--log-response", dest="log_response",
                        action="store_true", default=None)

    sp = sub.add_parser("fit", help="fit one dataset")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--method", choices=("bayes", "freq"))
    sp.add_argument("--dump-chains", action="store_true")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("simulate", help="run a simulation study")
    common(sp)
    sp.add_argument("--design", choices=("constant", "mds", "regional"),
                    required=True)
    sp.add_argument("--setting", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--replicates", type=int, default=20)
    sp.add_argument("--methods", default="bayes")
    sp.add_argument("--with-assessment", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("assess", help="DIC/LPML from a chain dump")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--chains", required=True)
    sp.set_defaults(func=cmd_assess)

    sp = sub.add_parser("distance", help="export the graph-distance matrix")
    common(sp)
    sp.set_defaults(func=cmd_distance)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = dataio.load_config(args.config) if getattr(args, "config", None) else {}
        rc = _resolve(args, config)
        return args.func(args, rc)
    except Exception as exc:
        print(f"bgwr: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
