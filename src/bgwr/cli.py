"""Command-line entry point: fit, simulate, assess, distance.

Flag values override config-file values, which override built-in defaults.
Every run writes a ``manifest.txt`` echoing the resolved configuration.  A
command validates its input before it creates its output directory, and
writes every file inside one ``_outputs`` block: when anything in the block
fails, the files it named are removed, so a failed run leaves no partial
output, and a diagnostic goes to standard error with exit status 1.
"""

import argparse
import contextlib
import os
import sys

import numpy as np

from . import dataio
from .assessment import assess
from .bayes_gwr import BayesConfig, posterior_summary, run_sampler
from .freq_gwr import default_bandwidth_grid, fit_all_locations, select_bandwidth_grid
from .simulation import (BASE_BETAS, REGIONAL_BETAS, SimulationDesign, run_study)
from .spatial_graph import graph_distances
from .weighting import KERNELS, WeightScheme

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


@contextlib.contextmanager
def _outputs(outdir):
    """Create ``outdir`` and yield a function that names a file in it; when
    the block raises, remove every file so named."""
    os.makedirs(outdir, exist_ok=True)
    named = []

    def path(name):
        named.append(os.path.join(outdir, name))
        return named[-1]

    try:
        yield path
    except Exception:
        for p in named:
            if os.path.exists(p):
                os.remove(p)
        raise


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


def _manifest(path, rc, extra=None):
    mapping = {k: ("" if v is None else v) for k, v in rc.items()}
    if extra:
        mapping.update(extra)
    dataio.write_keyvalues(path("manifest.txt"), mapping)


def _require_finite(what, locations=None, **fields):
    """Refuse to write an estimate that is not finite: ValueError naming
    each field that is not and, when ``locations`` labels the rows of
    (L, ...) arrays, the locations where it is not."""
    problems = []
    for name, values in fields.items():
        finite = np.isfinite(values)
        if locations is None:
            if not finite.all():
                problems.append(name)
            continue
        bad = ~finite.reshape(len(locations), -1).all(axis=1)
        if bad.any():
            problems.append(f"{name} at {[locations[k] for k in np.flatnonzero(bad)]}")
    if problems:
        raise ValueError(f"non-finite {what}: {'; '.join(problems)}")


def cmd_distance(args, rc):
    graph = _load_graph(args)
    d = graph_distances(graph)
    with _outputs(args.out) as path:
        d.to_csv(path("graph_distance.csv"))
        _manifest(path, {"command": "distance",
                         "adjacency": args.adjacency or "<packaged China graph>",
                         "vertices": graph.n})
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
    manifest = {"command": "fit", "data": args.data, "n": data.n, "p": data.p}
    with _outputs(args.out) as path:
        if rc["method"] == "freq":
            if rc["bandwidth"] is not None:
                b_star = rc["bandwidth"]
                table = []
            else:
                grid = default_bandwidth_grid(d)
                b_star, table = select_bandwidth_grid(data, rc["kernel"], d, grid)
            fit = fit_all_locations(data, WeightScheme(rc["kernel"], b_star), d)
            _require_finite("coefficient estimate", fit.locations, beta_hat=fit.beta_hat)
            dataio.write_coefficients(path("coefficients.csv"), fit)
            if table:
                dataio.write_sse_table(path("sse_grid.csv"), table)
            dataio.write_keyvalues(path("summary.txt"), {
                "bandwidth": float(b_star), "sse": float(fit.sse),
                "effective_params": float(fit.effective_params)})
        else:
            cfg = _bayes_config(rc)
            post = run_sampler(data, d, rc["kernel"], cfg)
            summ = posterior_summary(post)
            _require_finite("posterior summary", summ.locations, sigma2_mean=summ.sigma2_mean,
                            beta_mean=summ.beta_mean, hpd_lower=summ.hpd_lower,
                            hpd_upper=summ.hpd_upper)
            dataio.write_posterior_summary(path("posterior_summary.csv"), summ)
            dataio.write_gamma_table(path("gamma_inclusion.csv"), summ)
            dataio.write_b_trace(path("b_trace.csv"), post)
            if args.dump_chains:
                dataio.write_chains(path("chains.csv"), post)
            manifest.update(mh_acceptance=post.acceptance_rate_b,
                            proposal_scale=post.proposal_scale)
        _manifest(path, rc, manifest)
    return 0


def cmd_simulate(args, rc):
    if rc["bandwidth"] is not None:
        raise ValueError("--bandwidth does not apply to simulate; the Bayesian fit "
                         "samples the bandwidth and the baseline selects it by grid")
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
    report = run_study(design, d, rc["kernel"], cfg, methods=methods,
                       with_assessment=args.with_assessment)
    if not report.replicates_done:
        r, msg = report.errors[0]
        raise ValueError(f"no replicate completed; replicate {r} failed with {msg}")
    columns, scalars = report.scores()
    _require_finite("simulation score", **columns, **scalars)
    with _outputs(args.out) as path:
        dataio.write_report(path("report.csv"), report)
        _manifest(path, rc, {"command": "simulate", "design": args.design,
                             "setting": setting, "replicates": args.replicates,
                             "replicates_done": report.replicates_done})
    return 0


def cmd_assess(args, rc):
    graph = _load_graph(args)
    data = dataio.parse_dataset(args.data, standardize=rc["standardize"],
                                log_response=rc["log_response"])
    post = dataio.read_chains(args.chains)
    unknown = set(post.locations) - set(graph.vertices)
    if unknown:
        raise ValueError(f"chain locations not in the graph: {sorted(unknown)}")
    with _outputs(args.out) as path:
        a = assess(post, data)
        _require_finite("assessment", dic=a.dic, p_d=a.p_d, lpml=a.lpml,
                        mean_deviance=a.mean_deviance,
                        deviance_at_mean=a.deviance_at_mean, log_cpo=a.log_cpo)
        dataio.write_keyvalues(path("assessment.csv"), {
            "dic": a.dic, "p_d": a.p_d, "lpml": a.lpml,
            "mean_deviance": a.mean_deviance,
            "deviance_at_mean": a.deviance_at_mean})
        dataio.write_table(path("cpo.csv"), ["observation", "cpo", "log_cpo"],
                           dataio.labelled_rows(range(len(a.cpo)), a.cpo, a.log_cpo))
        _manifest(path, rc, {"command": "assess", "chains": args.chains,
                             "data": args.data})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bgwr",
        description="Bayesian and frequentist geographically weighted regression")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--adjacency", help="adjacency file (default: packaged China graph)")
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--kernel", choices=KERNELS)
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
