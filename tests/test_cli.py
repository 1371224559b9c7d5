import filecmp
import os

import numpy as np
import pytest

from bgwr import cli, dataio
from bgwr.assessment import assess
from bgwr.bayes_gwr import BayesConfig, GwrPosterior, PosteriorSummary, run_sampler
from bgwr.cli import DEFAULTS, _resolve, build_parser, main
from bgwr.freq_gwr import FreqFit
from bgwr.simulation import SimulationReport
from bgwr.spatial_graph import DistanceMatrix, graph_distances
from bgwr.suffstats import Dataset


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def synthetic_dataset_file(path, china, seed=0, p=3, obs=5):
    rng = np.random.default_rng(seed)
    lines = ["location,y," + ",".join(f"x{j + 1}" for j in range(p))]
    beta = np.array([2.0, 0.0, 4.0])
    for s in china.vertices:
        for _ in range(obs):
            x = rng.normal(size=p)
            y = float(x @ beta + rng.normal())
            lines.append(",".join([s, repr(y)] + [repr(float(v)) for v in x]))
    write_lines(path, lines)
    return path


class TestParseDataset:
    def test_round_trip(self, tmp_path, china):
        path = synthetic_dataset_file(tmp_path / "d.csv", china)
        data = dataio.parse_dataset(path)
        assert data.n == 150 and data.p == 3
        out = tmp_path / "copy.csv"
        dataio.write_dataset(out, data)
        again = dataio.parse_dataset(out)
        np.testing.assert_array_equal(again.y, data.y)
        np.testing.assert_array_equal(again.X, data.X)
        assert again.locations == data.locations

    def test_header_only_is_empty(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["location,y,x1"])
        with pytest.raises(ValueError, match="empty dataset"):
            dataio.parse_dataset(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["id,y,x1", "a,1,2"])
        with pytest.raises(ValueError, match="header"):
            dataio.parse_dataset(f)

    def test_field_count_reports_line(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["location,y,x1", "a,1,2", "b,3"])
        with pytest.raises(ValueError, match=":3:"):
            dataio.parse_dataset(f)

    def test_non_numeric_reports_line(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["location,y,x1", "a,1,2", "b,oops,1"])
        with pytest.raises(ValueError, match=":3:.*non-numeric"):
            dataio.parse_dataset(f)

    def test_standardize(self, tmp_path, china):
        path = synthetic_dataset_file(tmp_path / "d.csv", china)
        data = dataio.parse_dataset(path, standardize=True)
        assert np.all(np.abs(data.X.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(data.X.std(axis=0, ddof=1) - 1.0) < 1e-12)

    def test_log_response(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["location,y,x1", "a,1.0,0.5", "a,2.718281828459045,1.0"])
        data = dataio.parse_dataset(f, log_response=True)
        assert data.y[0] == pytest.approx(0.0)
        assert data.y[1] == pytest.approx(1.0)

    def test_log_response_rejects_nonpositive(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["location,y,x1", "a,0.0,0.5"])
        with pytest.raises(ValueError, match="positive"):
            dataio.parse_dataset(f, log_response=True)


class TestAdjacencyFile:
    def test_packaged_graph(self, china):
        assert china.n == 30
        assert ("Hainan", "Guangdong") in china.patches

    def test_round_trip(self, tmp_path, china):
        f = tmp_path / "adj.txt"
        lines = ["# vertices"] + list(china.vertices) + ["# edges"]
        lines += [f"{a},{b}" for a, b in sorted(tuple(e) for e in china.edges)]
        write_lines(f, lines)
        g = dataio.load_adjacency(f)
        assert g.vertices == china.vertices
        assert g.edges == china.edges

    def test_error_reports_line(self, tmp_path):
        f = tmp_path / "adj.txt"
        write_lines(f, ["# vertices", "A", "B", "# edges", "A,B,C"])
        with pytest.raises(ValueError, match=":5:"):
            dataio.load_adjacency(f)

    def test_content_before_section(self, tmp_path):
        f = tmp_path / "adj.txt"
        write_lines(f, ["A", "# vertices"])
        with pytest.raises(ValueError, match="before a section"):
            dataio.load_adjacency(f)


class TestConfig:
    def test_load_config(self, tmp_path):
        f = tmp_path / "run.cfg"
        write_lines(f, ["# comment", "kernel = gaussian", "seed = 11", ""])
        assert dataio.load_config(f) == {"kernel": "gaussian", "seed": "11"}

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        write_lines(f, ["kernel: gaussian"])
        with pytest.raises(ValueError, match=":1:"):
            dataio.load_config(f)

    def test_precedence_per_field(self):
        parser = build_parser()
        args = parser.parse_args(["fit", "--data", "x", "--out", "o",
                                  "--seed", "5", "--kernel", "gaussian"])
        cfgfile = {"seed": "9", "chain": "123", "prior_D": "77.5"}
        rc = _resolve(args, cfgfile)
        assert rc["seed"] == 5            # flag beats config file
        assert rc["kernel"] == "gaussian"
        assert rc["chain"] == 123         # config file beats default
        assert rc["prior_D"] == 77.5
        assert rc["burnin"] == DEFAULTS["burnin"]  # untouched default

    def test_unknown_key_rejected(self):
        parser = build_parser()
        args = parser.parse_args(["fit", "--data", "x", "--out", "o"])
        with pytest.raises(ValueError, match="unknown config key"):
            _resolve(args, {"bandwidt": "3"})


class TestCliCommands:
    def test_distance_subcommand(self, tmp_path, china_d):
        out = tmp_path / "out"
        assert main(["distance", "--out", str(out)]) == 0
        d = DistanceMatrix.from_csv(out / "graph_distance.csv")
        finite = d.values[np.isfinite(d.values)]
        assert finite.max() == 6.0
        np.testing.assert_array_equal(d.values, china_d.values)
        assert (out / "manifest.txt").exists()

    def test_fit_bayes_outputs(self, tmp_path, china):
        data = synthetic_dataset_file(tmp_path / "d.csv", china)
        out = tmp_path / "fit"
        rc = main(["fit", "--data", str(data), "--out", str(out),
                   "--kernel", "exponential", "--chain", "300",
                   "--burnin", "100", "--seed", "3", "--dump-chains"])
        assert rc == 0
        for name in ("posterior_summary.csv", "gamma_inclusion.csv",
                     "b_trace.csv", "chains.csv", "manifest.txt"):
            assert (out / name).exists()

    def test_fit_freq_outputs(self, tmp_path, china):
        data = synthetic_dataset_file(tmp_path / "d.csv", china)
        out = tmp_path / "freq"
        rc = main(["fit", "--data", str(data), "--out", str(out),
                   "--method", "freq", "--kernel", "exponential",
                   "--bandwidth", "5.0"])
        assert rc == 0
        assert (out / "coefficients.csv").exists()
        summary = dataio.load_config(out / "summary.txt")
        assert float(summary["bandwidth"]) == 5.0

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_fit_bayes_rejects_bandwidth(self, tmp_path, china, capsys, source):
        data = synthetic_dataset_file(tmp_path / "d.csv", china)
        out = tmp_path / "fit"
        args = ["fit", "--data", str(data), "--out", str(out), "--kernel",
                "exponential", "--chain", "300", "--burnin", "100"]
        if source == "flag":
            args += ["--bandwidth", "3.0"]
        else:
            write_lines(tmp_path / "c.txt", ["bandwidth = 3.0"])
            args += ["--config", str(tmp_path / "c.txt")]
        assert main(args) == 1
        assert "samples the bandwidth" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("flags,message", [
        (["--prior-D", "inf"], "D must be positive and finite"),
        (["--method", "freq", "--bandwidth", "nan"], "bandwidth must be positive")],
        ids=["prior-D-inf", "freq-bandwidth-nan"])
    def test_fit_rejects_non_finite_parameter(self, tmp_path, china, capsys, flags, message):
        data = synthetic_dataset_file(tmp_path / "d.csv", china)
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(data), "--out", str(out), "--kernel", "exponential",
                     "--chain", "300", "--burnin", "100", *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_simulate_rejects_bandwidth(self, tmp_path, capsys, source):
        out = tmp_path / "sim"
        args = ["simulate", "--design", "constant", "--setting", "1",
                "--replicates", "1", "--chain", "60", "--burnin", "20", "--out", str(out)]
        if source == "flag":
            args += ["--bandwidth", "3.0"]
        else:
            write_lines(tmp_path / "c.txt", ["bandwidth = 3.0"])
            args += ["--config", str(tmp_path / "c.txt")]
        assert main(args) == 1
        assert "--bandwidth does not apply to simulate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--methods", "baye"], "methods must be a non-empty subset"),
        (["--methods", ""], "methods must be a non-empty subset"),
        (["--replicates", "0"], "at least one replicate")],
        ids=["methods-baye", "methods-empty", "replicates-0"])
    def test_simulate_rejects_a_study_that_cannot_run(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sim"
        assert main(["simulate", "--design", "constant", "--setting", "1", "--replicates", "1",
                     "--chain", "60", "--burnin", "20", "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["freq", "bayes,freq"])
    def test_simulate_reports_frequentist_scores(self, tmp_path, methods):
        out = tmp_path / "sim"
        assert main(["simulate", "--design", "constant", "--setting", "1", "--replicates", "2",
                     "--chain", "300", "--burnin", "100", "--kernel", "exponential",
                     "--methods", methods, "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        header = lines[0].split(",")
        bayes = ["mab", "msd", "mmse", "mcr", "acc"] if "bayes" in methods else []
        assert header == ["coefficient", *bayes, "freq_mab", "freq_msd", "freq_mmse"]
        table = np.array([line.split(",")[1:] for line in lines[1:6]], dtype=float)
        freq_mab = table[:, header.index("freq_mab") - 1]
        assert np.all(np.isfinite(freq_mab)) and np.all(freq_mab > 0)
        names = [line.split(",")[0] for line in lines[6:]]
        bayes_lines = ["model_acc", "mean_bandwidth"] if bayes else []
        assert names == bayes_lines + ["freq_effective_params"]

    def test_simulate_refuses_a_study_that_produced_nothing(self, tmp_path, capsys, monkeypatch):
        def failed_study(design, *args, **kwargs):
            nan = np.full(5, np.nan)
            return SimulationReport(coefficients=("x1", "x2", "x3", "x4", "x5"), mab=nan,
                                    msd=nan, mmse=nan, mcr=nan, acc=nan, model_acc=np.nan,
                                    errors=[(0, "SingularSystemError: first"),
                                            (1, "SingularSystemError: second")],
                                    replicates_done=0)

        monkeypatch.setattr(cli, "run_study", failed_study)
        out = tmp_path / "sim"
        assert main(["simulate", "--design", "constant", "--setting", "1", "--replicates", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "no replicate completed; replicate 0 failed with SingularSystemError: first" in err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("field", ["mab", "mcr", "model_acc", "mean_lpml", "freq_msd",
                                       "freq_effective_params"])
    def test_simulate_refuses_non_finite_scores(self, tmp_path, capsys, monkeypatch, field):
        def study(design, *args, **kwargs):
            ones = np.ones(5)
            report = SimulationReport(coefficients=("x1", "x2", "x3", "x4", "x5"), mab=ones,
                                      msd=ones, mmse=ones, mcr=ones, acc=ones, model_acc=1.0,
                                      mean_bandwidth=2.0, mean_p_d=3.0, mean_dic=4.0,
                                      mean_lpml=-5.0, freq_mab=ones, freq_msd=ones,
                                      freq_mmse=ones, freq_effective_params=6.0,
                                      replicates_done=2)
            value = getattr(report, field)
            setattr(report, field, np.where(np.arange(5) == 2, np.nan, value)
                    if isinstance(value, np.ndarray) else np.nan)
            return report

        monkeypatch.setattr(cli, "run_study", study)
        out = tmp_path / "sim"
        assert main(["simulate", "--design", "constant", "--setting", "1", "--replicates", "2",
                     "--methods", "bayes,freq", "--with-assessment", "--out", str(out)]) == 1
        assert f"bgwr: error: non-finite simulation score: {field}\n" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    def test_same_seed_byte_identical(self, tmp_path, china):
        data = synthetic_dataset_file(tmp_path / "d.csv", china)
        args = ["fit", "--data", str(data), "--kernel", "exponential",
                "--chain", "300", "--burnin", "100", "--seed", "3", "--dump-chains"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("posterior_summary.csv", "gamma_inclusion.csv", "b_trace.csv",
                     "chains.csv", "manifest.txt"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
        # the sampler's MH record is part of the same-seed contract
        manifest = dataio.load_config(out1 / "manifest.txt")
        assert 0 < float(manifest["mh_acceptance"]) < 1
        assert 0 < float(manifest["proposal_scale"]) <= 50 * DEFAULTS["prior_D"]

    def test_simulate_same_seed_byte_identical(self, tmp_path):
        args = ["simulate", "--design", "constant", "--setting", "1",
                "--replicates", "2", "--chain", "300", "--burnin", "100",
                "--kernel", "exponential", "--methods", "bayes,freq",
                "--with-assessment", "--seed", "7"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("report.csv", "manifest.txt"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    def test_failure_cleans_partial_outputs(self, tmp_path, china, capsys):
        data = synthetic_dataset_file(tmp_path / "d.csv", china, p=3)
        # unknown location makes the fit fail after the output dir exists
        with open(data, "a") as fh:
            fh.write("Atlantis,1.0,0.0,0.0,0.0\n")
        out = tmp_path / "bad"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bgwr: error:" in err
        if out.exists():
            assert not os.listdir(out)

    @pytest.mark.parametrize("method", ["bayes", "freq"])
    def test_fit_refuses_non_finite_estimates(self, tmp_path, china, capsys, monkeypatch,
                                              method):
        data = synthetic_dataset_file(tmp_path / "d.csv", china)
        locations = tuple(china.vertices)
        bad = locations[4]
        L, p, T = len(locations), 3, 5
        beta = np.zeros((T, L, p))
        beta[:, 4, 1] = np.nan

        def sampler(*args):
            return GwrPosterior(locations=locations, beta=beta, sigma2=np.ones((T, L)),
                                gamma=np.ones((T, p), dtype=int), b=np.ones(T),
                                acceptance_rate_b=0.5, proposal_scale=1.0)

        def freq_fit(*args):
            return FreqFit(locations=locations, beta_hat=beta[0], sse=np.nan,
                           effective_params=3.0)

        monkeypatch.setattr(cli, "run_sampler", sampler)
        monkeypatch.setattr(cli, "fit_all_locations", freq_fit)
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(data), "--out", str(out), "--method", method,
                     "--kernel", "exponential", "--dump-chains"]
                    + (["--bandwidth", "5.0"] if method == "freq" else [])) == 1
        err = capsys.readouterr().err
        what = "posterior summary" if method == "bayes" else "coefficient estimate"
        assert f"bgwr: error: non-finite {what}" in err
        assert repr(bad) in err and repr(locations[3]) not in err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("field", ["dic", "p_d", "lpml", "mean_deviance",
                                       "deviance_at_mean", "log_cpo"])
    def test_assess_refuses_non_finite_output(self, tmp_path, china, capsys, monkeypatch,
                                              field):
        data_path = synthetic_dataset_file(tmp_path / "d.csv", china)
        T, L, p = 3, china.n, 3
        post = GwrPosterior(locations=tuple(china.vertices), beta=np.zeros((T, L, p)),
                            sigma2=np.ones((T, L)), gamma=np.ones((T, p), dtype=int),
                            b=np.ones(T), acceptance_rate_b=0.0, proposal_scale=np.nan)
        chains = tmp_path / "chains.csv"
        dataio.write_chains(chains, post)

        def nan_assess(*args):
            a = assess(*args)
            if field == "log_cpo":
                a.log_cpo[7] = np.nan
            else:
                setattr(a, field, np.nan)
            return a

        monkeypatch.setattr(cli, "assess", nan_assess)
        aout = tmp_path / "assess"
        assert main(["assess", "--data", str(data_path), "--chains", str(chains),
                     "--kernel", "exponential", "--out", str(aout)]) == 1
        err = capsys.readouterr().err
        assert f"bgwr: error: non-finite assessment: {field}\n" in err
        assert not aout.exists() or not os.listdir(aout)

    def test_missing_data_file_nonzero_exit(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "bgwr: error:" in capsys.readouterr().err

    def test_simulate_smoke(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--design", "constant", "--setting", "1",
                   "--replicates", "1", "--chain", "300", "--burnin", "100",
                   "--kernel", "exponential", "--out", str(out)])
        assert rc == 0
        report = (out / "report.csv").read_text()
        assert report.startswith("coefficient,mab,msd,mmse,mcr,acc")
        manifest = dataio.load_config(out / "manifest.txt")
        assert manifest["replicates_done"] == "1"

    def test_assess_round_trip(self, tmp_path, china, china_d):
        data_path = synthetic_dataset_file(tmp_path / "d.csv", china)
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(data_path), "--out", str(out),
                     "--kernel", "exponential", "--chain", "300",
                     "--burnin", "100", "--seed", "3", "--dump-chains"]) == 0
        aout = tmp_path / "assess"
        assert main(["assess", "--data", str(data_path),
                     "--chains", str(out / "chains.csv"),
                     "--kernel", "exponential", "--out", str(aout)]) == 0
        written = dataio.load_config(aout / "assessment.csv")

        data = dataio.parse_dataset(data_path)
        cfg = BayesConfig(chain_length=300, burn_in=100, seed=3)
        post = run_sampler(data, china_d, "exponential", cfg)
        ref = assess(post, data)
        assert float(written["dic"]) == pytest.approx(ref.dic, rel=1e-12)
        assert float(written["lpml"]) == pytest.approx(ref.lpml, rel=1e-12)

    def test_assess_keeps_log_cpo_of_a_far_observation(self, tmp_path, china):
        # y = 1000 under N(0, 1) draws: log CPO is about -5e5, far below the
        # -745 at which CPO itself underflows to 0
        data_path = synthetic_dataset_file(tmp_path / "d.csv", china)
        lines = data_path.read_text().splitlines()
        cells = lines[1].split(",")
        lines[1] = ",".join([cells[0], "1000.0"] + cells[2:])
        write_lines(data_path, lines)
        T, L, p = 3, china.n, 3
        post = GwrPosterior(locations=tuple(china.vertices), beta=np.zeros((T, L, p)),
                            sigma2=np.ones((T, L)), gamma=np.ones((T, p), dtype=int),
                            b=np.ones(T), acceptance_rate_b=0.0, proposal_scale=np.nan)
        chains = tmp_path / "chains.csv"
        dataio.write_chains(chains, post)
        aout = tmp_path / "assess"
        assert main(["assess", "--data", str(data_path), "--chains", str(chains),
                     "--kernel", "exponential", "--out", str(aout)]) == 0
        cpo = np.loadtxt(aout / "cpo.csv", delimiter=",", skiprows=1)
        lpml = float(dataio.load_config(aout / "assessment.csv")["lpml"])
        assert np.all(np.isfinite(cpo[:, 2]))
        assert cpo[0, 1] == 0.0 and cpo[0, 2] < -4e5
        assert cpo[:, 2].sum() == pytest.approx(lpml, rel=1e-12)

    def test_chain_dump_round_trip(self, tmp_path, china, china_d):
        data = dataio.parse_dataset(synthetic_dataset_file(tmp_path / "d.csv", china))
        cfg = BayesConfig(chain_length=200, burn_in=50, seed=9)
        post = run_sampler(data, china_d, "exponential", cfg)
        path = tmp_path / "chains.csv"
        dataio.write_chains(path, post)
        back = dataio.read_chains(path)
        np.testing.assert_array_equal(back.beta, post.beta)
        np.testing.assert_array_equal(back.sigma2, post.sigma2)
        np.testing.assert_array_equal(back.gamma, post.gamma)
        np.testing.assert_array_equal(back.b, post.b)
        assert back.locations == post.locations

    def test_chain_dump_matches_row_by_row_format(self, tmp_path):
        # byte-level oracle: every field of every row through fmt, joined
        rng = np.random.default_rng(5)
        T, L, p = 4, 3, 2
        beta = rng.normal(size=(T, L, p)) * 10.0 ** rng.integers(-5, 6, size=(T, L, p))
        beta[0, 0, 0], beta[1, 2, 1], beta[2, 1, 0], beta[3, 2, 0] = -2.5e-300, 1.7e308, np.inf, -np.inf
        sigma2 = rng.gamma(1.0, size=(T, L))
        sigma2[3, 0] = np.inf
        post = GwrPosterior(locations=("a", "b b", "c-1"), beta=beta, sigma2=sigma2,
                            gamma=rng.integers(0, 2, size=(T, p)),
                            b=np.array([0.5, -1e-20, 3.0, 1.2345678901234567e22]),
                            acceptance_rate_b=0.5, proposal_scale=np.nan)
        def fmt(v):
            return format(v, ".17g")  # -inf keeps its sign

        lines = ["draw,location,b,sigma2,beta_1,beta_2,gamma_1,gamma_2"]
        for t in range(T):
            for k, s in enumerate(post.locations):
                row = [str(t), s, fmt(float(post.b[t])), fmt(float(post.sigma2[t, k]))]
                row += [fmt(float(v)) for v in post.beta[t, k]]
                row += [str(int(g)) for g in post.gamma[t]]
                lines.append(",".join(row))
        path = tmp_path / "chains.csv"
        dataio.write_chains(path, post)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert lines[1 + 3 * L + 2].split(",")[4] == "-inf"

    def test_chain_dump_round_trip_keeps_infinities(self, tmp_path):
        T, L, p = 2, 2, 2
        beta = np.zeros((T, L, p))
        beta[0, 1, 0], beta[1, 0, 1] = -np.inf, np.inf
        post = GwrPosterior(locations=("a", "b"), beta=beta, sigma2=np.ones((T, L)),
                            gamma=np.ones((T, p), dtype=int), b=np.array([1.0, 2.0]),
                            acceptance_rate_b=0.5, proposal_scale=np.nan)
        path = tmp_path / "chains.csv"
        dataio.write_chains(path, post)
        back = dataio.read_chains(path)
        np.testing.assert_array_equal(back.beta, beta)
        assert np.isnan(back.acceptance_rate_b) and np.isnan(back.proposal_scale)
        assert [dataio.fmt(v) for v in (-np.inf, np.inf, -0.5)] == ["-inf", "inf", "-0.5"]

    def test_read_chains_aligns_names_across_blank_lines(self, tmp_path):
        T, L, p = 3, 3, 2
        post = GwrPosterior(locations=("a", "b b", "c"),
                            beta=np.arange(T * L * p, dtype=float).reshape(T, L, p),
                            sigma2=np.arange(1.0, 1.0 + T * L).reshape(T, L),
                            gamma=np.ones((T, p), dtype=int), b=np.array([1.0, 2.0, 3.0]),
                            acceptance_rate_b=0.5, proposal_scale=np.nan)
        path = tmp_path / "chains.csv"
        dataio.write_chains(path, post)
        lines = path.read_text().splitlines()
        # empty lines inside the rows and after the last one
        write_lines(path, lines[:3] + [""] + lines[3:5] + ["", ""] + lines[5:] + [""])
        back = dataio.read_chains(path)
        assert back.locations == post.locations
        np.testing.assert_array_equal(back.beta, post.beta)
        np.testing.assert_array_equal(back.sigma2, post.sigma2)
        np.testing.assert_array_equal(back.b, post.b)
        write_lines(path, lines[:1] + ["", "  "])
        with pytest.raises(ValueError, match="empty chain dump"):
            dataio.read_chains(path)

    def test_assess_rejects_truncated_chains(self, tmp_path, china, capsys):
        data_path = synthetic_dataset_file(tmp_path / "d.csv", china)
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(data_path), "--out", str(out),
                     "--kernel", "exponential", "--chain", "150",
                     "--burnin", "100", "--seed", "3", "--dump-chains"]) == 0
        chains = out / "chains.csv"
        lines = chains.read_text().splitlines(keepends=True)
        chains.write_text("".join(lines[:-1]))
        aout = tmp_path / "assess"
        assert main(["assess", "--data", str(data_path), "--chains", str(chains),
                     "--kernel", "exponential", "--out", str(aout)]) == 1
        assert "incomplete chain dump" in capsys.readouterr().err
        assert not aout.exists() or not os.listdir(aout)

    def test_assess_rejects_chain_locations_outside_the_graph(self, tmp_path, china, capsys):
        data_path = synthetic_dataset_file(tmp_path / "d.csv", china)
        T, p = 2, 3
        locations = tuple(china.vertices[1:]) + ("Atlantis",)
        L = len(locations)
        post = GwrPosterior(locations=locations, beta=np.zeros((T, L, p)),
                            sigma2=np.ones((T, L)), gamma=np.ones((T, p), dtype=int),
                            b=np.ones(T), acceptance_rate_b=0.0, proposal_scale=np.nan)
        chains = tmp_path / "chains.csv"
        dataio.write_chains(chains, post)
        aout = tmp_path / "assess"
        assert main(["assess", "--data", str(data_path), "--chains", str(chains),
                     "--kernel", "exponential", "--out", str(aout)]) == 1
        assert "chain locations not in the graph: ['Atlantis']" in capsys.readouterr().err
        assert not aout.exists() or not os.listdir(aout)

    @pytest.mark.parametrize("edit", ["duplicate_row", "gamma_differs", "b_differs",
                                      "short_row"])
    def test_read_chains_rejects_inconsistent_dump(self, tmp_path, china, china_d, edit):
        data = dataio.parse_dataset(synthetic_dataset_file(tmp_path / "d.csv", china))
        post = run_sampler(data, china_d, "exponential",
                           BayesConfig(chain_length=60, burn_in=50, seed=9))
        path = tmp_path / "chains.csv"
        dataio.write_chains(path, post)
        lines = path.read_text().splitlines()
        p = post.beta.shape[2]
        cells = lines[5].split(",")
        if edit == "duplicate_row":
            lines[6] = lines[5]
        elif edit == "gamma_differs":
            cells[4 + p] = str(1 - int(cells[4 + p]))
            lines[5] = ",".join(cells)
        elif edit == "b_differs":
            cells[2] = repr(float(cells[2]) + 1.0)
            lines[5] = ",".join(cells)
        else:
            lines[5] = ",".join(cells[:-1])
        write_lines(path, lines)
        with pytest.raises(ValueError):
            dataio.read_chains(path)


def g17(v):
    return format(float(v), ".17g")


def edge_values(shape, seed, edges=(np.inf, -np.inf, np.nan, 1.7e308, -2.5e-300)):
    """Floats over ten decades with the edge values scattered among them."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    flat = rng.normal(size=size) * 10.0 ** rng.integers(-5, 6, size=size)
    flat[:len(edges)] = edges
    return rng.permutation(flat).reshape(shape)


def expected_bytes(lines):
    return ("\n".join(lines) + "\n").encode()


class TestWriterOracles:
    """Byte-level oracles for the CSV writers: every field of every line built
    on its own with format(v, '.17g'), as the chain-dump oracle does."""

    LABELS = ("a", "b b", "c-1")

    def test_dataset(self, tmp_path):
        # a Dataset holds finite values only: its extremes are the edges here
        X = edge_values((6, 2), 1, edges=(1.7e308, -2.5e-300, -0.0))
        y = edge_values((6,), 2, edges=(-1.7e308, 2.5e-300))
        locations = ("a", "b b", "c-1", "a", "b b", "c-1")
        dataio.write_dataset(tmp_path / "d.csv", Dataset(y=y, X=X, locations=locations))
        lines = ["location,y,x1,x2"]
        lines += [",".join([s, g17(y[i]), g17(X[i, 0]), g17(X[i, 1])])
                  for i, s in enumerate(locations)]
        assert (tmp_path / "d.csv").read_bytes() == expected_bytes(lines)

    def summary(self):
        L, p = len(self.LABELS), 2
        return PosteriorSummary(locations=self.LABELS, beta_mean=edge_values((L, p), 3),
                                sigma2_mean=edge_values((L,), 4, edges=(np.nan, 1.7e308)),
                                hpd_lower=edge_values((L, p), 5),
                                hpd_upper=edge_values((L, p), 6),
                                inclusion_freq=np.array([1.0, 2.5e-300, np.nan]),
                                selected=(1, 3), b_mean=np.inf)

    def test_posterior_summary(self, tmp_path):
        s = self.summary()
        dataio.write_posterior_summary(tmp_path / "s.csv", s)
        lines = ["location,sigma2_mean,beta_1_mean,beta_1_hpd_lower,beta_1_hpd_upper,"
                 "beta_2_mean,beta_2_hpd_lower,beta_2_hpd_upper"]
        for k, loc in enumerate(s.locations):
            row = [loc, g17(s.sigma2_mean[k])]
            for j in range(2):
                row += [g17(s.beta_mean[k, j]), g17(s.hpd_lower[k, j]), g17(s.hpd_upper[k, j])]
            lines.append(",".join(row))
        assert (tmp_path / "s.csv").read_bytes() == expected_bytes(lines)

    def test_gamma_table(self, tmp_path):
        dataio.write_gamma_table(tmp_path / "g.csv", self.summary())
        lines = ["covariate,inclusion_frequency,selected",
                 "x1,1,1", f"x2,{g17(2.5e-300)},0", "x3,nan,1"]
        assert (tmp_path / "g.csv").read_bytes() == expected_bytes(lines)

    def test_b_trace(self, tmp_path):
        b = edge_values((12,), 7)
        post = GwrPosterior(locations=("a",), beta=np.zeros((12, 1, 1)), sigma2=np.ones((12, 1)),
                            gamma=np.ones((12, 1), dtype=int), b=b, acceptance_rate_b=0.5,
                            proposal_scale=1.0)
        dataio.write_b_trace(tmp_path / "b.csv", post)
        lines = ["draw,b"] + [f"{t},{g17(v)}" for t, v in enumerate(b)]
        assert (tmp_path / "b.csv").read_bytes() == expected_bytes(lines)

    def test_coefficients(self, tmp_path):
        beta = edge_values((3, 3), 8)
        fit = FreqFit(locations=self.LABELS, beta_hat=beta, sse=1.0, effective_params=3.0)
        dataio.write_coefficients(tmp_path / "c.csv", fit)
        lines = ["location,beta_1,beta_2,beta_3"]
        lines += [",".join([s] + [g17(v) for v in beta[k]]) for k, s in enumerate(self.LABELS)]
        assert (tmp_path / "c.csv").read_bytes() == expected_bytes(lines)

    def test_sse_table(self, tmp_path):
        values = edge_values((6, 2), 9)
        table = [(np.float64(b), float(sse)) for b, sse in values]
        dataio.write_sse_table(tmp_path / "t.csv", table)
        lines = ["bandwidth,sse"] + [f"{g17(b)},{g17(sse)}" for b, sse in values]
        assert (tmp_path / "t.csv").read_bytes() == expected_bytes(lines)

    def test_bayes_report(self, tmp_path):
        scores = edge_values((5, 3), 10)
        report = SimulationReport(coefficients=("x1", "x2", "x3"), mab=scores[0],
                                  msd=scores[1], mmse=scores[2], mcr=scores[3],
                                  acc=scores[4], model_acc=0.25, mean_bandwidth=1.7e308,
                                  mean_p_d=-2.5e-300, mean_dic=np.inf, mean_lpml=np.nan,
                                  errors=[(2, "ValueError: b b, c-1")], replicates_done=3)
        dataio.write_report(tmp_path / "r.csv", report)
        lines = ["coefficient,mab,msd,mmse,mcr,acc"]
        lines += [",".join([f"x{j + 1}"] + [g17(v) for v in scores[:, j]]) for j in range(3)]
        lines += ["model_acc,0.25", f"mean_bandwidth,{g17(1.7e308)}",
                  f"mean_p_d,{g17(-2.5e-300)}", "mean_dic,inf", "mean_lpml,nan",
                  "error_replicate_2,ValueError: b b, c-1"]
        assert (tmp_path / "r.csv").read_bytes() == expected_bytes(lines)

    @pytest.mark.parametrize("methods", ["freq", "bayes,freq"])
    def test_report_holds_the_columns_of_each_method_that_ran(self, tmp_path, methods):
        scores = edge_values((8, 2), 13)
        nan = np.full(2, np.nan)
        bayes = "bayes" in methods
        report = SimulationReport(coefficients=("x1", "x2"),
                                  **{name: scores[i] if bayes else nan for i, name in
                                     enumerate(("mab", "msd", "mmse", "mcr", "acc"))},
                                  model_acc=1.0 if bayes else np.nan,
                                  mean_bandwidth=2.5 if bayes else None,
                                  freq_mab=scores[5], freq_msd=scores[6], freq_mmse=scores[7],
                                  freq_effective_params=-2.5e-300,
                                  errors=[(0, "SingularSystemError: b-b")], replicates_done=1)
        dataio.write_report(tmp_path / "r.csv", report)
        used = range(0 if bayes else 5, 8)
        header = ["mab", "msd", "mmse", "mcr", "acc", "freq_mab", "freq_msd", "freq_mmse"]
        lines = [",".join(["coefficient"] + [header[i] for i in used])]
        lines += [",".join([f"x{j + 1}"] + [g17(scores[i, j]) for i in used]) for j in range(2)]
        lines += ["model_acc,1", "mean_bandwidth,2.5"] if bayes else []
        lines += [f"freq_effective_params,{g17(-2.5e-300)}",
                  "error_replicate_0,SingularSystemError: b-b"]
        assert (tmp_path / "r.csv").read_bytes() == expected_bytes(lines)

    def test_cpo_table(self, tmp_path, china, monkeypatch):
        data_path = synthetic_dataset_file(tmp_path / "d.csv", china)
        T, L, p = 2, china.n, 3
        post = GwrPosterior(locations=tuple(china.vertices), beta=np.zeros((T, L, p)),
                            sigma2=np.ones((T, L)), gamma=np.ones((T, p), dtype=int),
                            b=np.ones(T), acceptance_rate_b=0.0, proposal_scale=np.nan)
        chains = tmp_path / "chains.csv"
        dataio.write_chains(chains, post)
        cpo = edge_values((150,), 11)
        # the CLI refuses a non-finite log CPO, so its edges are finite
        log_cpo = edge_values((150,), 12, edges=(1.7e308, -2.5e-300, -1.7e308))

        def edge_assess(*args):
            a = assess(*args)
            a.cpo, a.log_cpo = cpo, log_cpo
            return a

        monkeypatch.setattr(cli, "assess", edge_assess)
        aout = tmp_path / "assess"
        assert main(["assess", "--data", str(data_path), "--chains", str(chains),
                     "--kernel", "exponential", "--out", str(aout)]) == 0
        lines = ["observation,cpo,log_cpo"]
        lines += [f"{i},{g17(c)},{g17(lc)}" for i, (c, lc) in enumerate(zip(cpo, log_cpo))]
        assert (aout / "cpo.csv").read_bytes() == expected_bytes(lines)
