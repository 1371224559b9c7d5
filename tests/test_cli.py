import filecmp
import os

import numpy as np
import pytest

from bgwr import dataio
from bgwr.assessment import assess
from bgwr.bayes_gwr import BayesConfig, GwrPosterior, run_sampler
from bgwr.cli import DEFAULTS, _resolve, build_parser, main
from bgwr.spatial_graph import DistanceMatrix, graph_distances


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

    def test_chain_dump_round_trip(self, tmp_path, china, china_d):
        data = dataio.parse_dataset(synthetic_dataset_file(tmp_path / "d.csv", china))
        cfg = BayesConfig(chain_length=200, burn_in=50, seed=9)
        post = run_sampler(data, china_d, "exponential", cfg)
        path = tmp_path / "chains.csv"
        dataio.write_chains(path, post)
        back = dataio.read_chains(path, "exponential", china_d)
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
                            acceptance_rate_b=0.5, kernel="exponential",
                            dsub=np.zeros((L, L)), config=BayesConfig())
        fmt = dataio.fmt
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
            dataio.read_chains(path, "exponential", china_d)
