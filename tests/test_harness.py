"""Simulation moments, sweep bookkeeping, config parsing, and the CLI."""

import json
import math

import numpy as np
import pytest

from nsmml import (
    InvalidConfigError,
    ProblemConfig,
    ip_estimate,
    marginalized_sigma2_ml,
    ml_estimate,
    resolve_prior,
    simulate,
    sufficient_stats,
    wf_estimate,
)
from nsmml.harness import SweepSpec, parse_sweep_config, rows_to_csv, run_sweep, trial_ratios
from nsmml.cli import main

SWEEP_CONFIG = """\
# consistency dichotomy at J = 2
J = 2
N_list = 50, 200
trials = 40
sigma2_true = 1.0
mu_law = normal
estimators = ML, IP, WF, MARGINALIZED
priors = wallace, scale-free
seed = 777
"""


class TestSimulate:
    def test_deterministic_given_seed(self):
        cfg = ProblemConfig(N=3, J=4)
        a = simulate(cfg, 2.0, [0.0, 1.0, -1.0], 99)
        b = simulate(cfg, 2.0, [0.0, 1.0, -1.0], 99)
        np.testing.assert_array_equal(a, b)
        c = simulate(cfg, 2.0, [0.0, 1.0, -1.0], 100)
        assert not np.array_equal(a, c)

    def test_group_mean_clt_bound(self):
        cfg = ProblemConfig(N=3, J=2)
        mu = np.array([0.5, -1.0, 2.0])
        sigma2 = 1.5
        trials = 10_000
        means = np.empty((trials, cfg.N))
        for t in range(trials):
            means[t] = simulate(cfg, sigma2, mu, t).mean(axis=1)
        se = math.sqrt(sigma2 / cfg.J / trials)
        assert np.all(np.abs(means.mean(axis=0) - mu) < 4.0 * se)

    def test_within_group_variance_moment(self):
        # E[s^2] = sigma^2 (J-1)/J: the engine of the inconsistency.
        cfg = ProblemConfig(N=5, J=2)
        sigma2 = 2.0
        trials = 10_000
        vals = np.empty(trials)
        for t in range(trials):
            vals[t] = sufficient_stats(simulate(cfg, sigma2, np.zeros(5), t), cfg).s2
        expected = sigma2 * (cfg.J - 1) / cfg.J
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - expected) < 4.0 * se


class TestRunSweep:
    def test_degenerate_single_trial_matches_direct_call(self):
        spec = SweepSpec(J=2, N_list=(1,), trials=1, sigma2_true=1.0, seed=5)
        rows = run_sweep(spec)
        cfg = ProblemConfig(N=1, J=2)
        ss = np.random.SeedSequence((5, 1, 0))
        rng = np.random.Generator(np.random.PCG64(ss))
        from nsmml.harness import standard_normal, _true_means

        mu = _true_means(spec, cfg, rng)
        data = mu[:, None] + standard_normal(rng, (1, 2))
        stat = sufficient_stats(data, cfg)
        by_key = {(r.estimator, r.prior_p): r for r in rows}
        assert by_key[("ML", None)].mean_ratio == pytest.approx(ml_estimate(stat, cfg).theta.sigma2)
        assert by_key[("IP", 1.0)].mean_ratio == pytest.approx(
            ip_estimate(stat, resolve_prior("wallace", cfg), cfg).theta.sigma2
        )
        assert by_key[("WF", 2.0)].mean_ratio == pytest.approx(
            wf_estimate(stat, resolve_prior("scale-free", cfg), cfg).theta.sigma2
        )
        assert by_key[("MARGINALIZED_SIGMA2", None)].mean_ratio == pytest.approx(
            marginalized_sigma2_ml(stat, cfg)
        )
        assert all(r.sd_ratio == 0.0 for r in rows)

    def test_pooled_mean_equals_weighted_half_means(self):
        spec = SweepSpec(J=3, N_list=(20,), trials=30, seed=8)
        ratios = trial_ratios(spec, 20)[("ML", None)]
        pooled = ratios.mean()
        halves = 0.5 * (ratios[:15].mean() + ratios[15:].mean())
        assert pooled == pytest.approx(halves, rel=1e-12)

    def test_rows_deterministic_order_and_recomputable(self):
        spec = parse_sweep_config(SWEEP_CONFIG)
        rows = run_sweep(spec)
        assert [r.N for r in rows] == [50] * 6 + [200] * 6
        assert [r.estimator for r in rows[:6]] == [
            "ML", "IP", "IP", "WF", "WF", "MARGINALIZED_SIGMA2",
        ]
        # recompute one row from its (seed, N, trial) substreams
        target = rows[1]  # IP under the Wallace prior at N = 50
        cfg = ProblemConfig(N=50, J=2)
        prior = resolve_prior("wallace", cfg)
        vals = trial_ratios(spec, 50)[("IP", "wallace")]
        assert target.mean_ratio == pytest.approx(vals.mean(), rel=1e-15)
        assert target.sd_ratio == pytest.approx(vals.std(ddof=1), rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(InvalidConfigError):
            SweepSpec(J=2, N_list=(10, 10), trials=5)
        with pytest.raises(InvalidConfigError):
            SweepSpec(J=2, N_list=(10,), trials=0)
        with pytest.raises(InvalidConfigError):
            SweepSpec(J=2, N_list=(10,), trials=1, mu_law="bogus")

    def test_config_parse_errors(self):
        with pytest.raises(InvalidConfigError):
            parse_sweep_config("J = 2\nN_list 10\ntrials = 2\n")
        with pytest.raises(InvalidConfigError):
            parse_sweep_config("J = 2\n")


class TestCli:
    def test_estimate_wallace_ip(self, capsys):
        assert main(["estimate", "--J", "2", "--m", "1.0", "--s2", "1.0",
                     "--prior", "wallace", "--method", "ip"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "method,prior_p,sigma2_hat,mu_hat"
        assert out.splitlines()[1] == "IP,1.0,2.0,1.0"

    def test_estimate_from_raw_matches_stat_route(self, tmp_path, capsys):
        raw = tmp_path / "data.csv"
        raw.write_text("0.0,2.0\n")
        assert main(["estimate", "--raw", str(raw), "--method", "ml"]) == 0
        out = capsys.readouterr().out
        assert "ML,,1.0,1.0" in out

    def test_estimate_json(self, capsys):
        assert main(["estimate", "--J", "2", "--m", "0.0", "--s2", "1.0", "--json",
                     "--method", "ip", "--prior", "scale-free"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "estimates"
        assert payload["rows"][0]["sigma2_hat"] == pytest.approx(1.0)

    def test_simulate_determinism_and_roundtrip(self, tmp_path, capsys):
        args = ["simulate", "--N", "2", "--J", "3", "--sigma2", "1.5", "--mu", "0.5",
                "--seed", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        raw = tmp_path / "m.csv"
        raw.write_text(first)
        assert main(["estimate", "--raw", str(raw), "--method", "ml"]) == 0

    def test_sweep_csv_and_exit(self, tmp_path, capsys):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("J = 2\nN_list = 10\ntrials = 3\nseed = 1\n")
        assert main(["sweep", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "N,estimator,prior_p,mean_ratio,sd_ratio,trials"
        assert len(out.splitlines()) == 7

    def test_sweep_seed_precedence(self, tmp_path, capsys, monkeypatch):
        # --seed, then the config's seed, then NSMML_SEED.
        body = "J = 2\nN_list = 10\ntrials = 5\n"
        cfgfile = tmp_path / "sweep.cfg"

        def cli_csv(config, *flags):
            cfgfile.write_text(config)
            assert main(["sweep", "--config", str(cfgfile), *flags]) == 0
            return capsys.readouterr().out

        def direct_csv(seed):
            return rows_to_csv(run_sweep(parse_sweep_config(f"{body}seed = {seed}\n")))

        monkeypatch.setenv("NSMML_SEED", "7")
        assert cli_csv(f"{body}seed = 12345\n") == direct_csv(12345)
        assert cli_csv(f"{body}seed = 12345\n", "--seed", "3") == direct_csv(3)
        assert cli_csv(body) == direct_csv(7)
        assert direct_csv(12345) != direct_csv(7)

    def test_regularity_exit_codes(self, capsys):
        assert main(["regularity", "--prior", "scale-free", "--N", "2", "--J", "2"]) == 0
        capsys.readouterr()
        code = main(["regularity", "--prior", "wallace", "--check", "homogeneity",
                     "--N", "2", "--J", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "drift_max_residual" in captured.out
        assert "failed" in captured.err

    def test_locality_cli(self, capsys):
        assert main(["locality", "--N", "2", "--J", "2", "--c", "120"]) == 0
        out = capsys.readouterr().out
        assert "all_pass true" in out
        assert main(["locality", "--N", "1", "--J", "2"]) == 1
        assert "requires N >= 2" in capsys.readouterr().err

    def test_smml_cli_roundtrip(self, tmp_path, capsys):
        problem_file = tmp_path / "prob.txt"
        book_file = tmp_path / "book.txt"
        assert main(["smml", "--N", "1", "--J", "2", "--resolution", "6",
                     "--interior-margin", "1", "--seed", "0",
                     "--save-problem", str(problem_file),
                     "--save-codebook", str(book_file)]) == 0
        out = capsys.readouterr().out
        assert "kind smml" in out
        assert problem_file.exists() and book_file.exists()
        assert main(["smml", "--load-problem", str(problem_file), "--solver", "local",
                     "--seed", "0"]) == 0

    def test_smml_torus_transport_report(self, capsys):
        assert main(["smml", "--N", "1", "--J", "2", "--torus", "12",
                     "--torus-stride", "2", "--shift", "4", "--json", "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["transport"]["delta_L"]) < 1e-12

    def test_env_seed_and_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NSMML_SEED", "17")
        monkeypatch.setenv("NSMML_OUTDIR", str(tmp_path))
        assert main(["simulate", "--N", "1", "--J", "2", "--out", "sim.csv"]) == 0
        envout = (tmp_path / "sim.csv").read_text()
        monkeypatch.delenv("NSMML_SEED")
        assert main(["simulate", "--N", "1", "--J", "2", "--seed", "17",
                     "--out", str(tmp_path / "flag.csv")]) == 0
        assert envout == (tmp_path / "flag.csv").read_text()

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense without equals\n")
        assert main(["sweep", "--config", str(bad)]) == 2
        assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        capsys.readouterr()
        assert main(["smml", "--load-problem", str(empty)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_csv_rows_byte_stable(self):
        spec = parse_sweep_config(SWEEP_CONFIG)
        assert rows_to_csv(run_sweep(spec)) == rows_to_csv(run_sweep(spec))
