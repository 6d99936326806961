"""Simulation moments, sweep bookkeeping, config parsing, and the CLI."""

import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from nsmml import (
    DegenerateInputError,
    InvalidConfigError,
    PriorSpec,
    ProblemConfig,
    ip_estimate,
    marginalized_sigma2_ml,
    ml_estimate,
    resolve_prior,
    simulate,
    sufficient_stats,
    wf_estimate,
)
from nsmml import codebook as cbk
from nsmml import harness
from nsmml.estimators import SIGMA2_HAT, _to_coords
from nsmml.harness import SweepSpec, parse_sweep_config, rows_to_csv, run_sweep, standard_normal, trial_ratios
from nsmml.cli import main
from nsmml.model import _BLOCK
from nsmml.reporting import render_json

from oracles import oracle_standard_normal, oracle_trial_ratios, record_blocks

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"

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
    def test_readme_library_example(self):
        # Run the README's block statement by statement, keeping the value
        # of each bare expression, and check what its comments say.
        block = README.read_text().split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace, values = {}, []
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        ml, ip_wallace, ip_scale_free = values
        assert ml == pytest.approx(0.5, abs=0.05)
        assert ip_wallace == pytest.approx(1.0, abs=0.1)
        assert ip_scale_free == ml

    def test_deterministic_given_seed(self):
        cfg = ProblemConfig(N=3, J=4)
        a = simulate(cfg, 2.0, [0.0, 1.0, -1.0], 99)
        b = simulate(cfg, 2.0, [0.0, 1.0, -1.0], 99)
        np.testing.assert_array_equal(a, b)
        c = simulate(cfg, 2.0, [0.0, 1.0, -1.0], 100)
        assert not np.array_equal(a, c)

    def test_mean_is_one_or_n_finite_values(self):
        cfg = ProblemConfig(N=2, J=3)
        np.testing.assert_array_equal(simulate(cfg, 1.0, 0.5, 4), simulate(cfg, 1.0, [0.5, 0.5], 4))
        for mu in ([1.0, 2.0, 3.0], [], [[0.0], [1.0]], [0.0, math.nan], math.inf):
            with pytest.raises(InvalidConfigError, match="mu_true"):
                simulate(cfg, 1.0, mu, 0)

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
        from nsmml.harness import standard_normal

        mu = standard_normal(rng, cfg.N)
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
        vals = trial_ratios(spec, 50)[("IP", 1.0)]
        assert target.mean_ratio == pytest.approx(vals.mean(), rel=1e-15)
        assert target.sd_ratio == pytest.approx(vals.std(ddof=1), rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(InvalidConfigError):
            SweepSpec(J=2, N_list=(10, 10), trials=5)
        with pytest.raises(InvalidConfigError):
            SweepSpec(J=2, N_list=(10,), trials=0)
        for law in ("bogus", "fixed:abc", "fixed:nan", "fixed:inf", "fixed:"):
            with pytest.raises(InvalidConfigError):
                SweepSpec(J=2, N_list=(10,), trials=1, mu_law=law)
        # Names are mapped by the text front ends; the spec takes constants only.
        for methods in ((), ("ml",), ("MARGINALIZED",)):
            with pytest.raises(InvalidConfigError):
                SweepSpec(J=2, N_list=(10,), trials=1, estimators=methods)
        with pytest.raises(InvalidConfigError):
            SweepSpec(J=2, N_list=(10,), trials=1, seed=-1)
        for sigma2 in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidConfigError, match=f"sigma2_true must be finite and > 0, got {sigma2!r}"):
                SweepSpec(J=2, N_list=(10,), trials=1, sigma2_true=sigma2)
        # A bare count or a string is not a list of group counts, nor of
        # estimators or priors.
        for n_list in (10, "10"):
            with pytest.raises(InvalidConfigError, match=f"N_list must be a sequence, got {n_list!r}"):
                SweepSpec(J=2, N_list=n_list, trials=2)
        for field, value in (("estimators", 5), ("priors", 3), ("priors", "wallace")):
            with pytest.raises(InvalidConfigError, match=f"{field} must be a sequence, got {value!r}"):
                SweepSpec(J=2, N_list=(10,), trials=2, **{field: value})
        with pytest.raises(InvalidConfigError, match="unknown mu_law 5"):
            SweepSpec(J=2, N_list=(10,), trials=2, mu_law=5)

    def test_trial_ratios_reject_zero_s2(self, monkeypatch):
        # Constant data within every group gives s2 = 0 in every trial.
        monkeypatch.setattr("nsmml.harness._normal_from_bits", lambda k: np.zeros(k.shape))
        with pytest.raises(DegenerateInputError):
            trial_ratios(SweepSpec(J=2, N_list=(3,), trials=4), 3)

    @pytest.mark.parametrize("law", ["fixed:1.7e308", "normal"])
    def test_trial_ratios_reject_overflow(self, law):
        # Means near the float maximum overflow the group means; a variance
        # near it overflows the squared deviations.
        sigma2 = 1.0 if law != "normal" else 1.7e308
        with pytest.raises(InvalidConfigError, match="out of the float range"):
            trial_ratios(SweepSpec(J=2, N_list=(3,), trials=4, sigma2_true=sigma2, mu_law=law), 3)

    @pytest.mark.parametrize("n, trials, sigma2", [(10, 50, 5e-324), (1, 2000, 1e-320)])
    def test_trial_ratios_report_underflow_as_float_range(self, n, trials, sigma2):
        # The squared deviations underflow to s2 = 0 on data that still vary
        # within their groups: the inputs leave the float range, and the
        # data are not degenerate.  At N = 1, 1e-315 keeps every s2 > 0.
        spec = SweepSpec(J=2, N_list=(n,), trials=trials, sigma2_true=sigma2, mu_law="zero")
        message = f"sigma2_true = {sigma2!r} and mu_law = 'zero' take the group means or s2 out of the float range"
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            trial_ratios(spec, n)
        if n == 1:
            ratios = trial_ratios(dataclasses.replace(spec, sigma2_true=1e-315), n)
            assert all(np.isfinite(v).all() for v in ratios.values())

    def test_trial_ratios_report_rounded_away_noise_as_float_range(self):
        # 1e10 + 1e-150 z rounds to 1e10, so every group is constant while
        # the normals drawn for it vary: the inputs leave the float range,
        # and the draws are not degenerate.
        spec = SweepSpec(J=2, N_list=(10,), trials=5, sigma2_true=1e-300, mu_law="fixed:1e10")
        message = "sigma2_true = 1e-300 and mu_law = 'fixed:1e10' take the group means or s2 out of the float range"
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            trial_ratios(spec, 10)

    @pytest.mark.parametrize("block", ["default", "one trial", "three trials"])
    @pytest.mark.parametrize("law", ["normal", "zero", "fixed:-3.25"])
    def test_blocked_trials_match_one_trial_at_a_time(self, monkeypatch, law, block):
        # Trials are drawn into blocks and transformed and reduced a block
        # at a time; every ratio must keep the bits of a trial run alone,
        # also in a last block that is only partly filled.
        for n, j in ((n, j) for n in (1, 3, 50, 2000) for j in (2, 3, 5, 8)):
            width = n * j + (n if law == "normal" else 0)
            per_block = {"default": _BLOCK // width, "one trial": 1, "three trials": 3}[block]
            monkeypatch.setattr("nsmml.model._BLOCK", per_block * width)
            trials = 2 * per_block + 1 if 2 <= per_block < 500 else 7
            spec = SweepSpec(J=j, N_list=(n,), trials=trials, mu_law=law, seed=n + j)
            blocks = record_blocks(monkeypatch, "nsmml.harness")
            got, want = trial_ratios(spec, n), oracle_trial_ratios(spec, n)
            sizes = [min(per_block, trials - lo) for lo in range(0, trials, per_block)]
            assert [blk.stop - blk.start for blk in blocks] == sizes
            assert got.keys() == want.keys()
            assert all(got[key].tobytes() == want[key].tobytes() for key in want), (n, j)

    def test_seed_states_match_seed_sequence(self):
        # Trials' PCG64 seed words are hashed a block at a time by
        # SeedSequence's own steps.  t = 2^32 + 5 adds an entropy word, and
        # with a 3-word seed and a 2-word N runs the mixing past the pool.
        given_state = harness._given_state()
        for seed in (0, 7, 2**31 - 1, 2**40, 2**64 - 1, 2**70 + 5):
            for n in (1, 10, 20000, 2**33):
                for t in (0, 1, 2**32 - 1, 2**32 + 5):
                    got = harness._seed_states(seed, n, range(t, t + 1))
                    want = np.random.SeedSequence((seed, n, t)).generate_state(4, np.uint64)
                    assert got.shape == (1, 4) and got.tobytes() == want.tobytes(), (seed, n, t)
                    raw = np.random.PCG64(given_state(got[0])).random_raw(45)
                    assert raw.tobytes() == np.random.PCG64((seed, n, t)).random_raw(45).tobytes(), (seed, n, t)
                # A block of trials, and one across 2^32 (each side hashed alone).
                for trials in (range(0, 40), range(2**32 - 3, 2**32 + 2)):
                    want = [np.random.SeedSequence((seed, n, t)).generate_state(4, np.uint64) for t in trials]
                    assert harness._seed_states(seed, n, trials).tobytes() == np.array(want).tobytes(), (seed, n)

    @pytest.mark.parametrize("law", ["normal", "zero", "fixed:-3.25"])
    def test_trial_ratios_match_generator_integers(self, law):
        # Trials read the raw PCG64 words where they once drew
        # Generator.integers(0, 2^53); Lemire's method never rejects on a
        # power-of-two range, so each integer was the next word >> 11.
        for seed in (0, 7, 2**40):
            for n in (1, 10, 100):
                spec = SweepSpec(J=3, N_list=(n,), trials=6, mu_law=law, seed=seed)
                got, want = trial_ratios(spec, n), oracle_trial_ratios(spec, n)
                assert got.keys() == want.keys()
                assert all(got[key].tobytes() == want[key].tobytes() for key in want), (seed, n)
                for t in (0, 5):
                    rng = np.random.default_rng((seed, n, t))
                    drawn = np.concatenate([rng.integers(0, 1 << 53, size=k, dtype=np.int64) for k in (n, 2 * n)])
                    words = np.random.PCG64((seed, n, t)).random_raw(3 * n)
                    assert np.array_equal(words >> 11, drawn), (seed, n, t)

    def test_standard_normal_reads_pcg64_words(self):
        # Two calls read consecutive words, from a Generator or its bare
        # PCG64; a bit generator with other words is rejected by name.
        for seed in (0, 3, 2**40):
            for rng in (np.random.default_rng(seed), np.random.PCG64(seed)):
                old = np.random.default_rng(seed)
                for shape in (1, (4, 3), 7):
                    got, want = standard_normal(rng, shape), oracle_standard_normal(old, shape)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for rng in (np.random.Generator(np.random.MT19937(0)), np.random.MT19937(0), np.random.PCG64DXSM(0), 0):
            with pytest.raises(InvalidConfigError, match="^rng must draw from a PCG64 bit generator, got "):
                standard_normal(rng, 3)

    def test_top_word_gives_a_finite_normal(self):
        # 2k + 1 rounds to 2^54 at the top word, so only the clamp keeps that
        # normal finite; the other words keep the unclamped formula's bits.
        from scipy.special import ndtri

        k = np.array([0, 2**52, 2**53 - 2, 2**53 - 1], np.uint64)
        z = harness._normal_from_bits(k)
        assert np.isfinite(z).all()
        assert z[-1] == ndtri(1.0 - 2.0**-53) and 8.2 < z[-1] < 8.21
        assert z[:-1].tobytes() == ndtri((2.0 * k[:-1] + 1.0) / 2.0**54).tobytes()

    def test_sampler_builds_no_generator(self):
        # The sweep and simulate read bit-generator words; no Generator is
        # built and no bounded-integer sampler, free to change between
        # numpy releases, is called.
        tree = ast.parse(Path(harness.__file__).read_text())
        called = {
            node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert "random_raw" in called
        assert called.isdisjoint({"default_rng", "Generator", "integers", "_draw_bits"})

    def test_config_parse_errors(self):
        base = "J = 2\nN_list = 10\ntrials = 2\n"
        for text in (
            "J = 2\nN_list 10\ntrials = 2\n",
            "J = 2\n",
            "J = x\nN_list = 10\ntrials = 2\n",
            "J = 2\nN_list = 10, a\ntrials = 2\n",
            "J = 2\nN_list = 10\ntrials = 2.5\n",
            base + "mu_law = fixed:abc\n",
            base + "sigma2true = 4\n",
            base + "estimators = ML, foo\n",
        ):
            with pytest.raises(InvalidConfigError):
                parse_sweep_config(text)

    def test_resolve_prior_forms(self):
        cfg = ProblemConfig(N=2, J=2)
        for choice in ("3.5", " 3.5 ", 3.5):
            assert resolve_prior(choice, cfg) == PriorSpec(3.5)
        assert resolve_prior(3, cfg) == PriorSpec(3.0)
        spec = PriorSpec(2.5)
        assert resolve_prior(spec, cfg) is spec
        with pytest.raises(InvalidConfigError, match="unknown prior 'bogus'"):
            resolve_prior("bogus", cfg)
        # A number that is not an admissible exponent names the rule, not "unknown".
        for choice, shown in (("0.5", "0.5"), (" nan", "nan"), ("1e400", "inf"), (0.5, "0.5")):
            with pytest.raises(InvalidConfigError, match=re.escape(f"prior exponent p must be finite and >= 1, got {shown}")):
                resolve_prior(choice, cfg)

    def test_numeric_prior_and_duplicate_rows(self):
        text = "J = 2\nN_list = 10\ntrials = 3\nestimators = IP, ML, IP\npriors = wallace, 1, 3.5, 1.0\n"
        spec = parse_sweep_config(text)
        rows = run_sweep(spec)
        # One row per distinct estimator x prior exponent, in first-listed
        # order, keyed by the exponent.
        assert [(r.estimator, r.prior_p) for r in rows] == [("IP", 1.0), ("IP", 3.5), ("ML", None)]
        assert list(trial_ratios(spec, 10)) == [("IP", 1.0), ("IP", 3.5), ("ML", None)]
        # An empty prior list is malformed when a listed method needs a prior.
        assert [r.estimator for r in run_sweep(parse_sweep_config(text + "priors =\nestimators = ML\n"))] == ["ML"]
        with pytest.raises(InvalidConfigError, match="^no prior given for IP$"):
            run_sweep(parse_sweep_config(text + "priors =\n"))

    def test_zero_and_fixed_mean_laws_agree(self):
        # Neither law draws before the sample, and a fixed mean never enters
        # s2, so the ratios agree bit for bit.
        base = dict(J=3, N_list=(5,), trials=20, seed=11)
        zero = trial_ratios(SweepSpec(**base, mu_law="zero"), 5)
        for law in ("fixed:5", "fixed:-1e15"):
            fixed = trial_ratios(SweepSpec(**base, mu_law=law), 5)
            assert fixed.keys() == zero.keys()
            assert all(fixed[key].tobytes() == ratios.tobytes() for key, ratios in zero.items()), law

    def test_config_defaults_and_method_names(self):
        base = "J = 2\nN_list = 10\ntrials = 2\n"
        assert parse_sweep_config(base) == SweepSpec(J=2, N_list=(10,), trials=2)
        spec = parse_sweep_config(base + "estimators = wf, Marginalized, mL, marginalized_sigma2\n")
        assert spec.estimators == ("WF", "MARGINALIZED_SIGMA2", "ML", "MARGINALIZED_SIGMA2")


# Every SIGMA2_HAT form is c * s2, and NJ s2 / sigma2 ~ chi2(N(J - 1)), so
# every sweep ratio has an exact law.  The gate is fixed before the runs.
LAW_ALPHA = 1e-6


def ml_law_p(spec: SweepSpec, n: int) -> float:
    """KS p-value of ``NJ * ratio`` of the ML rows against ``chi2(N(J - 1))``."""
    ratios = trial_ratios(spec, n)[("ML", None)]
    return stats.kstest(n * spec.J * ratios, stats.chi2(n * (spec.J - 1)).cdf).pvalue


class TestSweepLaw:
    @pytest.mark.parametrize("law", ["zero", "normal", "fixed:1e14"])
    def test_ml_ratios_follow_chi2(self, law):
        for n, trials in ((1, 20000), (10, 20000), (100, 5000), (2000, 1000)):
            spec = SweepSpec(J=2, N_list=(n,), trials=trials, mu_law=law, estimators=("ML",), seed=7)
            assert ml_law_p(spec, n) >= LAW_ALPHA, (law, n)

    def test_means_that_round_the_noise_are_refused(self, tmp_path, capsys):
        # Data stored about a fixed mean round to its ulp: 0.125 at 1e15,
        # 0.25 at 2e15 and 0.5 at 3e15.  s2 reduced from such data reads
        # 0.6-1.2% high at 1e15, which N = 2000 and 2000 trials resolve
        # (KS p = 5.6e-12), so s2 is reduced from the noise alone and 1e15
        # keeps the law.  Past sigma / 8 the sweep refuses before it draws.
        spec = SweepSpec(J=2, N_list=(2000,), trials=2000, mu_law="fixed:1e15", estimators=("ML",), seed=7)
        assert ml_law_p(spec, 2000) >= LAW_ALPHA
        cfgfile = tmp_path / "sweep.cfg"
        for mean in ("2e15", "3e15"):
            message = f"sigma2_true = 1.0 and mu_law = 'fixed:{mean}' take the group means or s2 out of the float range"
            with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                trial_ratios(dataclasses.replace(spec, mu_law=f"fixed:{mean}"), 10)
            cfgfile.write_text(f"J = 2\nN_list = 10\ntrials = 5\nmu_law = fixed:{mean}\n")
            assert main(["sweep", "--config", str(cfgfile)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_readme_sweep_rows_near_exact_mean(self):
        # Each row's mean ratio is c chi2(nu) / (NJ) averaged over the
        # trials, nu = N(J - 1): exact mean c (J - 1) / J and sd
        # c sqrt(2 nu) / (NJ sqrt(trials)).  The largest |z| is about 1.25.
        spec = parse_sweep_config((DATA / "readme_sweep.cfg").read_text())
        rows = (DATA / "readme_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 18
        for row in rows:
            n, method, p, mean, _, trials = row.split(",")
            cfg = ProblemConfig(N=int(n), J=spec.J)
            c = SIGMA2_HAT[method](1.0, PriorSpec(float(p)) if p else None, cfg)
            nu = cfg.N * (cfg.J - 1)
            z = (float(mean) - c * (cfg.J - 1) / cfg.J) / (c * math.sqrt(2 * nu) / (cfg.nj * math.sqrt(int(trials))))
            assert abs(z) <= 4, row


class TestCli:
    def test_estimate_wallace_ip(self, capsys):
        assert main(["estimate", "--J", "2", "--m", "1.0", "--s2", "1.0",
                     "--prior", "wallace", "--method", "ip"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "method,prior_p,sigma2_hat,mu_hat"
        assert out.splitlines()[1] == "IP,1.0,2.0,1.0"
        # Repeated methods and spellings of one exponent give one row.
        assert main(["estimate", "--J", "2", "--m", "1.0", "--s2", "1.0",
                     "--prior", "wallace,1,1.0", "--method", "ip,IP"]) == 0
        assert capsys.readouterr().out == out

    def test_estimate_method_names_case_insensitive(self, capsys):
        argv = ["estimate", "--J", "3", "--m", "1.0,-2.0", "--s2", "0.5"]
        assert main([*argv, "--method", "ml,ip,wf,marginalized"]) == 0
        lower = capsys.readouterr().out
        assert main([*argv, "--method", "mL,IP,Wf,MARGINALIZED_SIGMA2"]) == 0
        assert capsys.readouterr().out == lower
        assert main([*argv, "--method", "all"]) == 0
        assert capsys.readouterr().out == lower
        assert [line.split(",")[0] for line in lower.splitlines()[1:]] == [
            "ML", "IP", "IP", "WF", "WF", "MARGINALIZED_SIGMA2",
        ]
        assert main([*argv, "--method", "ml,bogus"]) == 2
        assert "unknown method 'bogus'" in capsys.readouterr().err

    def test_estimate_degenerate_s2_fails(self, capsys):
        for method in ("all", "marginalized", "ip"):
            assert main(["estimate", "--J", "2", "--m", "1.0", "--s2", "0", "--method", method]) == 1
            assert "s2 must be > 0" in capsys.readouterr().err
            # J/(J-1) * 1e308 is not a finite float: malformed input that names s2.
            assert main(["estimate", "--J", "2", "--m", "1.0", "--s2", "1e308", "--method", method,
                         "--prior", "wallace"]) == 2
            assert "error: s2 = 1e+308 takes the" in capsys.readouterr().err

    def test_estimate_overflow_is_malformed_input(self, capsys):
        # The first row, IP under the Wallace prior, is 2 * 1e308; numpy must not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--J", "2", "--m", "0", "--s2", "1e308"]) == 2
        assert capsys.readouterr() == ("", "error: s2 = 1e+308 takes the IP estimate out of the float range\n")

    def test_estimate_from_raw_matches_stat_route(self, tmp_path, capsys):
        raw = tmp_path / "data.csv"
        raw.write_text("0.0,2.0\n")
        assert main(["estimate", "--raw", str(raw), "--method", "ml"]) == 0
        out = capsys.readouterr().out
        assert "ML,,1.0,1.0" in out

    def test_estimate_raw_overflow_is_malformed_input(self, tmp_path, capsys):
        # The squared deviations of this row overflow; numpy must not warn.
        raw = tmp_path / "huge.csv"
        raw.write_text("1e200,-1e200\n")
        assert main(["estimate", "--raw", str(raw)]) == 2
        err = capsys.readouterr().err
        assert err == "error: data take the group means or s2 out of the float range\n"
        assert "RuntimeWarning" not in err and "encountered" not in err

    def test_estimate_needs_raw_or_statistic(self, tmp_path, capsys):
        for argv in (["estimate"], ["estimate", "--J", "2", "--m", "1.0"], ["estimate", "--m", "1", "--s2", "1"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: estimate needs either --raw or all of --J/--m/--s2\n"
        raw = tmp_path / "ragged.csv"
        raw.write_text("1.0,2.0\n3.0\n")
        assert main(["estimate", "--raw", str(raw)]) == 2
        assert capsys.readouterr().err == "error: raw data must be a rectangular numeric matrix\n"

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

    def test_simulate_json(self, capsys):
        argv = ["simulate", "--N", "2", "--J", "3", "--mu", "1,-2", "--seed", "4"]
        assert main(argv) == 0
        csv = capsys.readouterr().out
        assert main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "raw-data"
        assert payload["data"] == [[float(v) for v in line.split(",")] for line in csv.splitlines()]

    def test_sweep_json_and_prior_names(self, tmp_path, capsys):
        text = "J = 2\nN_list = 10, 20\ntrials = 3\nseed = 1\npriors = wallace, 3.5\n"
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(text)
        assert main(["sweep", "--config", str(cfgfile), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "sweep"
        assert payload["rows"] == [dataclasses.asdict(r) for r in run_sweep(parse_sweep_config(text))]
        assert {r["prior_p"] for r in payload["rows"]} == {None, 1.0, 3.5}
        cfgfile.write_text(text.replace("3.5", "bogus"))
        assert main(["sweep", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr() == ("", "error: unknown prior 'bogus'\n")

    def test_smml_exhaustive_readme_example(self, capsys):
        assert main(["smml", "--torus", "16", "--torus-stride", "2", "--solver", "exhaustive", "--shift", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("L 2.1701103981812238", "n_optimal_codebooks 4", "  delta_L 0.0"):
            assert line in lines

    def test_smml_exhaustive_solves_torus24_ring(self, capsys):
        # The arc route solves in milliseconds a ring that took the
        # count-vector DP 16-18 s and 1.15 GB.
        assert main(["smml", "--torus", "24", "--torus-stride", "2", "--N", "2", "--solver", "exhaustive"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("L 2.727997292044347", "n_optimal_codebooks 4"):
            assert line in lines

    def test_sweep_csv_and_exit(self, tmp_path, capsys):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("J = 2\nN_list = 10\ntrials = 3\nseed = 1\n")
        assert main(["sweep", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "N,estimator,prior_p,mean_ratio,sd_ratio,trials"
        assert len(out.splitlines()) == 7

    def test_sweep_rounded_away_noise_exit_two(self, tmp_path, capsys):
        # Noise that rounds away against large means is a float-range
        # failure of the inputs (exit 2), not degenerate data (exit 1).
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("J = 2\nN_list = 10\ntrials = 5\nsigma2_true = 1e-300\nmu_law = fixed:1e10\n")
        assert main(["sweep", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr() == (
            "", "error: sigma2_true = 1e-300 and mu_law = 'fixed:1e10' take the group means or s2 out of the float range\n"
        )

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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--N", "2", "--J", "2", "--seed", "-1"],
        ["regularity", "--seed", "-1"],
        ["locality", "--seed", "-1"],
        ["smml", "--torus", "8", "--seed", "-1"],
        ["sweep", "--seed", "-1"],
        ["sweep"],
    ])
    def test_negative_seed_exit_two(self, argv, tmp_path, capsys):
        if argv[0] == "sweep":
            # A negative seed from --seed, or else from the config file.
            config = tmp_path / "sweep.cfg"
            config.write_text("J = 2\nN_list = 10\ntrials = 2\n" + ("seed = -1\n" if argv == ["sweep"] else ""))
            argv = [*argv, "--config", str(config)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_bad_env_seed_exit_two(self, value, monkeypatch, capsys):
        monkeypatch.setenv("NSMML_SEED", value)
        assert main(["simulate", "--N", "1", "--J", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: NSMML_SEED must be an integer")

    def test_regularity_exit_codes(self, capsys):
        assert main(["regularity", "--prior", "scale-free", "--N", "2", "--J", "2"]) == 0
        capsys.readouterr()
        code = main(["regularity", "--prior", "wallace", "--check", "homogeneity",
                     "--N", "2", "--J", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "drift_max_residual" in captured.out
        assert "failed" in captured.err

    @pytest.mark.parametrize("check", ["all", "homogeneity", "comprehensiveness", "automorphism"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_regularity_samples_named(self, check, samples, capsys):
        assert main(["regularity", "--check", check, "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --samples must be >= 1, got {samples}\n"

    def test_locality_cli(self, capsys):
        assert main(["locality", "--N", "2", "--J", "2", "--c", "120"]) == 0
        out = capsys.readouterr().out
        assert "all_pass true" in out
        # Tiny variances whose grid and worst point stay normal floats pass.
        for flags in (["--c", "120", "--sigma2", "1e-303"], ["--sigma2", "1e-300"]):
            assert main(["locality", "--N", "2", "--J", "2", *flags]) == 0
            assert "all_pass true" in capsys.readouterr().out
        assert main(["locality", "--N", "1", "--J", "2"]) == 1
        assert "requires N >= 2" in capsys.readouterr().err

    def test_locality_small_c_rejected(self, capsys):
        # c^2 <= 2NJ leaves no contracted-scale band: malformed input, exit 2.
        for n, j, c in ((2, 2, 2), (2, 3, 3), (3, 2, 3), (2, 4, 4)):
            assert main(["locality", "--N", str(n), "--J", str(j), "--c", str(c)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        # c = 3 at N = J = 2 builds, but its certificate fails: exit 1.
        assert main(["locality", "--N", "2", "--J", "2", "--c", "3"]) == 1
        assert "locality verification failed" in capsys.readouterr().err

    def test_locality_grid_without_exterior_rejected(self, capsys):
        # An empty grid, or one that is all exempt, verifies nothing: exit 2.
        for flags in (["--points-scale", "0"], ["--points-mean", "-1"],
                      ["--points-scale", "1", "--points-mean", "1"]):
            assert main(["locality", "--N", "2", "--J", "2", *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_sweep_csv_pinned(self, tmp_path):
        # The README sweep configuration, byte for byte.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(DATA / "readme_sweep.cfg"), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "readme_sweep.csv").read_bytes()

    @pytest.mark.parametrize("prior, code", [("scale-free", 0), ("wallace", 1)])
    def test_regularity_report_pinned(self, tmp_path, prior, code):
        out = tmp_path / "report.txt"
        argv = ["regularity", "--prior", prior, "--N", "2", "--J", "2", "--seed", "0"]
        assert main([*argv, "--out", str(out)]) == code
        assert out.read_bytes() == (DATA / f"regularity_{prior}.txt").read_bytes()

    @pytest.mark.parametrize("name, flags", [
        ("N2_J2", ["--N", "2", "--J", "2"]),
        ("N3_J2", ["--N", "3", "--J", "2"]),
        ("N2_J3_mu1e17", ["--N", "2", "--J", "3", "--sigma2", "2.5", "--mu", "1e17,0"]),
        ("N2_J2_json", ["--N", "2", "--J", "2", "--json"]),
    ])
    def test_locality_report_pinned(self, tmp_path, name, flags):
        out = tmp_path / "report.txt"
        assert main(["locality", *flags, "--seed", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"locality_{name}.txt").read_bytes()

    def test_smml_cli_roundtrip(self, tmp_path, capsys):
        problem_file = tmp_path / "prob.json"
        book_file = tmp_path / "book.json"
        common = ["--interior-margin", "1", "--seed", "0"]
        assert main(["smml", "--N", "1", "--J", "2", "--resolution", "6", *common,
                     "--save-problem", str(problem_file),
                     "--save-codebook", str(book_file)]) == 0
        out = capsys.readouterr().out
        assert "kind smml" in out
        assert problem_file.exists() and book_file.exists()
        assert main(["smml", "--load-problem", str(problem_file), "--solver", "local", *common]) == 0
        assert capsys.readouterr().out == out

    def test_smml_malformed_problem_file_exit_two(self, tmp_path, capsys):
        problem_file = tmp_path / "prob.json"
        # The line format that preceded the JSON reports.
        problem_file.write_text("nsmml/discrete-problem 1\nN 1\nJ 2\n")
        assert main(["smml", "--load-problem", str(problem_file)]) == 2
        assert "discrete-problem" in capsys.readouterr().err
        # A ring of 5 cells with a candidate on every second one.
        assert main(["smml", "--torus", "4", "--torus-stride", "2", "--save-problem", str(problem_file)]) == 0
        data = json.loads(problem_file.read_text())
        data["n_cells"] = 5
        problem_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["smml", "--load-problem", str(problem_file), "--shift", "1"]) == 2
        assert capsys.readouterr().err == "error: candidate_stride must divide n_cells\n"
        # 10^10 cells: the size limit rejects the recipe before any table is built.
        assert main(["smml", "--resolution", "4", "--save-problem", str(problem_file)]) == 0
        data = json.loads(problem_file.read_text())
        data["resolution"] = [100000, 100000]
        problem_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["smml", "--load-problem", str(problem_file)]) == 2
        assert capsys.readouterr().err.startswith("error: 10000000000 cells x ")
        # A stored count that is not an integer is malformed, not truncated.
        for flags, field, value in ((["--torus", "8"], "n_cells", 8.0),
                                    (["--resolution", "4"], "resolution", [4.5, 4])):
            assert main(["smml", *flags, "--save-problem", str(problem_file)]) == 0
            data = json.loads(problem_file.read_text())
            data[field] = value
            problem_file.write_text(json.dumps(data))
            capsys.readouterr()
            assert main(["smml", "--load-problem", str(problem_file)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {field} must ")

    def test_smml_seven_table_problem_file_exit_two(self, tmp_path, capsys):
        # A report that stores the cell and candidate tables instead of the
        # builder's inputs describes no problem a builder makes.
        prob = cbk.torus_problem(ProblemConfig(N=1, J=2), PriorSpec(2.0), 4, candidate_stride=2)
        tables = ("mass", "cell_s2", "cell_m", "cell_coords", "cand_sigma2", "cand_mu")
        problem_file = tmp_path / "prob.json"
        problem_file.write_text(render_json("discrete-problem", {
            "N": 1, "J": 2, "prior_p": 2.0, "topology": "torus",
            "lattice": dataclasses.asdict(prob.lattice),
            **{name: getattr(prob, name) for name in tables},
            "cand_coords": _to_coords(prob.cand_sigma2, prob.cand_mu),
        }))
        assert main(["smml", "--load-problem", str(problem_file)]) == 2
        assert capsys.readouterr().err.startswith("error: discrete-problem report has unknown keys")

    def test_smml_torus_transport_report(self, capsys):
        assert main(["smml", "--N", "1", "--J", "2", "--torus", "12",
                     "--torus-stride", "2", "--shift", "4", "--json", "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["transport"]["delta_L"]) < 1e-12
        assert "bound" not in payload["transport"]

    def test_import_leaves_scipy_optimize_unloaded(self):
        # A fresh interpreter: other tests import scipy themselves.  Neither
        # the import nor a non-sampling command loads any scipy module;
        # simulate, which samples, loads scipy.special and still runs.  The
        # import leaves numpy.random unloaded too.
        src = str(Path(cbk.__file__).resolve().parents[1])
        commands = [["smml", "--resolution", "4", "--restarts", "1"],
                    ["estimate", "--J", "2", "--m", "1,2", "--s2", "0.5", "--method", "all"],
                    ["regularity"], ["locality"], ["simulate", "--N", "2", "--J", "2", "--seed", "0"]]
        code = "\n".join([
            "import contextlib, io, json, sys",
            "import nsmml",
            "numpy_random = 'numpy.random' in sys.modules",
            "def scipy_modules():",
            "    return sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')",
            "seen = [[0, scipy_modules()]]",
            "from nsmml.cli import main",
            "for argv in json.loads(sys.argv[1]):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        seen.append([main(argv), scipy_modules()])",
            "print(json.dumps([numpy_random, seen]))",
        ])
        out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        numpy_random, seen = json.loads(out.stdout)
        assert not numpy_random
        assert seen[:-1] == [[0, []]] * len(commands)
        assert seen[-1][0] == 0 and "scipy.special" in seen[-1][1]

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
        body = "J = 2\nN_list = 10\ntrials = 2\n"
        for config in ("J = x\nN_list = 10\ntrials = 2\n", "J = 2\nN_list = 10, a\ntrials = 2\n",
                       body + "mu_law = fixed:abc\n", body + "sigma2true = 4\n", body + "priors =\n"):
            bad.write_text(config)
            assert main(["sweep", "--config", str(bad)]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        raw = tmp_path / "raw.csv"
        raw.write_text("1.0,2.0\n3.0,x\n")
        for argv in (
            ["estimate", "--J", "2", "--m", "a", "--s2", "1.0"],
            ["estimate", "--raw", str(raw)],
            ["simulate", "--N", "2", "--J", "2", "--mu", "1,a"],
            ["simulate", "--N", "2", "--J", "2", "--mu", "nan"],
            ["simulate", "--N", "2", "--J", "2", "--mu", "inf"],
            ["simulate", "--N", "2", "--J", "2", "--mu", "1,2,3"],
            ["simulate", "--N", "2", "--J", "2", "--mu", "a"],
            ["locality", "--mu", "a,1"],
            ["locality", "--sigma2", "-1"],
            ["locality", "--sigma2", "0"],
            ["locality", "--sigma2", "nan"],
            ["locality", "--sigma2", "inf"],
            ["smml", "--resolution", "4", "--shift", "a"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")
        # An infinite variance is named, not passed on to the arithmetic.
        bad.write_text(body + "sigma2_true = inf\n")
        assert main(["sweep", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == "error: sigma2_true must be finite and > 0, got inf\n"
        assert main(["simulate", "--N", "2", "--J", "2", "--sigma2", "inf"]) == 2
        assert capsys.readouterr() == ("", "error: sigma2_true must be finite and > 0, got inf\n")
        # Non-finite builder inputs, oversized instances and malformed
        # tolerances are named before any arithmetic runs.
        for argv, message in (
            (["smml", "--cand-extension", "nan"], "extension must be finite and >= 0, got nan"),
            (["smml", "--box-half-width", "inf"], "box must be finite"),
            (["smml", "--torus", "8", "--log-s-hi", "inf"], "log_s_hi must be finite, got inf"),
            (["smml", "--torus", "8", "--torus-mean", "nan"], "mean_coord must be finite, got nan"),
            (["smml", "--torus", "1000000"], "1000000 cells x 1000000 candidates exceed 268435456 table entries"),
            (["smml", "--cand-extension", "-1", "--resolution", "4"], "extension must be finite and >= 0, got -1.0"),
            (["smml", "--resolution", "4", "--restarts", "1", "--interior-margin", "-1"],
             "interior_margin must be >= 1"),
            (["smml", "--resolution", "4", "--restarts", "1", "--interior-margin", "5"],
             "interior margin 5 leaves no cells along axis 0"),
            (["smml", "--cand-extension", "1e300"],
             "256 cells x 288230393331581184 candidates exceed 268435456 table entries"),
            # Geometry whose tables or penalty would overflow names its inputs.
            (["smml", "--box-half-width", "400"], "box and candidates take the tables out of the float range"),
            (["smml", "--torus", "8", "--log-s-lo=-1e308", "--log-s-hi=1e308"],
             "log_s_hi - log_s_lo must be finite and > 0, got inf"),
            (["smml", "--torus", "8", "--torus-mean", "1e200"],
             "log_s_lo, log_s_hi and mean_coord take the tables out of the float range"),
            (["estimate", "--J", "2", "--m", "1", "--s2", "1", "--prior", "0.5"],
             "prior exponent p must be finite and >= 1, got 0.5"),
            (["estimate", "--J", "2", "--m", "1", "--s2", "1", "--prior", ""], "no prior given for IP, WF"),
            (["regularity", "--tol", "nan"], "tol must be finite and > 0, got nan"),
            (["regularity", "--check", "homogeneity", "--tol", "-1"], "tol must be finite and > 0, got -1.0"),
            (["regularity", "--tol", "inf"], "tol must be finite and > 0, got inf"),
            (["regularity", "--check", "comprehensiveness", "--tol", "0"], "tol must be finite and > 0, got 0.0"),
            (["regularity", "--check", "automorphism", "--tol", "nan"], "tol must be finite and > 0, got nan"),
            # Locality and automorphism inputs that leave the float range,
            # an oversized grid and a mean of the wrong length are named.
            (["locality", "--N", "2", "--J", "2", "--sigma2", "1e308"],
             "sigma2 = 1e+308 takes the certificate out of the float range"),
            # The contracted grid's variance (sqrt(2NJ) sigma / c)^2 must stay normal.
            (["locality", "--N", "2", "--J", "2", "--c", "120", "--sigma2", "5e-324"],
             "sigma2 = 5e-324 takes the certificate out of the float range"),
            (["locality", "--N", "2", "--J", "2", "--c", "120", "--sigma2", "1e-310"],
             "sigma2 = 1e-310 takes the certificate out of the float range"),
            (["locality", "--N", "2", "--J", "2", "--points-scale", "3000", "--points-mean", "3000"],
             "verification grid has 27000000000 points, above the limit 2000000"),
            (["locality", "--N", "2", "--J", "2", "--mu", "1"], "parameter has 1 means but the configuration has N=2"),
            (["regularity", "--check", "automorphism", "--alpha", "1e200"],
             "alpha = 1e+200 moves the sampled statistics out of the float range"),
            (["regularity", "--check", "automorphism", "--alpha", "1e-300"],
             "alpha = 1e-300 moves the sampled statistics out of the float range"),
            (["regularity", "--check", "automorphism", "--beta", "inf"], "beta must be finite"),
            # A c whose exempt-region bound leaves the float range is named;
            # so is a true symmetry whose moved means round too coarsely for tol.
            (["locality", "--N", "20", "--J", "2", "--c", "1000000000000000000000", "--points-mean", "1"],
             "c = 1000000000000000000000 takes the certificate out of the float range"),
            (["regularity", "--check", "automorphism", "--beta", "1e6"],
             "alpha = 2.0 and beta = [1000000.0, 1000000.0] leave the moved means too coarse"),
            (["regularity", "--check", "automorphism", "--alpha", "1e-100"],
             "alpha = 1e-100 and beta = [0.7, 0.7] leave the moved means too coarse"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {message}")

    def test_csv_rows_byte_stable(self):
        spec = parse_sweep_config(SWEEP_CONFIG)
        assert rows_to_csv(run_sweep(spec)) == rows_to_csv(run_sweep(spec))

    def test_undecodable_input_exit_two(self, tmp_path, capsys):
        # Each input file is read as UTF-8 text; one that is not is named.
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xffJ = 2\n")
        for argv in (["sweep", "--config", str(bad)], ["estimate", "--raw", str(bad)],
                     ["smml", "--load-problem", str(bad)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {bad} is not UTF-8 text: invalid start byte at byte 0\n")

    @staticmethod
    def run_cli(argv, stdin=b""):
        # The real process, through its exit path.
        src = str(Path(cbk.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "nsmml.cli", *argv], input=stdin, capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
        return done.returncode, done.stdout, done.stderr.decode()

    def test_process_exits_two_with_one_error_line(self):
        code, out, err = self.run_cli(["estimate", "--J", "2", "--m", "a", "--s2", "1"])
        assert (code, out, err) == (2, b"", "error: expected comma-separated numbers, got 'a'\n")

    def test_undecodable_stdin_exit_two(self):
        code, out, err = self.run_cli(["estimate", "--raw", "-"], b"1 2\n\xff 4\n")
        assert (code, out, err) == (2, b"", "error: - is not UTF-8 text: invalid start byte at byte 4\n")

    def test_sweep_underflow_exit_two(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("J = 2\nN_list = 10\ntrials = 50\nsigma2_true = 5e-324\nmu_law = zero\n")
        assert main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", "error: sigma2_true = 5e-324 and mu_law = 'zero' take the group means"
                                           " or s2 out of the float range\n")

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 14.9 GiB for an array"), ": Unable to allocate 14.9 GiB for an array"),
        (MemoryError(), ""),
    ])
    def test_out_of_memory_exit_two(self, exc, detail, monkeypatch, capsys):
        # A request too large to allocate is the caller's to shrink.
        def no_memory(*args):
            raise exc

        monkeypatch.setattr("nsmml.cli.simulate", no_memory)
        assert main(["simulate", "--N", "2", "--J", "2"]) == 2
        assert capsys.readouterr() == ("", f"error: out of memory{detail}; ask for less\n")
