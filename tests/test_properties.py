"""Property tests: the estimator table against its scalar wrappers, the
Ideal Point as the minimizer of the code penalty, and the sweep config
parser under fuzzed text."""

import math

import numpy as np
from hypothesis import given, strategies as st

from nsmml import (
    InvalidConfigError,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    code_penalty_R,
    ip_estimate,
    marginalized_sigma2_ml,
    ml_estimate,
    parse_sweep_config,
    wf_estimate,
)
from nsmml.estimators import (
    METHOD_IP,
    METHOD_MARGINALIZED,
    METHOD_ML,
    METHOD_WF,
    SIGMA2_HAT,
)


@st.composite
def problems(draw):
    """``(cfg, prior, m)`` with N <= 50, J <= 10 and 1 <= p <= N + 5."""
    n = draw(st.integers(1, 50))
    cfg = ProblemConfig(N=n, J=draw(st.integers(2, 10)))
    prior = PriorSpec(draw(st.floats(1.0, n + 5.0)))
    m = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return cfg, prior, m


positive_s2 = st.floats(1e-250, 1e250)


@given(problems(), st.lists(positive_s2, min_size=1, max_size=16))
def test_table_equals_scalar_wrappers_bit_for_bit(problem, values):
    cfg, prior, m = problem
    s2 = np.array(values)
    scalar = {
        METHOD_ML: lambda x: ml_estimate(x, cfg).theta.sigma2,
        METHOD_IP: lambda x: ip_estimate(x, prior, cfg).theta.sigma2,
        METHOD_WF: lambda x: wf_estimate(x, prior, cfg).theta.sigma2,
        METHOD_MARGINALIZED: lambda x: marginalized_sigma2_ml(x, cfg),
    }
    assert list(scalar) == list(SIGMA2_HAT)
    for method, form in SIGMA2_HAT.items():
        column = form(s2, prior, cfg)
        expected = [scalar[method](SufficientStat(m, v)) for v in values]
        assert column.tobytes() == np.array(expected).tobytes(), method
    np.testing.assert_array_equal(SIGMA2_HAT[METHOD_WF](s2, prior, cfg), SIGMA2_HAT[METHOD_IP](s2, prior, cfg))


@given(problems(), st.floats(-5.0, 5.0))
def test_ip_estimate_minimizes_penalty_over_s2(problem, log_s2):
    # theta = IP(x) is the parameter whose penalty-minimizing observation is x.
    cfg, prior, m = problem
    x = SufficientStat(m, math.exp(log_s2))
    theta = ip_estimate(x, prior, cfg).theta
    at_x = code_penalty_R(theta, x, prior, cfg)
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        assert code_penalty_R(theta, SufficientStat(m, x.s2 * factor), prior, cfg) >= at_x


# Characters that matter to the parser, plus a few that Unicode treats as
# digits, spaces or line breaks.  A fixed alphabet also spares Hypothesis
# its full Unicode table.
config_text = st.text(alphabet="JNl_ist,=#:.-+e0123456789 \tfixnaMLIPWF\x00\xa0\u0663\u2028", max_size=16)
config_keys = st.sampled_from(
    ["J", "N_list", "trials", "sigma2_true", "mu_law", "estimators", "priors", "seed", "sigma2true", "j", ""]
)
config_values = st.one_of(
    config_text,
    st.integers(-3, 300).map(str),
    st.sampled_from(
        ["2", "10, 100", "10, a", "1.5", "nan", "-inf", "fixed:abc", "fixed:0.5", "fixed:", "zero",
         "ml, Marginalized", "ML, foo", "wallace, 2.5", "", "1e999"]
    ),
)
config_lines = st.one_of(
    st.tuples(config_keys, config_values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    config_text,
)


@given(st.lists(config_lines, max_size=10))
def test_fuzzed_sweep_config_raises_only_invalid_config(lines):
    try:
        parse_sweep_config("\n".join(lines))
    except InvalidConfigError:
        pass
