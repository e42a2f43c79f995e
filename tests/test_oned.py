"""Scalar stochastic model: steps, closed forms, ensembles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oned_loops
from quad_coherence import quad_coherence_time
from rigidflock import oned
from rigidflock.core import std_normal_quantile
from rigidflock.oned import (OneDConfig, beta_interp, conditional_variance_at_target,
                             continuous_state_1d, convergence_metrics_1d,
                             effective_gain, estimate_coherence_time,
                             exp_approx_1d, expected_coherence_time,
                             kl_divergence_gaussianity, motion_probability,
                             restrain, run_1d_ensemble, run_1d_two_agents,
                             sigma_ss_proportional, sigma_ss_restrained,
                             stopping_probability, tradeoff_sweep,
                             variance_closed_form)

Q03 = std_normal_quantile(0.3)


def cfg(**kw):
    base = dict(k_ef=0.5, ell=0.5, sigma_m=1.0, f=10.0, d=0.0,
                sigma_init=100.0, n_agents=1000, horizon=100, seed=0)
    base.update(kw)
    return OneDConfig(**base)


@pytest.mark.parametrize("f", [0.0, -10.0])
def test_measurement_rate_must_be_positive(f):
    # f = 0 divided by zero in the coherence time; f < 0 gave a negative one
    with pytest.raises(ValueError, match="^f must be positive"):
        cfg(f=f)


def test_initial_spread_must_not_be_negative():
    # a spread is a standard deviation; zero starts every agent at d
    with pytest.raises(ValueError, match="^sigma_init must be >= 0"):
        cfg(sigma_init=-5.0)
    assert cfg(sigma_init=0.0).sigma_init == 0.0


# --- stepping ------------------------------------------------------------


def test_proportional_step_examples():
    c = cfg(k_ef=1.0, d=2.0)
    assert 5.0 + restrain(c.d - 5.0, c.sigma_m * c.quantile, c.k_ef) == 2.0
    c = cfg(k_ef=0.5, d=2.0)
    assert 4.0 + restrain(c.d - 4.0, c.sigma_m * c.quantile, c.k_ef) == 3.0


def test_proportional_step_identity():
    rng = np.random.default_rng(0)
    c = cfg(k_ef=0.3, d=1.5)
    for _ in range(100):
        x = rng.uniform(-10, 10)
        e = rng.normal()
        m = x - e  # e is the negated measurement error
        got = x + restrain(c.d - m, c.sigma_m * c.quantile, c.k_ef)
        want = c.d + (x - c.d) * (1 - c.k_ef) + c.k_ef * e
        assert got == pytest.approx(want, rel=1e-12)


def test_restrained_step_half_equals_proportional():
    rng = np.random.default_rng(1)
    c = cfg(k_ef=0.4, ell=0.5, d=0.7)
    for _ in range(200):
        x = rng.uniform(-5, 5)
        m = x + rng.normal()
        assert x + restrain(c.d - m, c.sigma_m * c.quantile, c.k_ef) \
            == x + c.k_ef * (c.d - m)


def test_restrained_step_dead_zone():
    c = cfg(k_ef=0.5, ell=0.3, d=0.0, sigma_m=2.0)
    zone = -c.sigma_m * Q03  # about 1.049
    # measured error d - m inside the zone leaves x unchanged
    x = 3.0
    for frac in (-0.9, -0.5, 0.0, 0.5, 0.9):
        m = c.d - frac * zone
        assert x + restrain(c.d - m, c.sigma_m * c.quantile, c.k_ef) == x
    # just outside the zone the step is nonzero
    m = c.d - 1.01 * zone
    assert x + restrain(c.d - m, c.sigma_m * c.quantile, c.k_ef) != x


def test_restrained_step_displacement_value():
    c = cfg(k_ef=0.5, ell=0.3, d=0.0, sigma_m=1.5)
    m = c.d - 2.0 * c.sigma_m  # measured error of +2 sigma
    x = 5.0
    got = x + restrain(c.d - m, c.sigma_m * c.quantile, c.k_ef)
    assert got - x == pytest.approx(c.k_ef * c.sigma_m * (2.0 + Q03),
                                    rel=1e-12)


def test_restrained_keeps_quantile_band_on_exact_measurements():
    # noise-free conditional: when the measurement is exact and outside the
    # dead zone, one step never brings the agent closer to the target than
    # the full quantile offset (the setpoint itself sits at that offset)
    c = cfg(k_ef=0.7, ell=0.2, d=0.0, sigma_m=1.0)
    q = abs(c.quantile)
    for x in np.linspace(q * 1.0001, 6.0, 200):
        x2 = x + restrain(c.d - x, c.sigma_m * c.quantile, c.k_ef)
        assert x2 - c.d >= q * c.sigma_m - 1e-12
        assert x2 <= x


def test_restrained_overshoot_probability_bounded_by_ell():
    # the design guarantee: from any true error with the measured sign, the
    # probability that one step crosses the target is at most ell
    rng = np.random.default_rng(2)
    n = 200_000
    for ell in (0.05, 0.2, 0.35):
        c = cfg(k_ef=0.7, ell=ell, d=0.0, sigma_m=1.0)
        for delta in (0.3, 1.0, 3.0):
            e = rng.standard_normal(n) * c.sigma_m
            x2 = delta + restrain(-delta - e, c.sigma_m * c.quantile, c.k_ef)
            p_hat = float((x2 < 0.0).mean())
            se = math.sqrt(ell * (1 - ell) / n)
            assert p_hat <= ell + 3 * se


# --- continuous interpolants ----------------------------------------------


def test_continuous_and_exponential_agree_at_nodes():
    c = cfg(k_ef=0.35, d=2.0, f=10.0)
    x0 = 12.0
    for k in range(20):
        t = k / c.f
        assert continuous_state_1d(t, x0, c) \
            == pytest.approx(exp_approx_1d(t, x0, c), rel=1e-12)
    assert continuous_state_1d(0.0, x0, c) == x0
    assert exp_approx_1d(0.0, x0, c) == x0


def test_piecewise_between_nodes_and_gap_bound():
    x0 = 10.0
    for k_ef in (0.02, 0.05, 0.1):
        c = cfg(k_ef=k_ef, d=0.0, f=10.0)
        ts = np.linspace(0.0, 1.0 / c.f, 101)
        gaps = []
        for t in ts:
            piece = continuous_state_1d(float(t), x0, c)
            expo = exp_approx_1d(float(t), x0, c)
            lo = min(continuous_state_1d(0.0, x0, c),
                     continuous_state_1d(1.0 / c.f, x0, c))
            hi = max(continuous_state_1d(0.0, x0, c),
                     continuous_state_1d(1.0 / c.f, x0, c))
            assert lo - 1e-12 <= piece <= hi + 1e-12
            gaps.append(abs(piece - expo))
        # asymptotic bound k^2/8 |x0 - d|, with a 10% slack at finite k
        assert max(gaps) <= k_ef ** 2 / 8.0 * abs(x0) * 1.10


# --- closed forms ----------------------------------------------------------


def test_sigma_ss_value():
    c = cfg(k_ef=0.5, sigma_m=3.0)
    assert sigma_ss_proportional(c) == pytest.approx(1.7320508, abs=1e-6)


def test_sigma_ss_monotone_in_gain():
    vals = [sigma_ss_proportional(cfg(k_ef=k))
            for k in np.linspace(0.05, 1.95, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        sigma_ss_proportional(cfg(k_ef=2.1))
    with pytest.raises(ValueError):
        variance_closed_form(3, cfg(k_ef=2.1), 1.0)


def test_variance_closed_form_matches_recursion():
    c = cfg(k_ef=0.3, sigma_m=2.0)
    var = 7.0
    assert variance_closed_form(0, c, var) == pytest.approx(var)
    for k in range(40):
        step = c.k_ef ** 2 * c.sigma_m ** 2 + (1 - c.k_ef) ** 2 * var
        var = step
        assert variance_closed_form(k + 1, c, 7.0) \
            == pytest.approx(var, rel=1e-12)
    # limit equals the stationary variance
    assert variance_closed_form(10_000, c, 7.0) \
        == pytest.approx(sigma_ss_proportional(c) ** 2, rel=1e-9)


def test_beta_interp_nodes_and_range():
    assert beta_interp(0.5) == 0.8266
    assert beta_interp(0.75) == pytest.approx((0.8266 + 1.043) / 2)
    with pytest.raises(ValueError):
        beta_interp(0.05)
    with pytest.raises(ValueError):
        beta_interp(1.95)


def test_sigma_ss_restrained_values():
    c = cfg(k_ef=0.5, ell=0.3, sigma_m=3.0)
    ratio = sigma_ss_restrained(c) / sigma_ss_proportional(c)
    assert ratio == pytest.approx(0.8051, abs=1e-3)
    c = cfg(k_ef=0.5, ell=0.5, sigma_m=3.0)
    assert sigma_ss_restrained(c) == sigma_ss_proportional(c)


def test_sigma_ss_restrained_matches_ensemble():
    c = cfg(k_ef=0.1, ell=0.1, sigma_m=1.0, sigma_init=0.5,
            n_agents=60_000, horizon=3000, seed=3)
    trace = run_1d_ensemble(c)
    assert trace.sigma_a[-1] == pytest.approx(sigma_ss_restrained(c),
                                              rel=0.05)


def test_stopping_probability():
    assert stopping_probability(0.0, 1.0, 0.2) == pytest.approx(0.6, abs=1e-9)
    assert stopping_probability(0.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-9)
    assert stopping_probability(5.0, 1.0, 0.3) < 1e-4
    for delta in np.linspace(-3, 3, 13):
        assert stopping_probability(float(delta), 1.0, 0.5) \
            == pytest.approx(0.0, abs=1e-12)


def test_motion_probability_at_target_is_2ell():
    rng = np.random.default_rng(4)
    c = cfg(k_ef=0.5, ell=0.2, sigma_m=1.3)
    n = 400_000
    e = rng.standard_normal(n) * c.sigma_m
    moved = restrain(-e, c.sigma_m * c.quantile, c.k_ef) != 0.0
    p_hat = moved.mean()
    se = math.sqrt(2 * c.ell * (1 - 2 * c.ell) / n)
    assert abs(p_hat - 2 * c.ell) <= 3 * se


def test_effective_gain():
    assert effective_gain(cfg(k_ef=0.4, ell=0.5, sigma_m=2.0)) \
        == pytest.approx(0.4)
    # shrinks the gain for ell < 0.5 at sigma > 1
    assert effective_gain(cfg(k_ef=0.4, ell=0.2, sigma_m=2.0)) < 0.4


def test_conditional_variance_half_and_monotone():
    c = cfg(k_ef=0.5, ell=0.5, sigma_m=2.0)
    assert conditional_variance_at_target(c) \
        == pytest.approx(c.k_ef ** 2 * c.sigma_m ** 2, rel=1e-12)
    vals = [conditional_variance_at_target(cfg(k_ef=0.5, ell=float(l),
                                               sigma_m=2.0))
            for l in np.linspace(0.01, 0.5, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_conditional_variance_against_monte_carlo():
    rng = np.random.default_rng(5)
    for k_ef, ell, sigma in [(0.5, 0.3, 1.0), (1.0, 0.1, 2.0),
                             (0.7, 0.45, 0.5)]:
        c = cfg(k_ef=k_ef, ell=ell, sigma_m=sigma)
        e = rng.standard_normal(10_000_000) * sigma
        step = restrain(-e, sigma * c.quantile, c.k_ef)
        assert conditional_variance_at_target(c) \
            == pytest.approx(float(step.var()), rel=0.02)


def test_coherence_time_formula_values():
    for ell, want in [(0.45, 1.1083), (0.3, 1.6494)]:
        c = cfg(k_ef=0.1, ell=ell, sigma_m=0.1)
        assert expected_coherence_time(c) == pytest.approx(want, abs=1e-2)


def test_coherence_time_grid_sum_matches_quad_oracle():
    for k_ef, ell, sigma in itertools.product(
            (0.1, 0.5, 1.0, 1.5, 1.9), (0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5),
            (0.01, 0.1, 1.0, 3.0, 30.0)):
        c = cfg(k_ef=k_ef, ell=ell, sigma_m=sigma)
        assert expected_coherence_time(c) \
            == pytest.approx(quad_coherence_time(c), rel=1e-10)


def test_coherence_time_simulation_matches_formula():
    c = cfg(k_ef=0.1, ell=0.3, sigma_m=0.1, seed=11)
    sim = estimate_coherence_time(c, steps=300_000, burn=10_000)
    assert sim == pytest.approx(expected_coherence_time(c), rel=0.03)


# --- KL -------------------------------------------------------------------


def test_kl_gaussian_self_consistency():
    z = np.random.default_rng(6).standard_normal(1_000_000)
    assert kl_divergence_gaussianity(z) < 5e-4


def test_kl_uniform_is_large():
    u = np.random.default_rng(7).uniform(-1, 1, 1_000_000)
    assert kl_divergence_gaussianity(u) > 0.05


def test_kl_input_validation():
    with pytest.raises(ValueError):
        kl_divergence_gaussianity(np.zeros(20_000))
    with pytest.raises(ValueError):
        kl_divergence_gaussianity(np.random.default_rng(0).normal(size=100))


# --- ensembles -------------------------------------------------------------


def test_ensemble_converges_to_sigma_ss():
    for k_ef in (0.1, 0.5, 0.9):
        c = cfg(k_ef=k_ef, ell=0.5, sigma_m=1.0, sigma_init=20.0,
                n_agents=40_000, horizon=1500, seed=int(k_ef * 10))
        trace = run_1d_ensemble(c)
        assert trace.sigma_a[-1] == pytest.approx(sigma_ss_proportional(c),
                                                  rel=0.03)


def test_ensemble_trace_shapes_and_determinism():
    c = cfg(horizon=50, n_agents=100, seed=9)
    t1 = run_1d_ensemble(c)
    t2 = run_1d_ensemble(c)
    assert t1.mean_abs_dd.shape == (50,)
    assert np.array_equal(t1.mean_abs_dd, t2.mean_abs_dd)
    assert np.array_equal(t1.final_states, t2.final_states)
    assert t1.mean_abs_dv[0] == 0.0


def test_two_agents_gain_above_one_diverges():
    c = cfg(k_ef=1.2, ell=0.3, sigma_m=1.0, sigma_init=30.0,
            n_agents=2000, horizon=120, seed=10)
    trace = run_1d_two_agents(c)
    assert abs(trace.delta_mean[-1]) > 10 * abs(trace.delta_mean[0])


def test_two_agents_contract_and_clamp_rate_rises():
    c = cfg(k_ef=0.4, ell=0.3, sigma_m=1.0, sigma_init=30.0,
            n_agents=4000, horizon=300, seed=12)
    trace = run_1d_two_agents(c)
    assert abs(trace.delta_mean[-1]) < 1.0  # inside the dead-zone band
    assert trace.clamp_rate[-1] > trace.clamp_rate[0] + 0.2


def test_two_agents_expected_trajectory_in_linear_regime():
    # far from the target both agents move every step; the normalized mean
    # displacement follows delta' <- (1 - 2 k) delta' - 2 k q sign(delta')
    c = cfg(k_ef=0.2, ell=0.3, sigma_m=1.0, sigma_init=40.0,
            n_agents=60_000, horizon=25, seed=13)
    trace = run_1d_two_agents(c)
    q = c.quantile
    pred = c.sigma_init
    for k in range(25):
        pred = (1 - 2 * c.k_ef) * pred - 2 * c.k_ef * q * c.sigma_m
        if pred < 5 * c.sigma_m:  # leaving the linear regime
            break
        assert trace.delta_mean[k] == pytest.approx(pred, rel=0.01)


# --- metrics ----------------------------------------------------------------


def test_metrics_noiseless_decay():
    c = cfg(k_ef=0.2, d=0.0, f=10.0)
    x = 50.0 * (1 - c.k_ef) ** np.arange(400)
    dbg = convergence_metrics_1d(x, c.f)
    assert 0.0 < dbg["t_c"] < 40.0
    assert dbg["sigma_t"] < 1e-3  # decays toward zero in the tail
    assert dbg["converged"]
    assert "k_c_literal" in dbg


def test_metrics_stationary_noise_converges_immediately():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(500)
    dbg = convergence_metrics_1d(x, 10.0)
    assert dbg["k_c"] == 0
    assert dbg["sigma_t"] == pytest.approx(1.0, rel=0.2)


def test_metrics_requires_history():
    with pytest.raises(ValueError):
        convergence_metrics_1d([1.0, 2.0], 10.0)


# --- bit-identity with the per-step loops ------------------------------------
#
# tests/oned_loops.py keeps the direct forms: one np.where displacement,
# one draw per step, one cell at a time, metrics from fresh temporaries.


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


ORACLE_ELLS = (0.05, 0.3, 0.5)
TINY = 5e-324  # the smallest subnormal


@pytest.mark.parametrize("ell", ORACLE_ELLS)
@pytest.mark.parametrize("sigma_m", (1.0, 0.0, 3e-310))
@pytest.mark.parametrize("k_ef", (0.5, 1e-300, 2.05))
def test_restrain_matches_direct_form_on_adversarial_inputs(ell, sigma_m,
                                                            k_ef):
    q = std_normal_quantile(ell)
    c = sigma_m * q
    edge = [c, -c, np.nextafter(c, 0.0), np.nextafter(-c, 0.0),
            np.nextafter(c, -np.inf), np.nextafter(-c, np.inf)]
    dm = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, TINY, -TINY,
                   2.2e-308, -2.2e-308, 1e-310, -1e-310, 1e308, -1e308]
                  + edge + list(np.random.default_rng(3).standard_normal(64)))
    with np.errstate(over="ignore"):  # k_ef 2.05 takes 1e308 past the max
        want = oned_loops.direct_displacement(dm, sigma_m, q, k_ef)
        assert same_bits(restrain(dm, c, k_ef), want)
        # scalars too, one at a time
        for value, expect in zip(dm, want):
            assert same_bits(restrain(float(value), c, k_ef), expect)


def test_restrain_takes_one_c_and_k_ef_per_row():
    rng = np.random.default_rng(4)
    dm = rng.standard_normal((3, 50)) * 2.0
    dm[:, :3] = [[0.0], [-0.0], [np.nan]]
    ells, gains = (0.05, 0.5, 0.3), (0.2, 0.9, 2.05)
    q = np.array([[std_normal_quantile(e)] for e in ells])
    got = restrain(dm, 1.5 * q, np.array([[k] for k in gains]))
    for row, ell, k_ef in zip(range(3), ells, gains):
        assert same_bits(got[row], oned_loops.direct_displacement(
            dm[row], 1.5, std_normal_quantile(ell), k_ef))


@pytest.mark.parametrize("ell", ORACLE_ELLS)
@pytest.mark.parametrize("n_agents, horizon", [(257, 60), (9000, 3)])
def test_ensemble_matches_per_step_loop(ell, n_agents, horizon):
    c = cfg(k_ef=0.7, ell=ell, sigma_m=1.3, d=0.4, sigma_init=20.0,
            n_agents=n_agents, horizon=horizon, seed=17)
    got, want = run_1d_ensemble(c), oned_loops.ensemble(c)
    for name in ("mean_abs_dd", "sigma_a", "mean_abs_dv", "final_states"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("ell", (0.3, 0.5))
@pytest.mark.parametrize("n_agents, horizon", [(1000, 5000), (40, 16_000)])
def test_diverging_ensemble_matches_per_step_loop(ell, n_agents, horizon):
    # C5's k_ef = 2.05 run; at 16000 steps the states overflow to inf and
    # then nan, so the overflow path of both forms is compared too
    c = OneDConfig(k_ef=2.05, ell=ell, sigma_m=1.0, sigma_init=100.0,
                   n_agents=n_agents, horizon=horizon, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = run_1d_ensemble(c), oned_loops.ensemble(c)
    if horizon > 15_000:
        assert np.isnan(got.final_states).any()
    for name in ("mean_abs_dd", "sigma_a", "mean_abs_dv", "final_states"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("ell", ORACLE_ELLS)
def test_two_agents_match_per_step_loop(ell):
    c = cfg(k_ef=0.9, ell=ell, sigma_m=1.0, d=1.5, sigma_init=30.0,
            n_agents=301, horizon=80, seed=19)
    got, want = run_1d_two_agents(c), oned_loops.two_agents(c)
    for name in ("delta_mean", "delta_abs_mean", "clamp_rate"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("ell", ORACLE_ELLS)
def test_tradeoff_cells_match_per_step_loop(ell):
    grid = dict(n_runs=31, horizon=45, sigma_m=0.8, f=20.0, sigma_init=50.0)
    got = tradeoff_sweep((0.05, 0.45, 0.97), (ell,), seed=4, **grid)
    assert list(got) == [(k, ell) for k in (0.05, 0.45, 0.97)]
    for (k_ef, _), row in got.items():
        want = oned_loops.tradeoff_cell(cfg(k_ef=k_ef, ell=ell), 4, **grid)
        assert same_bits(row, want), (k_ef, ell)


@pytest.mark.parametrize("ell", ORACLE_ELLS)
@pytest.mark.parametrize("steps, burn", [(20_000, 3000), (9000, 17_000)])
def test_coherence_time_matches_numpy_scalar_loop(ell, steps, burn):
    c = cfg(k_ef=0.1, ell=ell, sigma_m=0.1, d=0.25, seed=23)
    assert same_bits(estimate_coherence_time(c, steps=steps, burn=burn),
                     oned_loops.coherence_time(c, steps, burn))


def _histories():
    """Columns that converge at once, late, never, or blow up."""
    rng = np.random.default_rng(8)
    m = 300
    decay = 80.0 * 0.97 ** np.arange(m)[:, None] * rng.uniform(0.5, 2.0, 9)
    grow = 1.02 ** np.arange(m)[:, None] * rng.uniform(1.0, 2.0, 3)
    cols = np.hstack([rng.standard_normal((m, 7)), decay
                      + rng.standard_normal((m, 9)), grow,
                      np.zeros((m, 1)), np.full((m, 1), -0.0)])
    wide = np.hstack([cols, cols])
    return {"columns": cols, "column_slice": wide[:, 5:25],
            "fortran": np.asfortranarray(cols), "one_run": decay[:, 0],
            "list": list(rng.standard_normal(12))}


@pytest.mark.parametrize("name", list(_histories()))
def test_metrics_match_fresh_temporaries(name):
    history = _histories()[name]
    before = np.array(history, copy=True)
    got = convergence_metrics_1d(history, 10.0)
    want = oned_loops.convergence_metrics(history, 10.0)
    assert list(got) == list(want)
    for key in got:
        assert type(got[key]) is type(want[key]), key
        assert same_bits(got[key], want[key]), key
    assert same_bits(history, before)  # the input is left as it was


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(10, 80), st.integers(1, 6))
def test_metric_columns_equal_lone_calls_bitwise(seed, size, runs):
    # the 4D summary takes one (M, R) call per batch of R cells, each at
    # its own rate: t_c, k_c, k_c_literal, sigma_t and converged of a
    # column are those of a lone call. mean_dv is not: a column mean sums
    # in another order.
    rng = np.random.default_rng(seed)
    decay = rng.uniform(0.8, 1.0, runs) ** np.arange(size)[:, None]
    history = 10.0 ** rng.uniform(-3.0, 3.0, runs) * np.abs(
        50.0 * decay + rng.standard_normal((size, runs)))
    f = rng.uniform(1.0, 200.0, runs)
    got = convergence_metrics_1d(history, f)
    for r in range(runs):
        want = convergence_metrics_1d(history[:, r], f[r])
        for key in ("t_c", "k_c", "k_c_literal", "sigma_t", "converged"):
            assert same_bits(got[key][r], want[key]), key


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 50),
       st.integers(1, 3))
def test_normal_block_equals_successive_draws(seed, steps, n, width):
    # (T, n) as an ensemble draws it, (T, 2, n) as the two-agent run does
    shape = (n,) if width == 1 else (width, n)
    block = np.random.default_rng(seed).standard_normal((steps,) + shape)
    rng = np.random.default_rng(seed)
    draws = np.array([rng.standard_normal(shape) for _ in range(steps)])
    assert same_bits(block, draws)


@settings(max_examples=12)
@given(st.integers(0, 1000), st.integers(5, 30), st.integers(9, 40),
       st.sampled_from([(0.5, 0.1), (0.3, 0.5, 0.05), (0.5,), (0.2,)]),
       st.sampled_from([1, 7, 1 << 13]), st.sampled_from([0, 64]))
def test_tradeoff_rows_do_not_depend_on_batch_or_chunk(seed, n_runs, horizon,
                                                       ells, chunk, block):
    k_grid = (0.05, 0.3, 0.97)
    args = (k_grid, ells)
    kw = dict(n_runs=n_runs, horizon=horizon, seed=seed)
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oned, "_CHUNK_FLOATS", chunk)
        for bound, metric in itertools.product(
                (1, (horizon + 1) * n_runs * 2, 1 << 30), (1 << 15, block)):
            mp.setattr(oned, "_BATCH_FLOATS", bound)
            mp.setattr(oned, "_METRIC_FLOATS", metric)
            rows.append(tradeoff_sweep(*args, **kw))
    assert list(rows[0]) == [(k, e) for e in ells for k in k_grid]
    for other in rows[1:]:
        assert list(other) == list(rows[0])
        assert all(same_bits(other[key], rows[0][key]) for key in other)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(10, 150), st.integers(2, 5),
       st.integers(1, 3), st.integers(0, 4), st.booleans())
@example(seed=2, size=120, cols=3, blocks=1, extra=1, per_run=False)
def test_metric_blocks_change_no_bits(seed, size, cols, blocks, extra,
                                      per_run):
    # blocks of cols columns against one block: every key keeps its bits,
    # mean_dv too, as long as no block is a lone column (numpy sums that
    # one pairwise, not row by row); the example's R = cols + 1 runs would
    # end in one
    runs = blocks * cols + extra % cols
    rng = np.random.default_rng(seed)
    decay = rng.uniform(0.8, 1.0, runs) ** np.arange(size)[:, None]
    history = 10.0 ** rng.uniform(-3.0, 3.0, runs) * np.abs(
        50.0 * decay + rng.standard_normal((size, runs)))
    f = rng.uniform(1.0, 200.0, runs) if per_run else 10.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oned, "_METRIC_FLOATS", 1 << 30)
        want = convergence_metrics_1d(history, f)
        mp.setattr(oned, "_METRIC_FLOATS", cols * size)
        got = convergence_metrics_1d(history, f)
    assert list(got) == list(want)
    for key in got:
        assert got[key].dtype == want[key].dtype, key
        assert same_bits(got[key], want[key]), key


def test_metric_work_arrays_stay_bounded():
    # a (1001, 200) trade-off cell: its 1.6 MB history in blocks of 32
    # columns, where full-width work arrays peaked at 3.8 MB
    history = np.abs(np.random.default_rng(3).standard_normal((1001, 200)))
    tracemalloc.start()
    try:
        convergence_metrics_1d(history, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
