"""Scalar stochastic model: steps, closed forms, ensembles."""

import itertools
import math

import numpy as np
import pytest

from quad_coherence import quad_coherence_time
from rigidflock.core import std_normal_quantile
from rigidflock.oned import (OneDConfig, beta_interp, conditional_variance_at_target,
                             continuous_state_1d, convergence_metrics_1d,
                             effective_gain, estimate_coherence_time,
                             exp_approx_1d, expected_coherence_time,
                             kl_divergence_gaussianity, motion_probability,
                             restrained_displacement, run_1d_ensemble,
                             run_1d_two_agents, sigma_ss_proportional,
                             sigma_ss_restrained, stopping_probability,
                             variance_closed_form)

Q03 = std_normal_quantile(0.3)


def cfg(**kw):
    base = dict(k_ef=0.5, ell=0.5, sigma_m=1.0, f=10.0, d=0.0,
                sigma_init=100.0, n_agents=1000, horizon=100, seed=0)
    base.update(kw)
    return OneDConfig(**base)


# --- stepping ------------------------------------------------------------


def test_proportional_step_examples():
    c = cfg(k_ef=1.0, d=2.0)
    assert 5.0 + restrained_displacement(c.d - 5.0, c.sigma_m, c) == 2.0
    c = cfg(k_ef=0.5, d=2.0)
    assert 4.0 + restrained_displacement(c.d - 4.0, c.sigma_m, c) == 3.0


def test_proportional_step_identity():
    rng = np.random.default_rng(0)
    c = cfg(k_ef=0.3, d=1.5)
    for _ in range(100):
        x = rng.uniform(-10, 10)
        e = rng.normal()
        m = x - e  # e is the negated measurement error
        got = x + restrained_displacement(c.d - m, c.sigma_m, c)
        want = c.d + (x - c.d) * (1 - c.k_ef) + c.k_ef * e
        assert got == pytest.approx(want, rel=1e-12)


def test_restrained_step_half_equals_proportional():
    rng = np.random.default_rng(1)
    c = cfg(k_ef=0.4, ell=0.5, d=0.7)
    for _ in range(200):
        x = rng.uniform(-5, 5)
        m = x + rng.normal()
        assert x + restrained_displacement(c.d - m, c.sigma_m, c) \
            == x + c.k_ef * (c.d - m)


def test_restrained_step_dead_zone():
    c = cfg(k_ef=0.5, ell=0.3, d=0.0, sigma_m=2.0)
    zone = -c.sigma_m * Q03  # about 1.049
    # measured error d - m inside the zone leaves x unchanged
    x = 3.0
    for frac in (-0.9, -0.5, 0.0, 0.5, 0.9):
        m = c.d - frac * zone
        assert x + restrained_displacement(c.d - m, c.sigma_m, c) == x
    # just outside the zone the step is nonzero
    m = c.d - 1.01 * zone
    assert x + restrained_displacement(c.d - m, c.sigma_m, c) != x


def test_restrained_step_displacement_value():
    c = cfg(k_ef=0.5, ell=0.3, d=0.0, sigma_m=1.5)
    m = c.d - 2.0 * c.sigma_m  # measured error of +2 sigma
    x = 5.0
    got = x + restrained_displacement(c.d - m, c.sigma_m, c)
    assert got - x == pytest.approx(c.k_ef * c.sigma_m * (2.0 + Q03),
                                    rel=1e-12)


def test_restrained_keeps_quantile_band_on_exact_measurements():
    # noise-free conditional: when the measurement is exact and outside the
    # dead zone, one step never brings the agent closer to the target than
    # the full quantile offset (the setpoint itself sits at that offset)
    c = cfg(k_ef=0.7, ell=0.2, d=0.0, sigma_m=1.0)
    q = abs(c.quantile)
    for x in np.linspace(q * 1.0001, 6.0, 200):
        x2 = x + restrained_displacement(c.d - x, c.sigma_m, c)
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
            x2 = delta + restrained_displacement(-delta - e, c.sigma_m, c)
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
    moved = restrained_displacement(-e, c.sigma_m, c) != 0.0
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
        step = restrained_displacement(-e, sigma, c)
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
