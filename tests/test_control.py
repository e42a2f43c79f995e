"""Control laws: proportional and restrained."""

import math

import numpy as np
import pytest

from rigidflock.control import (ControllerConfig, DELTA, agent_commands,
                                edge_terms, law_constants)
from rigidflock.core import std_normal_quantile, wrap_angle
from scalar_law import (Des, Meas, _tau_psi1, approx_rotated_desired,
                        bearing_sigma, clamp_dz, covariance_at, plane_index,
                        restrained_bearing_term, rotz, setpoint_p1,
                        setpoint_p2, setpoint_psi2, stack)

Q03 = std_normal_quantile(0.3)  # about -0.5244


def _meas(p_m, psi_m=0.0, cov=None, var_psi=0.26 ** 2):
    cov = np.eye(3) if cov is None else cov
    return Meas(np.asarray(p_m, dtype=float), psi_m, cov, var_psi)


def _des(p_d, psi_d=0.0):
    return Des(np.asarray(p_d, dtype=float), psi_d)


def _random_pair(rng, noise=0.4):
    p_true = rng.uniform(-8, 8, 3)
    if np.linalg.norm(p_true) < 1.0:
        p_true[0] += 3.0
    meas = Meas(p_true + noise * rng.standard_normal(3), rng.uniform(-3, 3),
                covariance_at(p_true), 0.26 ** 2)
    des = Des(rng.uniform(-8, 8, 3), rng.uniform(-3, 3))
    return meas, des


def _command(pairs, cfg, dt=1.0, q=None):
    """One observer's (u, omega) over its (Meas, Des) pairs; q as in
    edge_terms: None for the proportional law, cfg.quantile restrained."""
    p_m, psi_m, p_d, psi_d, cov, var_psi = stack(pairs)
    terms = edge_terms(p_m, psi_m, p_d, psi_d, q, cov,
                       const=law_constants(p_d, var_psi))
    u, omega = agent_commands(plane_index(np.zeros(len(pairs), int), 1),
                              *terms, 1, cfg, dt)
    return u[0], omega[0]


def _restrained(pairs, cfg, dt=1.0):
    return _command(pairs, cfg, dt, cfg.quantile)


# --- clamp ---------------------------------------------------------------


def test_clamp_scalar():
    assert clamp_dz(0.5, 1.0) == 0.5
    assert clamp_dz(-0.2, 1.0) == 0.0
    assert clamp_dz(1.5, 1.0) == 0.0      # past the interval end
    assert clamp_dz(1.0, 1.0) == 1.0      # closed upper bound
    assert clamp_dz(0.0, 1.0) == 0.0      # open lower bound
    assert clamp_dz(0.0, 0.0) == 0.0


def test_clamp_vector():
    a = np.array([1.0, 1.0, 0.0])
    assert np.allclose(clamp_dz(0.5 * a, a), 0.5 * a)
    assert np.allclose(clamp_dz(-0.1 * a, a), 0.0)
    assert np.allclose(clamp_dz(1.5 * a, a), 0.0)
    assert np.allclose(clamp_dz(a, a), a)
    ortho = np.array([1.0, -1.0, 0.0])
    assert np.allclose(clamp_dz(ortho, a), 0.0)


# --- proportional --------------------------------------------------------


def test_proportional_equilibrium_is_zero():
    meas = _meas([2.0, -1.0, 0.5], 0.7)
    des = _des([2.0, -1.0, 0.5], 0.7)
    u, omega = _command([(meas, des)], ControllerConfig(k_e=0.5))
    assert np.all(u == 0.0) and omega == 0.0


def test_proportional_single_neighbor_vertical_target():
    # offset along x against a purely vertical desired position: both
    # positional terms see the raw offset, the bearing term vanishes
    k_e = 0.8
    des = _des([0.0, 0.0, 3.0])
    meas = _meas([1.0, 0.0, 3.0])
    u, omega = _command([(meas, des)], ControllerConfig(k_e=k_e))
    assert np.allclose(u, k_e * 2.0 * np.array([1.0, 0.0, 0.0]))
    assert omega == 0.0


def test_proportional_symmetric_neighbors_cancel():
    d1 = _des([3.0, 0.0, 0.0])
    d2 = _des([-3.0, 0.0, 0.0])
    m1 = _meas([3.5, 0.0, 0.0])
    m2 = _meas([-3.5, 0.0, 0.0])
    u, omega = _command([(m1, d1), (m2, d2)], ControllerConfig())
    assert np.allclose(u, 0.0)
    assert omega == pytest.approx(0.0, abs=1e-15)


def test_proportional_heading_rate_cap():
    # the bearing term scales with the product of the distances
    des = _des([100.0, 0.0, 0.0])
    meas = _meas([0.0, 100.0, 0.0])
    cfg = ControllerConfig(k_e=1.0, omega_cap=math.pi)
    _, omega = _command([(meas, des)], cfg, dt=0.1)
    assert abs(omega) == pytest.approx(math.pi / 0.1)


# --- setpoints -----------------------------------------------------------


def test_setpoint_p1_half_is_measurement():
    rng = np.random.default_rng(0)
    meas, des = _random_pair(rng)
    assert np.array_equal(setpoint_p1(meas, des, 0.5), meas.p_m)


def test_setpoint_p1_isotropic_reduces_to_scalar_rule():
    sigma = 0.7
    meas = _meas([4.0, 1.0, 0.0], cov=sigma ** 2 * np.eye(3))
    des = _des([2.0, 1.0, 0.0])
    diff = meas.p_m - des.p_d
    unit = diff / np.linalg.norm(diff)
    expect = meas.p_m + sigma * Q03 * unit
    assert np.allclose(setpoint_p1(meas, des, 0.3), expect, atol=1e-12)


def test_setpoint_p1_anisotropic_example():
    meas = _meas([2.0, 0.0, 0.0], cov=np.diag([4.0, 1.0, 1.0]))
    des = _des([0.0, 0.0, 0.0])
    s = setpoint_p1(meas, des, 0.3)
    # reduced sigma along x is 2, so the offset magnitude is 2 |Q03|
    assert np.allclose(s - meas.p_m, [2.0 * Q03, 0.0, 0.0], atol=1e-12)


def test_setpoint_p1_coincident_returns_measurement():
    meas = _meas([1.0, 2.0, 3.0])
    des = _des([1.0, 2.0, 3.0])
    assert np.array_equal(setpoint_p1(meas, des, 0.2), meas.p_m)


def test_approx_rotated_desired_zero_heading_noise():
    meas = _meas([5.0, 0.0, 0.0], psi_m=0.4, var_psi=0.0)
    des = _des([5.0, 0.0, 0.0], psi_d=0.0)
    p_hat, cov_t = approx_rotated_desired(meas, des)
    assert np.allclose(p_hat, rotz(0.4) @ des.p_d, atol=1e-12)
    evals = np.linalg.eigvalsh(cov_t)
    assert evals.max() <= (5.0 * DELTA) ** 2 * (1 + 1e-9)


def test_approx_rotated_desired_right_angle_noise():
    meas = _meas([0.0, 0.0, 0.0], psi_m=0.0, var_psi=(math.pi / 2) ** 2)
    des = _des([2.0, 0.0, 0.0], psi_d=0.0)
    _, cov_t = approx_rotated_desired(meas, des)
    evals = np.linalg.eigvalsh(cov_t)
    # radial (1 - cos)^2 = 1 and tangential sin^2 = 1, both scaled by r^2
    assert sorted(evals)[-2:] == pytest.approx([4.0, 4.0], rel=1e-9)


def test_approx_rotated_desired_example_026():
    meas = _meas([9.0, 0.0, 0.0], psi_m=0.0, var_psi=0.26 ** 2)
    des = _des([5.0, 0.0, 0.0], psi_d=0.0)
    p_hat, cov_t = approx_rotated_desired(meas, des)
    assert np.allclose(p_hat, [5.0 * math.cos(0.26), 0.0, 0.0], atol=1e-12)
    evals, vecs = np.linalg.eigh(cov_t)
    want = sorted([25.0 * (1 - math.cos(0.26)) ** 2,
                   25.0 * math.sin(0.26) ** 2,
                   25.0 * DELTA ** 2])
    assert np.allclose(sorted(evals), want, rtol=1e-9)
    # radial eigenvector is x, tangential is y
    recon = vecs @ np.diag(evals) @ vecs.T
    assert np.allclose(recon, cov_t, atol=1e-12)


def test_approx_rotated_desired_vertical_fallback():
    meas = _meas([1.0, 0.0, 2.0], var_psi=0.1)
    des = _des([0.0, 0.0, 2.0])
    _, cov_t = approx_rotated_desired(meas, des)
    assert np.allclose(cov_t, DELTA ** 2 * np.eye(3))


def test_setpoint_p2_half_is_measurement():
    rng = np.random.default_rng(1)
    meas, des = _random_pair(rng)
    assert np.array_equal(setpoint_p2(meas, des, 0.5), meas.p_m)


def test_setpoint_p2_reduces_to_p1_without_heading_noise():
    sigma = 0.5
    meas = _meas([4.0, 2.0, 1.0], psi_m=0.3, cov=sigma ** 2 * np.eye(3),
                 var_psi=0.0)
    des = _des([1.0, -1.0, 0.0], psi_d=-0.2)
    p_dr = rotz(wrap_angle(meas.psi_m - des.psi_d)) @ des.p_d
    ref = setpoint_p1(_meas(meas.p_m, cov=sigma ** 2 * np.eye(3)),
                      _des(p_dr), 0.3)
    assert np.allclose(setpoint_p2(meas, des, 0.3), ref, atol=1e-6)


def test_setpoint_p2_mahalanobis_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        meas, des = _random_pair(rng)
        ell = float(rng.uniform(0.02, 0.49))
        p_hat, cov_t = approx_rotated_desired(meas, des)
        s = setpoint_p2(meas, des, ell)
        cov_c = meas.cov_p + cov_t
        # the offset's Mahalanobis norm is |quantile|
        offset = s - meas.p_m
        mah = math.sqrt(offset @ np.linalg.solve(cov_c, offset))
        assert mah == pytest.approx(abs(std_normal_quantile(ell)), rel=1e-9)


# --- bearing -------------------------------------------------------------


def test_bearing_sigma_isotropic_and_axis_aligned():
    meas = _meas([3.0, 4.0, 0.0], cov=0.25 * np.eye(3))
    assert bearing_sigma(meas) == pytest.approx(0.5 / 5.0, rel=1e-12)
    meas = _meas([7.0, 0.0, 0.0], cov=np.diag([0.5 ** 2, 0.2 ** 2, 0.1 ** 2]))
    assert bearing_sigma(meas) == pytest.approx(0.2 / 7.0, rel=1e-12)
    with pytest.raises(ValueError):
        bearing_sigma(_meas([0.0, 0.0, 0.0]))


def test_bearing_sigma_against_sample_projection():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-0.3, 0.3, (3, 3))
        cov = a @ a.T + 0.05 * np.eye(3)
        sig_max = math.sqrt(np.max(np.linalg.eigvalsh(cov)))
        direction = rng.uniform(-1, 1, 2)
        direction /= np.linalg.norm(direction)
        p = np.array([direction[0], direction[1], 0.0]) * 12.0 * sig_max
        meas = _meas(p, cov=cov)
        pred = bearing_sigma(meas)
        pts = rng.multivariate_normal(p, cov, size=200_000)
        beta = math.atan2(p[1], p[0])
        angles = wrap_angle(np.arctan2(pts[:, 1], pts[:, 0]) - beta)
        assert pred == pytest.approx(angles.std(), rel=0.05)


def test_restrained_bearing_term_half_equals_raw():
    rng = np.random.default_rng(4)
    for _ in range(50):
        meas, des = _random_pair(rng)
        assert restrained_bearing_term(meas, des, 0.5) \
            == pytest.approx(_tau_psi1(des.p_d, meas.p_m), rel=1e-12)


def test_restrained_bearing_term_aligned_is_zero():
    meas = _meas([4.0, 0.0, 1.0])
    des = _des([2.0, 0.0, 0.0])
    assert restrained_bearing_term(meas, des, 0.3) == 0.0
    assert _tau_psi1(des.p_d, meas.p_m) == 0.0


def test_restrained_bearing_term_hand_value():
    # measured bearing 0.2 rad off the desired one, sigma_beta = 0.1
    r_m, r_d, alpha = 6.0, 2.5, 0.2
    p_m = r_m * np.array([math.cos(alpha), math.sin(alpha), 0.0])
    p_d = np.array([r_d, 0.0, 0.0])
    cov = (0.1 * r_m) ** 2 * np.eye(3)  # isotropic: sigma_beta = 0.1
    meas = _meas(p_m, cov=cov)
    des = _des(p_d)
    got = restrained_bearing_term(meas, des, 0.3)
    want = r_d * r_m * math.sin(alpha - 0.1 * abs(Q03))
    assert got == pytest.approx(want, rel=1e-9)
    # factored and matrix forms agree for the raw term too
    assert _tau_psi1(p_d, p_m) == pytest.approx(r_d * r_m * math.sin(alpha),
                                                rel=1e-12)


def test_restrained_bearing_term_degenerate_horizontal():
    meas = _meas([0.0, 0.0, 5.0])
    des = _des([1.0, 0.0, 0.0])
    assert restrained_bearing_term(meas, des, 0.2) == 0.0


def test_setpoint_psi2():
    meas = _meas([1.0, 0.0, 0.0], psi_m=0.5, var_psi=0.26 ** 2)
    des = _des([1.0, 0.0, 0.0], psi_d=0.0)
    assert setpoint_psi2(meas, des, 0.5) == meas.psi_m
    got = setpoint_psi2(meas, des, 0.3)
    assert got == pytest.approx(0.5 + 0.26 * Q03, abs=1e-12)
    # dead center: sign(0) = 0, setpoint stays at the measurement
    meas0 = _meas([1.0, 0.0, 0.0], psi_m=0.0, var_psi=0.26 ** 2)
    assert setpoint_psi2(meas0, des, 0.3) == 0.0


# --- combined restrained command ------------------------------------------


def test_restrained_equals_proportional_at_half():
    rng = np.random.default_rng(5)
    cfg = ControllerConfig(k_e=0.6, ell=0.5)
    for _ in range(500):
        meas = [_random_pair(rng) for _ in range(int(rng.integers(1, 4)))]
        r_u, r_omega = _restrained(meas, cfg, dt=0.05)
        p_u, p_omega = _command(meas, cfg, dt=0.05)
        assert np.array_equal(r_u, p_u)
        assert r_omega == p_omega


def test_restrained_equilibrium_zero_without_heading_noise():
    # exact measurement of the desired pose, no heading noise: every term
    # is exactly zero at any ell
    for ell in (0.05, 0.2, 0.45):
        meas = _meas([3.0, 1.0, 0.5], psi_m=0.3,
                     cov=covariance_at(np.array([3.0, 1.0, 0.5])),
                     var_psi=0.0)
        des = _des([3.0, 1.0, 0.5], psi_d=0.3)
        u, omega = _restrained([(meas, des)], ControllerConfig(ell=ell))
        assert np.all(u == 0.0) and omega == 0.0


def test_restrained_equilibrium_zero_small_ell():
    # with heading noise the rotated-desired surrogate is biased, but for
    # ell <= Phi(-1) its dead zone swallows the bias exactly
    meas = _meas([3.0, 1.0, 0.5], psi_m=0.3,
                 cov=covariance_at(np.array([3.0, 1.0, 0.5])),
                 var_psi=0.26 ** 2)
    des = _des([3.0, 1.0, 0.5], psi_d=0.3)
    for ell in (0.05, 0.1, 0.15):
        u, omega = _restrained([(meas, des)], ControllerConfig(ell=ell))
        assert np.all(u == 0.0) and omega == 0.0


def test_restrained_all_terms_inside_dead_zone():
    # construct an input whose every error sits inside its dead zone
    ell = 0.2
    q = abs(std_normal_quantile(ell))
    sigma = 1.0
    p_d = np.array([5.0, 0.0, 0.0])
    psi_d = 0.0
    var_psi = 0.3 ** 2
    # position error 0.3 sigma along x, heading error 0.2 sigma_psi
    p_m = p_d + np.array([0.3 * sigma, 0.0, 0.0])
    psi_m = psi_d + 0.2 * 0.3
    meas = Meas(p_m, psi_m, sigma ** 2 * np.eye(3), var_psi)
    des = Des(p_d, psi_d)
    assert 0.3 < q and 0.2 * 0.3 < q * 0.3
    u, omega = _restrained([(meas, des)], ControllerConfig(ell=ell))
    assert np.all(u == 0.0) and omega == 0.0


def test_per_term_dead_zone_soundness():
    rng = np.random.default_rng(6)
    for _ in range(300):
        meas, des = _random_pair(rng)
        ell = float(rng.uniform(0.02, 0.49))
        q = abs(std_normal_quantile(ell))
        # direct position term: zero iff Mahalanobis error <= |quantile|
        a1 = meas.p_m - des.p_d
        term1 = clamp_dz(setpoint_p1(meas, des, ell) - des.p_d, a1)
        mah = math.sqrt(a1 @ np.linalg.solve(meas.cov_p, a1))
        assert (np.all(term1 == 0.0)) == (mah <= q)
        # heading term: zero iff |wrapped error| <= sigma_psi |quantile|
        err = wrap_angle(meas.psi_m - des.psi_d)
        y4 = wrap_angle(setpoint_psi2(meas, des, ell) - des.psi_d)
        zone = math.sqrt(meas.var_psi) * q
        assert (clamp_dz(y4, err) == 0.0) == (abs(err) <= zone)


def test_bearing_dead_zone_soundness_acute():
    rng = np.random.default_rng(7)
    for _ in range(300):
        r_m = rng.uniform(2.0, 10.0)
        r_d = rng.uniform(1.0, 8.0)
        alpha = rng.uniform(-1.4, 1.4)
        p_m = r_m * np.array([math.cos(alpha), math.sin(alpha), 0.0])
        p_d = np.array([r_d, 0.0, 0.0])
        cov = covariance_at(p_m)
        meas = _meas(p_m, cov=cov)
        des = _des(p_d)
        ell = float(rng.uniform(0.02, 0.45))
        q = abs(std_normal_quantile(ell))
        sig = bearing_sigma(meas)
        y3 = restrained_bearing_term(meas, des, ell)
        raw = _tau_psi1(p_d, p_m)
        clamped = clamp_dz(y3, raw)
        assert (clamped == 0.0) == (abs(alpha) <= sig * q)


def test_monotone_shrink_per_term_and_total():
    rng = np.random.default_rng(8)
    checked_total = 0
    for _ in range(2000):
        meas, des = _random_pair(rng)
        l1, l2 = sorted(rng.uniform(0.02, 0.49, 2))
        if l2 - l1 < 1e-3:
            continue
        u1, _ = _restrained([(meas, des)], ControllerConfig(ell=l1))
        u2, _ = _restrained([(meas, des)], ControllerConfig(ell=l2))
        # per-term shrink of the direct position term
        a1 = meas.p_m - des.p_d
        t1a = clamp_dz(setpoint_p1(meas, des, l1) - des.p_d, a1)
        t1b = clamp_dz(setpoint_p1(meas, des, l2) - des.p_d, a1)
        assert np.linalg.norm(t1a) <= np.linalg.norm(t1b) + 1e-12
        # total-norm shrink whenever the two positional terms do not oppose
        p_hat, _ = approx_rotated_desired(meas, des)
        a2 = meas.p_m - p_hat
        if (np.linalg.norm(u1) > 0 and np.linalg.norm(u2) > 0
                and float(a1 @ a2) >= 0.0):
            checked_total += 1
            assert np.linalg.norm(u1) <= np.linalg.norm(u2) * (1 + 1e-12)
    assert checked_total > 500


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(ell=0.7)
    with pytest.raises(ValueError):
        ControllerConfig(ell=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(k_e=0.0)


def test_singular_position_covariance_raises_linalg_error():
    # the closed-form inverse divides by det; a singular covariance must
    # fail loudly, as a solve did, not divide by zero
    pairs = [(_meas([3.0, 1.0, 0.5], cov=np.diag([1.0, 1.0, 0.0])),
              _des([2.0, 0.0, 0.0]))]
    with pytest.raises(np.linalg.LinAlgError, match="position covariance"):
        _restrained(pairs, ControllerConfig(ell=0.2))
