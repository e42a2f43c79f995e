"""Measurement noise synthesis."""

import math

import numpy as np
import pytest

from rigidflock.control import DELTA
from rigidflock.core import RelativePose, rotz
from rigidflock.sensors import (SensorSpec, covariance_for, init_stream,
                                measurement_stream, sample_measurement)


def test_covariance_for_axis_aligned():
    c = covariance_for([10.0, 0, 0], SensorSpec())
    assert np.allclose(c, np.diag([1.0, 0.09, 0.09]), atol=1e-12)


def test_covariance_scaling_and_rotation():
    spec = SensorSpec()
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = rng.uniform(-5, 5, 3)
        if np.linalg.norm(p) < 0.5:
            p[2] += 2.0
        c = covariance_for(p, spec)
        # quadratic scaling
        assert np.allclose(covariance_for(3.0 * p, spec), 9.0 * c,
                           rtol=1e-12)
        # congruent rotation
        r = rotz(rng.uniform(-3, 3))
        assert np.allclose(covariance_for(r @ p, spec), r @ c @ r.T,
                           atol=1e-12)


def test_covariance_eigenstructure():
    spec = SensorSpec()
    p = np.array([3.0, 4.0, 1.0])
    c = covariance_for(p, spec)
    d = np.linalg.norm(p)
    r_hat = p / d
    assert c @ r_hat == pytest.approx((0.10 * d) ** 2 * r_hat, rel=1e-12)
    tangent = np.array([-p[1], p[0], 0.0])
    tangent /= np.linalg.norm(tangent)
    assert c @ tangent == pytest.approx((0.03 * d) ** 2 * tangent, rel=1e-12)


def test_covariance_zero_distance_rejected():
    with pytest.raises(ValueError):
        covariance_for([0.0, 0.0, 0.0], SensorSpec())


def test_sensor_spec_validation():
    with pytest.raises(ValueError):
        SensorSpec(dist_frac_sigma=-0.1)
    with pytest.raises(ValueError):
        SensorSpec(rate_hz=0.0)


def test_zero_noise_measurement_is_exact_with_floor():
    spec = SensorSpec(dist_frac_sigma=0.0, bearing_sigma=0.0,
                      heading_sigma=0.0)
    rel = RelativePose([2.0, 1.0, 0.5], 0.3)
    rng = np.random.default_rng(7)
    meas = sample_measurement(rng, rel, spec)
    assert np.allclose(meas.p_m, rel.p_rel, atol=1e-15)
    assert meas.psi_m == rel.psi_rel
    assert np.allclose(meas.cov_p, DELTA ** 2 * np.eye(3))
    assert meas.var_psi == 0.0


def test_attached_covariance_equals_generating_one():
    spec = SensorSpec()
    rel = RelativePose([4.0, -3.0, 2.0], -0.8)
    meas = sample_measurement(np.random.default_rng(1), rel, spec)
    assert np.array_equal(meas.cov_p, covariance_for(rel.p_rel, spec))
    assert meas.var_psi == spec.heading_sigma ** 2


def test_fixed_seed_stream_is_bit_identical():
    spec = SensorSpec()
    rel = RelativePose([5.0, 1.0, -2.0], 0.2)
    a = [sample_measurement(measurement_stream(9, 0), rel, spec)
         for _ in range(1)][0]
    b = [sample_measurement(measurement_stream(9, 0), rel, spec)
         for _ in range(1)][0]
    assert np.array_equal(a.p_m, b.p_m) and a.psi_m == b.psi_m


def test_streams_differ_across_agents_and_runs():
    x = measurement_stream(9, 0).standard_normal(4)
    y = measurement_stream(9, 1).standard_normal(4)
    z = measurement_stream(10, 0).standard_normal(4)
    w = init_stream(9).standard_normal(4)
    assert not np.allclose(x, y)
    assert not np.allclose(x, z)
    assert not np.allclose(x, w)


def test_empirical_moments_match_model():
    spec = SensorSpec()
    rel = RelativePose([6.0, 2.0, -1.0], 0.4)
    rng = np.random.default_rng(123)
    n = 150_000
    draws = np.empty((n, 3))
    psis = np.empty(n)
    for k in range(n):
        m = sample_measurement(rng, rel, spec)
        draws[k] = m.p_m
        psis[k] = m.psi_m
    c_model = covariance_for(rel.p_rel, spec)
    # unbiased mean, within 4 sigma / sqrt(n) per component
    sig_max = math.sqrt(np.diag(c_model).max())
    assert np.abs(draws.mean(axis=0) - rel.p_rel).max() \
        <= 4.0 * sig_max / math.sqrt(n)
    c_emp = np.cov(draws.T)
    rel_err = np.linalg.norm(c_emp - c_model) / np.linalg.norm(c_model)
    assert rel_err < 0.02
    assert abs(psis.std() - spec.heading_sigma) < 0.01
