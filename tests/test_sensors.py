"""Measurement noise synthesis."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigidflock.control import DELTA
from rigidflock.sensors import (SensorSpec, covariance_sigmas, init_stream,
                                measurement_stream, perturb,
                                position_covariance)
from scalar_law import covariance_at, full_matrix, rotz


def test_covariance_axis_aligned():
    c = covariance_at(np.array([10.0, 0, 0]), SensorSpec())
    assert np.allclose(c, np.diag([1.0, 0.09, 0.09]), atol=1e-12)


def test_covariance_scaling_and_rotation():
    spec = SensorSpec()
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = rng.uniform(-5, 5, 3)
        if np.linalg.norm(p) < 0.5:
            p[2] += 2.0
        c = covariance_at(p, spec)
        # quadratic scaling
        assert np.allclose(covariance_at(3.0 * p, spec), 9.0 * c,
                           rtol=1e-12)
        # congruent rotation
        r = rotz(rng.uniform(-3, 3))
        assert np.allclose(covariance_at(r @ p, spec), r @ c @ r.T,
                           atol=1e-12)


def test_covariance_eigenstructure():
    spec = SensorSpec()
    p = np.array([3.0, 4.0, 1.0])
    c = covariance_at(p, spec)
    d = np.linalg.norm(p)
    r_hat = p / d
    assert c @ r_hat == pytest.approx((0.10 * d) ** 2 * r_hat, rel=1e-12)
    tangent = np.array([-p[1], p[0], 0.0])
    tangent /= np.linalg.norm(tangent)
    assert c @ tangent == pytest.approx((0.03 * d) ** 2 * tangent, rel=1e-12)


# Unit vectors along the axes, with every sign of zero, and drawn ones.
AXES = [np.array(v) for v in itertools.product((-1.0, -0.0, 0.0, 1.0),
                                               repeat=3)
        if sum(abs(c) for c in v) == 1.0]


@st.composite
def radial(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(AXES))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3,
                               max_size=3)))
    return v / np.linalg.norm(v) if np.linalg.norm(v) > 1e-3 else AXES[0]


@given(st.lists(st.tuples(radial(), st.one_of(
    st.floats(1e-9, 1e-2), st.floats(1e-2, 1e4))), min_size=1, max_size=5))
def test_covariance_entries_are_the_built_matrix_bitwise(edges):
    # the six entries the law reads are the upper triangle of
    # s_t^2 I + (s_r^2 - s_t^2) r r^T, signed zeros included; ranges under
    # 1e-3 m put both sigmas on the DELTA floor
    r_hat = np.array([r for r, _ in edges])
    s_r, s_t = covariance_sigmas(np.array([d for _, d in edges]), SensorSpec())
    built = (s_t[:, None, None] ** 2 * np.eye(3) + (s_r ** 2 - s_t ** 2)[
        :, None, None] * (r_hat[:, :, None] * r_hat[:, None, :]))
    got = position_covariance(r_hat, s_r, s_t)
    assert len(got) == 6
    for entry, i, j in zip(got, *np.triu_indices(3)):
        assert entry.tobytes() == built[:, i, j].tobytes(), (i, j)


def test_covariance_zero_distance_rejected():
    with pytest.raises(ArithmeticError):
        perturb(np.array([[1.0, 0, 0], [0, 0, 0]]), np.zeros(2),
                np.zeros((2, 4)), SensorSpec())


def test_sensor_spec_validation():
    with pytest.raises(ValueError):
        SensorSpec(dist_frac_sigma=-0.1)
    with pytest.raises(ValueError):
        SensorSpec(rate_hz=0.0)


def test_zero_noise_measurement_is_exact_with_floor():
    spec = SensorSpec(dist_frac_sigma=0.0, bearing_sigma=0.0,
                      heading_sigma=0.0)
    p_rel = np.array([2.0, 1.0, 0.5])
    z = np.random.default_rng(7).standard_normal(4)
    p_m, psi_m, dist, r_hat = perturb(p_rel, 0.3, z, spec)
    assert np.allclose(p_m, p_rel, atol=1e-15)
    assert psi_m == 0.3
    assert np.allclose(full_matrix(position_covariance(
        r_hat, *covariance_sigmas(dist, spec))), DELTA ** 2 * np.eye(3))


def test_attached_covariance_equals_generating_one():
    # the controller's covariance C is the one perturb draws from: the
    # position moves by A z with A A^T = C, the heading by heading_sigma z_4
    spec = SensorSpec()
    p_rel = np.array([4.0, -3.0, 2.0])
    z = np.eye(4)
    p_m, psi_m, dist, r_hat = perturb(np.broadcast_to(p_rel, (4, 3)),
                                      np.full(4, -0.8), z, spec)
    a_t = p_m[:3] - p_rel  # row k is A e_k
    c = full_matrix(position_covariance(r_hat[0],
                                        *covariance_sigmas(dist[0], spec)))
    assert np.allclose(a_t.T @ a_t, c, rtol=0.0, atol=1e-12 * np.abs(c).max())
    assert np.array_equal(p_m[3], p_rel)
    assert np.array_equal(psi_m, -0.8 + spec.heading_sigma * z[:, 3])


def test_fixed_seed_stream_is_bit_identical():
    spec = SensorSpec()
    p_rel = np.array([5.0, 1.0, -2.0])
    a = perturb(p_rel, 0.2, measurement_stream(9, 0).standard_normal(4), spec)
    b = perturb(p_rel, 0.2, measurement_stream(9, 0).standard_normal(4), spec)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


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
    p_rel = np.array([6.0, 2.0, -1.0])
    rng = np.random.default_rng(123)
    n = 150_000
    draws, psis, _, _ = perturb(np.broadcast_to(p_rel, (n, 3)),
                                np.full(n, 0.4), rng.standard_normal((n, 4)),
                                spec)
    c_model = covariance_at(p_rel, spec)
    # unbiased mean, within 4 sigma / sqrt(n) per component
    sig_max = math.sqrt(np.diag(c_model).max())
    assert np.abs(draws.mean(axis=0) - p_rel).max() \
        <= 4.0 * sig_max / math.sqrt(n)
    c_emp = np.cov(draws.T)
    rel_err = np.linalg.norm(c_emp - c_model) / np.linalg.norm(c_model)
    assert rel_err < 0.02
    assert abs(psis.std() - spec.heading_sigma) < 0.01
