"""Geometry and statistics primitives."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from rigidflock import ControllerConfig, OneDConfig, SensorSpec
from rigidflock.core import (AgentPose, planes, pose_arrays, relative_poses,
                             std_normal_cdf, std_normal_quantile, turn,
                             vectors, wrap_angle)
from rigidflock.sim import builtin_scenarios
from scalar_law import rotz

TAU = 2 * math.pi

# Reference values computed beforehand with a 40-digit erf evaluation.
CDF_AT_1 = 0.84134474606854294859
QUANTILE_03 = -0.52440051270804078404


def test_wrap_angle_examples():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-15)
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(math.pi) == math.pi


def test_wrap_angle_idempotent_and_exact_multiple():
    rng = np.random.default_rng(0)
    for a in rng.uniform(-60.0, 60.0, 500):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert wrap_angle(w) == w
        k = round((w - a) / TAU)
        # off by an exact multiple of 2*pi, to ~1 ulp of that multiple
        assert abs((w - a) - TAU * k) <= 4 * np.finfo(float).eps * max(abs(a), 1.0)


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))
    with pytest.raises(ValueError):
        wrap_angle(np.array([0.0, np.inf]))


def test_wrap_angle_array_matches_scalar():
    rng = np.random.default_rng(1)
    vals = rng.uniform(-20, 20, 200)
    arr = wrap_angle(vals)
    for v, w in zip(vals, arr):
        assert w == pytest.approx(wrap_angle(float(v)), abs=1e-12)


def test_rotz_basics():
    assert np.allclose(rotz(0.0), np.eye(3))
    assert np.allclose(rotz(math.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.uniform(-10, 10, 2)
        assert np.allclose(rotz(a) @ rotz(b), rotz(wrap_angle(a + b)),
                           atol=1e-12)
    r = rotz(0.7)
    assert abs(np.linalg.det(r) - 1.0) < 1e-14
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-15)


def _rotate_z_stacked(v, psi):
    """The np.stack form of a z rotation of (..., 3) vectors by psi (...)."""
    c, s = np.cos(psi), np.sin(psi)
    x = c * v[..., 0] - s * v[..., 1]
    y = s * v[..., 0] + c * v[..., 1]
    return np.stack([x, y, np.broadcast_to(v[..., 2], x.shape)], axis=-1)


def test_turn_of_planes_equals_stacked_form_bitwise():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((7, 5, 3))
    psi = rng.uniform(-4.0, 4.0, (7, 5))
    # p_d (5, 3) is broadcast by psi (7, 5), as desired poses are by a batch
    for w in (v, v[0]):
        got = vectors(turn(planes(w), psi))
        assert got.shape == (7, 5, 3)
        assert got.tobytes() == _rotate_z_stacked(w, psi).tobytes()
        want = np.array([rotz(a) @ b for a, b in
                         zip(psi.ravel(), np.broadcast_to(w, got.shape)
                             .reshape(-1, 3))]).reshape(got.shape)
        scale = np.linalg.norm(w, axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def _rel(q_i, q_j):
    """(p_rel (3,), psi_rel) of agent j seen from agent i."""
    p_rel, psi_rel = relative_poses(*pose_arrays((q_i, q_j)), [0], [1])
    return p_rel[0], psi_rel[0]


def test_relative_pose_examples():
    q = AgentPose([1.0, 2.0, 3.0], 0.4)
    p_rel, psi_rel = _rel(q, q)
    assert np.allclose(p_rel, 0.0)
    assert psi_rel == 0.0

    origin = AgentPose([0, 0, 0], 0.0)
    ahead = AgentPose([1, 0, 0], 0.0)
    p_rel, _ = _rel(origin, ahead)
    assert np.allclose(p_rel, [1, 0, 0])

    turned = AgentPose([0, 0, 0], math.pi / 2)
    p_rel, _ = _rel(turned, AgentPose([1, 0, 0], 0.0))
    assert np.allclose(p_rel, [0, -1, 0], atol=1e-15)


def test_relative_pose_reciprocity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        qi = AgentPose(rng.uniform(-5, 5, 3), rng.uniform(-3, 3))
        qj = AgentPose(rng.uniform(-5, 5, 3), rng.uniform(-3, 3))
        p_ij, psi_ij = _rel(qi, qj)
        p_ji, psi_ji = _rel(qj, qi)
        assert np.allclose(p_ji, -rotz(psi_ij).T @ p_ij, atol=1e-12)
        assert psi_ji == pytest.approx(wrap_angle(-psi_ij), abs=1e-12)


def test_agent_pose_validation():
    with pytest.raises(ValueError):
        AgentPose([np.nan, 0, 0], 0.0)
    # heading is wrapped at construction
    assert AgentPose([0, 0, 0], 3 * math.pi).psi == pytest.approx(math.pi)


# One valid instance of each config dataclass, and (instance, field name) of
# each of their fields annotated float and int.
CONFIGS = (ControllerConfig(), SensorSpec(), OneDConfig(k_ef=0.5),
           builtin_scenarios()[0], AgentPose([0.0, 0.0, 0.0], 0.0))
FLOAT_FIELDS, INT_FIELDS = ([(c, f.name) for c in CONFIGS for f in fields(c)
                             if f.type == kind] for kind in ("float", "int"))
FLOATS, INTS = (float, np.float64, np.float32), (int, np.int64, np.int32)


@given(st.sampled_from(FLOAT_FIELDS),
       st.sampled_from([True, math.nan, math.inf, -math.inf, 10 ** 400, "1",
                        [1]]))
def test_bad_float_field_raises_naming_it(case, bad):
    config, name = case
    with pytest.raises(ValueError, match=f"^{name} is not a valid float"):
        replace(config, **{name: bad})


@given(st.sampled_from(INT_FIELDS), st.sampled_from([True, 1.5, "1"]))
def test_bad_int_field_raises_naming_it(case, bad):
    config, name = case
    with pytest.raises(ValueError, match=f"^{name} is not a valid int"):
        replace(config, **{name: bad})


# An integer type goes into a float field whose valid value is integral.
@given(st.sampled_from(
    [(c, name, kind) for c, name in FLOAT_FIELDS for kind in FLOATS + INTS
     if kind in FLOATS or float(getattr(c, name)).is_integer()]
    + [(c, name, kind) for c, name in INT_FIELDS for kind in INTS]))
def test_python_and_numpy_numbers_are_accepted(case):
    config, name, kind = case
    value = kind(getattr(config, name))
    assert getattr(replace(config, **{name: value}), name) == value


def test_std_normal_cdf_value_and_monotonicity():
    assert std_normal_cdf(1.0) == pytest.approx(CDF_AT_1, abs=1e-6)
    xs = np.linspace(-8, 8, 200)
    ys = [std_normal_cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(ys, ys[1:]))


def test_std_normal_quantile_values():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.3) == pytest.approx(QUANTILE_03, abs=1e-6)
    with pytest.raises(ValueError):
        std_normal_quantile(0.0)
    with pytest.raises(ValueError):
        std_normal_quantile(1.0)
    with pytest.raises(ValueError):
        std_normal_quantile(-0.1)


def test_std_normal_quantile_matches_ndtri_oracle():
    # statistics.NormalDist against scipy's ndtri: exact at the centre, a
    # few ulp elsewhere, on (1e-6, 0.5] and its mirror (0.5, 1 - 1e-6]
    assert std_normal_quantile(0.5) == 0.0
    ps = np.geomspace(1e-6, 0.5, 400)
    for p in np.concatenate([ps, 1.0 - ps]):
        want = float(ndtri(p))
        assert std_normal_quantile(float(p)) \
            == pytest.approx(want, rel=2e-15, abs=0.0)


def test_cdf_quantile_round_trip():
    for p in np.concatenate([np.linspace(1e-6, 1 - 1e-6, 997),
                             [1e-6, 1 - 1e-6, 0.5]]):
        x = std_normal_quantile(float(p))
        assert abs(std_normal_cdf(x) - p) <= 1e-9

