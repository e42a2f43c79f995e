"""Properties of the array control kernel over random edge batches."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rigidflock.control import (ControllerConfig, DesiredRelativePose,
                                NoisyRelativePose, _stack, edge_terms,
                                proportional_command, restrained_command)
from rigidflock.core import std_normal_quantile
from scalar_law import restrained_edge_terms

coord = st.floats(-10.0, 10.0, allow_nan=False)
angle = st.floats(-3.1, 3.1, allow_nan=False)


@st.composite
def position(draw):
    """A relative position, sometimes on the vertical axis."""
    x, y, z = draw(coord), draw(coord), draw(coord)
    if draw(st.booleans()) and draw(st.booleans()):
        x = y = 0.0
    return np.array([x, y, z])


@st.composite
def edge(draw):
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9,
                               max_size=9))).reshape(3, 3)
    cov = a @ a.T + draw(st.floats(0.05, 1.0)) * np.eye(3)
    var_psi = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    meas = NoisyRelativePose(draw(position()), draw(angle), cov, var_psi)
    return meas, DesiredRelativePose(draw(position()), draw(angle))


edges = st.lists(edge(), min_size=1, max_size=4)


@given(edges, st.floats(0.001, 0.49))
def test_kernel_matches_scalar_law(batch, ell):
    p_m, psi_m, p_d, psi_d, cov, var_psi = _stack(batch)
    pos, ang = edge_terms(p_m, psi_m, p_d, psi_d, std_normal_quantile(ell),
                          cov, var_psi)
    for e, (meas, des) in enumerate(batch):
        ref_pos, ref_ang = restrained_edge_terms(meas, des, ell)
        scale = 1.0 + np.linalg.norm(meas.p_m) + np.linalg.norm(des.p_d)
        assert np.abs(pos[e] - ref_pos).max() <= 1e-12 * scale
        assert abs(ang[e] - ref_ang) <= 1e-12 * scale ** 2


@given(edges, st.floats(0.01, 10.0), st.floats(0.01, 1.0))
def test_restrained_at_half_is_proportional_bitwise(batch, k_e, dt):
    cfg = ControllerConfig(k_e=k_e, ell=0.5)
    r = restrained_command(batch, cfg, dt)
    p = proportional_command(batch, cfg, dt)
    assert np.array_equal(r.u, p.u)
    assert r.omega == p.omega


def test_restrained_at_half_keeps_tiny_errors_and_ranges():
    # values far below sqrt(tiny) must not underflow into a dead zone
    cfg = ControllerConfig(ell=0.5)
    for p_m, p_d in (([1e-170, 1e-170, 0.0], [0.0, 0.0, 0.0]),
                     ([1e-170, 5e-324, 0.0], [0.0, 0.0, 0.0]),
                     ([1e-170, 1e-170, 0.0], [1.0, 0.0, 0.0])):
        batch = [(NoisyRelativePose(p_m, 0.0, np.eye(3), 0.0),
                  DesiredRelativePose(p_d, 0.0))]
        r = restrained_command(batch, cfg)
        p = proportional_command(batch, cfg)
        assert np.array_equal(r.u, p.u) and r.omega == p.omega
        assert np.any(r.u != 0.0) and (p_d[0] == 0.0 or r.omega != 0.0)
