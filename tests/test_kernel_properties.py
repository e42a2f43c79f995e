"""Properties of the array kernels over random edge batches and poses."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rigidflock.control import (ControllerConfig, DesiredRelativePose,
                                NoisyRelativePose, _stack, edge_terms,
                                proportional_command, restrained_command)
from rigidflock.core import (AgentPose, relative_poses, rotate_z, rotz,
                            std_normal_quantile, wrap_angle)
from rigidflock.graphs import ObservationGraph
from rigidflock.sim import _EdgeCache, _error_series
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


@st.composite
def formation(draw):
    """Desired poses, a directed edge set, and a (T, N) pose history."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    t = draw(st.integers(1, 4))
    vals = st.lists(coord, min_size=3 * n * (t + 1),
                    max_size=3 * n * (t + 1))
    pos = np.array(draw(vals)).reshape(t + 1, n, 3)
    psi = np.array(draw(st.lists(angle, min_size=n * (t + 1),
                                 max_size=n * (t + 1)))).reshape(t + 1, n)
    desired = tuple(AgentPose(pos[0, a], psi[0, a]) for a in range(n))
    return desired, ObservationGraph.from_pairs(n, edges), pos[1:], psi[1:]


@given(formation())
def test_relative_poses_of_history_equal_single_states_bitwise(case):
    _, graph, pos, psi = case
    obs_i, obs_j = graph.edge_index()
    p_all, psi_all = relative_poses(pos, psi, obs_i, obs_j)
    singles = [relative_poses(pos[k], psi[k], obs_i, obs_j)
               for k in range(len(pos))]
    assert p_all.tobytes() == np.stack([p for p, _ in singles]).tobytes()
    assert psi_all.tobytes() == np.stack([s for _, s in singles]).tobytes()


@given(formation(), angle, st.lists(coord, min_size=3, max_size=3))
def test_error_series_is_se2_invariant(case, theta, shift):
    # the same rigid motion of every pose leaves every series unchanged
    desired, graph, pos, psi = case
    cache = _EdgeCache(desired, graph)
    base = _error_series(pos, psi, cache)
    moved = _error_series(rotate_z(pos, theta) + np.array(shift),
                          psi + theta, cache)
    for a, b in zip(base, moved):
        assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(a)))


def loop_error(desired, graph, pos, psi):
    """(e_F, e_p, e_psi) of one state, edge by edge with rotation matrices."""
    sq, res_p, res_psi = 0.0, {}, {}
    for i, j in graph.sorted_edges():
        dp = (rotz(desired[i].psi).T @ (desired[j].p - desired[i].p)
              - rotz(psi[i]).T @ (pos[j] - pos[i]))
        dpsi = wrap_angle(desired[j].psi - desired[i].psi
                          - (psi[j] - psi[i]))
        sq += dp @ dp + dpsi ** 2
        res_p.setdefault(i, []).append(np.linalg.norm(dp))
        res_psi.setdefault(i, []).append(abs(dpsi))
    # each observer's mean edge residual, averaged over the observers
    return (np.sqrt(sq), np.mean([np.mean(r) for r in res_p.values()]),
            np.mean([np.mean(r) for r in res_psi.values()]))


@given(formation())
def test_error_series_matches_edge_loop(case):
    desired, graph, pos, psi = case
    series = _error_series(pos, psi, _EdgeCache(desired, graph))[:3]
    for k in range(len(pos)):
        for got, want in zip(series, loop_error(desired, graph, pos[k],
                                                psi[k])):
            assert abs(got[k] - want) <= 1e-12 * (1.0 + want)
