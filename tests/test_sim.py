"""Formation simulator: determinism, invariances, convergence."""

import dataclasses
import math

import numpy as np
import pytest

from rigidflock.control import ControllerConfig
from rigidflock.core import AgentPose, rotz, wrap_angle
from rigidflock.graphs import ObservationGraph, fiedler_value, is_connected
from rigidflock.sensors import SensorSpec
from rigidflock.sim import (Scenario, ScenarioError, _EdgeCache,
                            builtin_scenarios, formation_error, init_state,
                            run, step, sweep)


def quiet_sensor(rate=10.0):
    return SensorSpec(dist_frac_sigma=0.0, bearing_sigma=0.0,
                      heading_sigma=0.0, rate_hz=rate)


def pair_scenario(**kw):
    base = builtin_scenarios()[0]
    return dataclasses.replace(base, **kw)


def test_scenario_validation():
    desired = (AgentPose([0, 0, 0], 0.0), AgentPose([5, 0, 0], 0.0),
               AgentPose([0, 5, 0], 0.0))
    with pytest.raises(ScenarioError):  # two passive sinks
        Scenario(desired=desired,
                 graph=ObservationGraph.from_pairs(3, [(0, 1), (0, 2)]))
    with pytest.raises(ScenarioError):  # disconnected
        Scenario(desired=(desired[0], desired[1]),
                 graph=ObservationGraph(2))
    with pytest.raises(ScenarioError):  # pose count mismatch
        Scenario(desired=(desired[0],),
                 graph=ObservationGraph.complete(2))


def test_formation_error_examples():
    desired = (AgentPose([0, 0, 0], 0.0), AgentPose([5, 0, 0], 0.0))
    g = ObservationGraph.complete(2)
    assert formation_error(desired, desired, g) == (0.0, 0.0, 0.0)

    moved = (AgentPose([1, 0, 0], 0.0), AgentPose([5, 0, 0], 0.0))
    e_f, e_p, e_psi = formation_error(moved, desired, g)
    assert e_f == pytest.approx(math.sqrt(2.0))
    assert e_p == pytest.approx(1.0)
    assert e_psi == 0.0
    with pytest.raises(ValueError):
        formation_error(desired, desired, ObservationGraph(2))


def test_formation_error_rigid_transform_invariance():
    rng = np.random.default_rng(0)
    desired = tuple(AgentPose(rng.uniform(-5, 5, 3), rng.uniform(-3, 3))
                    for _ in range(4))
    poses = tuple(AgentPose(rng.uniform(-5, 5, 3), rng.uniform(-3, 3))
                  for _ in range(4))
    g = ObservationGraph.complete(4)
    base = formation_error(poses, desired, g)
    rot = rotz(1.1)
    shift = np.array([3.0, -2.0, 4.0])
    moved = tuple(AgentPose(rot @ p.p + shift, wrap_angle(p.psi + 1.1))
                  for p in poses)
    trans = formation_error(moved, desired, g)
    assert trans == pytest.approx(base, rel=1e-9)


def test_equilibrium_is_stationary_zero_noise():
    for ell in (0.5, 0.1):
        scen = pair_scenario(controller=ControllerConfig(k_e=0.5, ell=ell),
                             sensor=quiet_sensor(), horizon_steps=5)
        state = init_state(scen)
        state.positions[:] = [p.p for p in scen.desired]
        state.headings[:] = [p.psi for p in scen.desired]
        nxt = step(state, scen)
        assert np.array_equal(nxt.positions, state.positions)
        assert np.array_equal(nxt.headings, state.headings)


def test_two_agent_zero_noise_contraction_matches_recursion():
    # mutual pair, zero noise, aligned headings: both positional terms see
    # the same raw error and both agents move, so the separation error
    # contracts by (1 - 4 k_ef) per step
    scen = pair_scenario(sensor=quiet_sensor(rate=10.0),
                         controller=ControllerConfig(k_e=0.5, ell=0.5),
                         horizon_steps=30)
    cache = _EdgeCache(scen.desired, scen.graph)
    state = init_state(scen)
    state.positions[:] = [[0.0, 0.0, 0.0], [7.0, 0.0, 0.0]]
    state.headings[:] = 0.0
    k_ef = scen.controller.k_e / scen.sensor.rate_hz
    gap = 7.0 - 5.0
    for _ in range(20):
        state = step(state, scen, cache)
        gap = gap * (1 - 4 * k_ef)
        sep = state.positions[1, 0] - state.positions[0, 0]
        assert sep - 5.0 == pytest.approx(gap, rel=1e-9, abs=1e-12)


def test_run_determinism_bitwise():
    scen = pair_scenario(horizon_steps=60, seed=5)
    a = run(scen)
    b = run(scen)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.e_f, b.e_f)
    assert a.summary == b.summary


def test_run_record_shapes_and_zero_horizon():
    scen = pair_scenario(horizon_steps=25, seed=2)
    rec = run(scen)
    n = scen.graph.n
    assert rec.positions.shape == (26, n, 3)
    assert rec.u.shape == (25, n, 3)
    assert rec.e_f.shape == (26,)
    assert rec.fiedler[0] == pytest.approx(fiedler_value(scen.graph))

    empty = run(dataclasses.replace(scen, horizon_steps=0))
    assert empty.positions.shape == (1, n, 3)
    assert empty.u.shape == (0, n, 3)
    assert empty.summary == {}


def test_se2_invariance_of_error_series():
    # same noise stream, globally rotated and translated start: identical
    # error series (proportional control, smooth in the state)
    base = pair_scenario(horizon_steps=200, seed=7,
                         controller=ControllerConfig(k_e=0.5, ell=0.5),
                         sensor=SensorSpec(rate_hz=20.0))
    cache = _EdgeCache(base.desired, base.graph)

    def series(transform):
        state = init_state(base)
        if transform:
            rot = rotz(0.9)
            shift = np.array([10.0, -4.0, 2.5])
            state.positions[:] = state.positions @ rot.T + shift
            state.headings[:] = wrap_angle(state.headings + 0.9)
        out = np.empty(base.horizon_steps)
        for k in range(base.horizon_steps):
            state = step(state, base, cache)
            out[k] = formation_error(
                tuple(AgentPose(state.positions[a], state.headings[a])
                      for a in range(2)), base.desired, base.graph)[0]
        return out

    plain = series(False)
    moved = series(True)
    assert np.allclose(plain, moved, rtol=1e-6, atol=1e-9)


def test_se2_invariance_restrained_zero_noise():
    scen = pair_scenario(horizon_steps=150, seed=3,
                         controller=ControllerConfig(k_e=0.5, ell=0.2),
                         sensor=quiet_sensor(rate=20.0))
    cache = _EdgeCache(scen.desired, scen.graph)

    def final_error(transform):
        state = init_state(scen)
        if transform:
            rot = rotz(-1.7)
            state.positions[:] = state.positions @ rot.T + [1.0, 2.0, -3.0]
            state.headings[:] = wrap_angle(state.headings - 1.7)
        for _ in range(scen.horizon_steps):
            state = step(state, scen, cache)
        return formation_error(
            tuple(AgentPose(state.positions[a], state.headings[a])
                  for a in range(2)), scen.desired, scen.graph)[0]

    assert final_error(True) == pytest.approx(final_error(False),
                                              rel=1e-6, abs=1e-9)


def test_zero_noise_convergence_pair_and_triangle():
    # operating points with a stable heading loop: the formation error
    # decreases monotonically (after the heading-rate cap releases) and
    # reaches numerical zero well inside the horizon
    pair = pair_scenario(sensor=quiet_sensor(rate=10.0),
                         controller=ControllerConfig(k_e=0.5, ell=0.5),
                         horizon_steps=2000, seed=1)
    tri = dataclasses.replace(builtin_scenarios()[1],
                              sensor=quiet_sensor(rate=50.0),
                              controller=ControllerConfig(k_e=1.0, ell=0.5),
                              horizon_steps=2000, seed=1)
    for scen in (pair, tri):
        rec = run(scen)
        assert rec.e_f[-1] < 1e-6
        tail = rec.e_f[100:]
        assert np.all(np.diff(tail) <= 1e-12)


def test_builtin_scenarios():
    scens = builtin_scenarios()
    assert [s.graph.n for s in scens] == [2, 3, 6, 6]
    tri = scens[1]
    d01 = np.linalg.norm(tri.desired[0].p - tri.desired[1].p)
    d02 = np.linalg.norm(tri.desired[0].p - tri.desired[2].p)
    d12 = np.linalg.norm(tri.desired[1].p - tri.desired[2].p)
    assert [d01, d02, d12] == pytest.approx([5.0, 5.0, 5.0])
    six = scens[2]
    assert six.min_desired_distance() == pytest.approx(5.0)
    assert len(six.graph.edges) == 30
    sparse = scens[3]
    assert is_connected(sparse.graph)
    assert fiedler_value(sparse.graph) > 0
    assert len(sparse.graph.undirected_edges()) == 8
    # stable across calls
    again = builtin_scenarios()
    assert again[3].graph.edges == sparse.graph.edges


def test_sweep_shares_initial_conditions_across_ell():
    scen = pair_scenario(horizon_steps=5, seed=11)
    rows = sweep(scen, rates=[10.0], ells=[0.5, 0.2], n_seeds=2)
    assert len(rows) == 4
    assert {r["ell"] for r in rows} == {0.5, 0.2}
    # same seed, different ell: identical initial state by construction
    s1 = init_state(dataclasses.replace(
        scen, controller=dataclasses.replace(scen.controller, ell=0.5)))
    s2 = init_state(dataclasses.replace(
        scen, controller=dataclasses.replace(scen.controller, ell=0.2)))
    assert np.array_equal(s1.positions, s2.positions)
    assert np.array_equal(s1.headings, s2.headings)


def test_sweep_row_equals_single_run_bitwise():
    # one restrained cell and one ell = 0.5 cell, each against run() alone
    scen = dataclasses.replace(builtin_scenarios()[1], horizon_steps=60,
                               seed=4)
    rows = sweep(scen, rates=[50.0], ells=[0.2, 0.5], n_seeds=1)
    for row in rows:
        alone = run(dataclasses.replace(
            scen, controller=dataclasses.replace(scen.controller,
                                                 ell=row["ell"]),
            sensor=dataclasses.replace(scen.sensor, rate_hz=row["rate_hz"])))
        assert {k: row[k] for k in alone.summary} == alone.summary


def test_sweep_row_schema():
    scen = pair_scenario(horizon_steps=40, seed=0)
    rows = sweep(scen, rates=[20.0], ells=[0.5], n_seeds=1)
    row = rows[0]
    for key in ("rate_hz", "ell", "seed", "t_cp", "t_cpsi", "sigma_tp",
                "sigma_tpsi", "mean_dv", "mean_domega", "a_p", "v_psi",
                "stable_rms_p", "converged"):
        assert key in row


def _medians(rows, ell, keys):
    """Median of each summary key over the sweep rows of one ell."""
    return {k: float(np.median([r[k] for r in rows if r["ell"] == ell]))
            for k in keys}


def test_pair_restraining_tradeoff_at_100hz():
    # lowering ell trades convergence speed for a calmer stable state
    rows = sweep(builtin_scenarios()[0], [100.0], [0.5, 0.05], 10)
    med = {ell: _medians(rows, ell, ("sigma_tp", "t_cp"))
           for ell in (0.5, 0.05)}
    assert med[0.05]["sigma_tp"] < med[0.5]["sigma_tp"]
    assert med[0.05]["t_cp"] >= med[0.5]["t_cp"]


def test_restraining_calms_flight_metrics_low_gain():
    # triangle at the low-gain operating point: ell = 0.3 lowers the
    # velocity-change, rotation-rate and stable-noise metrics against plain
    # proportional control, at a small convergence-time cost
    scen = dataclasses.replace(builtin_scenarios()[1],
                               controller=ControllerConfig(k_e=0.06),
                               horizon_steps=1500)
    rows = sweep(scen, [10.0], [0.5, 0.3], 8)
    med = {ell: _medians(rows, ell, ("sigma_tp", "mean_dv", "v_psi", "a_p"))
           for ell in (0.5, 0.3)}
    assert med[0.3]["mean_dv"] < med[0.5]["mean_dv"]
    assert med[0.3]["v_psi"] < med[0.5]["v_psi"]
    assert med[0.3]["a_p"] < med[0.5]["a_p"]
    assert med[0.3]["sigma_tp"] < med[0.5]["sigma_tp"]


def test_coincident_agents_rejected():
    scen = pair_scenario(sensor=quiet_sensor(), horizon_steps=3)
    state = init_state(scen)
    state.positions[:] = 0.0
    with pytest.raises(ArithmeticError):
        step(state, scen)


def test_non_finite_measurement_and_state_are_named():
    # 1e200 m apart the squared range overflows, so the measurement does
    scen = pair_scenario(sensor=quiet_sensor(), horizon_steps=3)
    state = init_state(scen)
    state.positions[:] = [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="measurements at step 1"):
        step(state, scen)
    # a finite measurement whose bearing cross term overflows to inf - inf
    far = dataclasses.replace(scen, desired=(
        AgentPose([0.0, 0.0, 0.0], 0.0), AgentPose([1e155, 1e155, 0.0], 0.0)))
    state = init_state(far)
    state.positions[:] = [[0.0, 0.0, 0.0], [7e153, 7e153, 0.0]]
    state.headings[:] = 0.0
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="headings at step 1"):
        step(state, far)
