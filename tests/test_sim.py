"""Formation simulator: determinism, invariances, convergence."""

import dataclasses
import math

import numpy as np
import pytest

from rigidflock.control import ControllerConfig
from rigidflock.core import AgentPose, wrap_angle
from rigidflock.graphs import ObservationGraph, fiedler_value, is_connected
from rigidflock import sim
from rigidflock.sensors import SensorSpec
from rigidflock.sim import (Scenario, ScenarioError, _EdgeCache,
                            _error_series, builtin_scenarios, formation_error,
                            heading_loop_gain, init_state, run, step, sweep)
from scalar_law import error_series, rotz


def cell_steps(scen, positions, headings, cache=None):
    """(positions, headings) after each step of scen's one cell from the
    given start, stepped as an R = 1 batch through sim.step."""
    cache = cache or _EdgeCache(scen.desired, scen.graph)
    noise = init_state(scen)[2]
    dt = np.full((1, scen.graph.n), 1.0 / scen.sensor.rate_hz)
    cfg = scen.controller
    q = None if cfg.ell == 0.5 else np.array([[cfg.quantile]])
    positions, headings = positions[None], headings[None]
    for k in range(scen.horizon_steps):
        positions, headings, *_ = step(positions, headings, noise[k], dt,
                                         q, scen, cache, k)
        yield positions[0], headings[0]


def quiet_sensor(rate=10.0):
    return SensorSpec(dist_frac_sigma=0.0, bearing_sigma=0.0,
                      heading_sigma=0.0, rate_hz=rate)


def pair_scenario(**kw):
    base = builtin_scenarios()[0]
    return dataclasses.replace(base, **kw)


@pytest.mark.parametrize("field, make", [
    ("k_e", lambda s: dataclasses.replace(
        s, controller=ControllerConfig(k_e=math.nan))),
    ("dist_frac_sigma", lambda s: dataclasses.replace(
        s, sensor=SensorSpec(dist_frac_sigma=math.nan))),
    ("init_radius", lambda s: dataclasses.replace(s, init_radius=math.nan)),
    ("k_e", lambda s: dataclasses.replace(
        s, controller=ControllerConfig(k_e=True))),
    ("seed", lambda s: dataclasses.replace(s, seed=True)),
])
def test_python_api_refuses_bad_config_before_any_step(field, make):
    # what the CLI refuses as bad input: not a numerical failure at some
    # step, nor a run to the end
    scen = pair_scenario(horizon_steps=20)
    with pytest.raises(ValueError, match=f"^{field} is not a valid"):
        run(make(scen))


def test_scenario_validation():
    desired = (AgentPose([0, 0, 0], 0.0), AgentPose([5, 0, 0], 0.0),
               AgentPose([0, 5, 0], 0.0))
    with pytest.raises(ScenarioError):  # two passive sinks
        Scenario(desired=desired,
                 graph=ObservationGraph(3, [(0, 1), (0, 2)]))
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
        positions = np.array([p.p for p in scen.desired])
        headings = np.array([p.psi for p in scen.desired])
        nxt = next(cell_steps(scen, positions, headings))
        assert np.array_equal(nxt[0], positions)
        assert np.array_equal(nxt[1], headings)


def test_two_agent_zero_noise_contraction_matches_recursion():
    # mutual pair, zero noise, aligned headings: both positional terms see
    # the same raw error and both agents move, so the separation error
    # contracts by (1 - 4 k_ef) per step
    scen = pair_scenario(sensor=quiet_sensor(rate=10.0),
                         controller=ControllerConfig(k_e=0.5, ell=0.5),
                         horizon_steps=30)
    states = cell_steps(scen, np.array([[0.0, 0.0, 0.0], [7.0, 0.0, 0.0]]),
                        np.zeros(2))
    k_ef = scen.controller.k_e / scen.sensor.rate_hz
    gap = 7.0 - 5.0
    for _, (positions, _) in zip(range(20), states):
        gap = gap * (1 - 4 * k_ef)
        sep = positions[1, 0] - positions[0, 0]
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


@pytest.mark.parametrize("steps", (9, 150))
@pytest.mark.parametrize("name", ("pair", "triangle3", "triangle6",
                                  "triangle6_sparse"))
def test_error_series_equal_vector_form_bitwise(name, steps):
    # the sums on planes against np.linalg.norm of vectors gathered per edge
    scen = next(s for s in builtin_scenarios(seed=2) if s.name == name)
    scen = dataclasses.replace(
        scen, horizon_steps=steps,
        controller=dataclasses.replace(scen.controller, ell=0.2))
    rec = run(scen)
    want = error_series(rec.positions, rec.headings, scen.desired, scen.graph)
    got = _error_series(rec.positions, rec.headings,
                        _EdgeCache(scen.desired, scen.graph))
    for a, b in zip(got + (rec.e_f, rec.e_p, rec.e_psi), want + want[:3]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ("pair", "triangle3", "triangle6",
                                  "triangle6_sparse"))
def test_summary_means_equal_vector_form_bitwise(name):
    # the batched means over per-cell blocks against a lone record's
    # (T - 1, N) and (T, N) means of its commands
    scen = next(s for s in builtin_scenarios(seed=3) if s.name == name)
    rec = run(dataclasses.replace(
        scen, horizon_steps=150,
        controller=dataclasses.replace(scen.controller, ell=0.2)))
    du = np.linalg.norm(np.diff(rec.u, axis=0), axis=2).mean()
    want = {"mean_dv": float(du), "a_p": float(du * scen.sensor.rate_hz),
            "mean_domega": float(np.abs(np.diff(rec.omega, axis=0)).mean()),
            "v_psi": float(np.abs(rec.omega).mean())}
    assert repr({key: rec.summary[key] for key in want}) == repr(want)


def test_se2_invariance_of_error_series():
    # same noise stream, globally rotated and translated start: identical
    # error series (proportional control, smooth in the state)
    base = pair_scenario(horizon_steps=200, seed=7,
                         controller=ControllerConfig(k_e=0.5, ell=0.5),
                         sensor=SensorSpec(rate_hz=20.0))
    cache = _EdgeCache(base.desired, base.graph)

    def series(transform):
        positions, headings, _ = init_state(base)
        if transform:
            rot = rotz(0.9)
            shift = np.array([10.0, -4.0, 2.5])
            positions = positions @ rot.T + shift
            headings = wrap_angle(headings + 0.9)
        out = np.empty(base.horizon_steps)
        for k, (positions, headings) in enumerate(
                cell_steps(base, positions, headings, cache)):
            out[k] = formation_error(
                tuple(AgentPose(positions[a], headings[a])
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
        positions, headings, _ = init_state(scen)
        if transform:
            rot = rotz(-1.7)
            positions = positions @ rot.T + [1.0, 2.0, -3.0]
            headings = wrap_angle(headings - 1.7)
        *_, (positions, headings) = cell_steps(scen, positions, headings,
                                               cache)
        return formation_error(
            tuple(AgentPose(positions[a], headings[a])
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
    pairs = {(0, 1), (0, 3), (0, 5), (1, 2), (1, 5), (2, 4), (2, 5), (3, 4)}
    assert sparse.graph.edges == pairs | {(j, i) for i, j in pairs}
    assert len({(min(e), max(e)) for e in sparse.graph.edges}) == 8
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
    assert np.array_equal(s1[0], s2[0])
    assert np.array_equal(s1[1], s2[1])


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
    with pytest.raises(ArithmeticError):
        next(cell_steps(scen, np.zeros((2, 3)), init_state(scen)[1]))


def test_non_finite_measurement_and_state_are_named():
    # 1e200 m apart the squared range overflows, so the measurement does
    scen = pair_scenario(sensor=quiet_sensor(), horizon_steps=3)
    headings = init_state(scen)[1]
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="measurements at step 1"):
        next(cell_steps(scen, np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]),
                        headings))
    # a finite measurement whose bearing cross term overflows to inf - inf
    far = dataclasses.replace(scen, desired=(
        AgentPose([0.0, 0.0, 0.0], 0.0), AgentPose([1e155, 1e155, 0.0], 0.0)))
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="headings at step 1"):
        next(cell_steps(far, np.array([[0.0, 0.0, 0.0], [7e153, 7e153, 0.0]]),
                        np.zeros(2)))


def test_heading_loop_gain_sums_each_observers_desired_offsets():
    # agent 0 observes 1 (|d|^2 = 1); agent 1 observes 0 and 2 (1 + 4);
    # agent 2 observes nobody
    desired = tuple(AgentPose([x, 0.0, 0.0], 0.0) for x in (0.0, 1.0, 3.0))
    graph = ObservationGraph(3, [(0, 1), (1, 0), (1, 2)])
    scen = Scenario(desired, graph, ControllerConfig(k_e=0.5),
                    SensorSpec(rate_hz=20.0))
    assert heading_loop_gain(scen) == 0.5 / 20.0 * 5.0


def _raised(call, *args):
    """The type and message of what call(*args) raises."""
    with np.errstate(all="ignore"), pytest.raises(Exception) as info:
        call(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("name, k_e, steps, want", (
    # 1e200 m apart, or a desired pose 1e155 m off: the start's e_F
    ("pair", None, 3, "non-finite e_F at step 0"),
    ("far", None, 3, "non-finite e_F at step 0"),
    # an unstable gain: the last state's e_F, an inner state's e_F, then
    # the measurement that overflows
    ("triangle3", 6.0, 369, "non-finite e_F at step 369"),
    ("triangle3", 5.5, 424, "non-finite e_F at step 423"),
    ("triangle3", 6.0, 370, "non-finite measurements at step 370"),
))
def test_overflowing_cell_raises_the_same_through_sweep_and_run(
        name, k_e, steps, want):
    scen = pair_scenario(sensor=quiet_sensor(), horizon_steps=steps,
                         init_radius=1e200)
    if name == "far":
        scen = dataclasses.replace(scen, init_radius=20.0, desired=(
            AgentPose([0.0, 0.0, 0.0], 0.0),
            AgentPose([1e155, 1e155, 0.0], 0.0)))
    elif name == "triangle3":
        scen = dataclasses.replace(builtin_scenarios()[1], horizon_steps=steps,
                                   controller=ControllerConfig(k_e=k_e))
    rows_error = _raised(sweep, scen, [scen.sensor.rate_hz],
                         [scen.controller.ell], 1)
    assert rows_error == _raised(run, scen) == (FloatingPointError, want)


def test_restrained_triangle6_sweep_of_60_cells_steps_as_one_batch(
        monkeypatch):
    # a row retains 14 floats per cell-state, so 60 cells of 2001 states
    # fit the batch bound, and the grid steps once per horizon step
    shapes = []

    def spy(positions, headings, z, dt, *args):
        shapes.append(dt.shape)
        return step(positions, headings, z, dt, *args)

    monkeypatch.setattr(sim, "step", spy)
    scen = builtin_scenarios()[2]
    rows = sweep(scen, [10.0 * r for r in range(1, 21)], [0.05, 0.2, 0.35], 1)
    assert len(rows) == 60 and scen.horizon_steps == 2000
    assert shapes == [(60, 6)] * 2000


def test_sweep_of_lone_cells_takes_their_series_from_their_states(
        monkeypatch):
    # a cell alone on its law branch is a run: after the start check, its
    # residuals come from one pass over its states, not one call per step
    shapes = []

    def spy(p_rel, psi_rel, cache):
        shapes.append(p_rel.shape)
        return residuals(p_rel, psi_rel, cache)

    residuals = sim._residuals
    monkeypatch.setattr(sim, "_residuals", spy)
    scen = dataclasses.replace(builtin_scenarios()[1], horizon_steps=50)
    rows = sweep(scen, [50.0], [0.2, 0.5], 1)
    assert len(rows) == 2
    assert shapes == [(1, 6, 3), (51, 6, 3), (51, 6, 3)]
