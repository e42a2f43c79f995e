"""Properties of the array kernels over random edge batches and poses."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigidflock.control import (ControllerConfig, _clamp, _inv_quad,
                                agent_commands, edge_terms, law_constants)
from rigidflock.core import (SKEW_Z, AgentPose, relative_poses,
                            std_normal_quantile, wrap_angle)
from rigidflock.graphs import (ObservationGraph, count_passive_sinks,
                               is_connected)
from rigidflock.rigidity import (is_positive_definite_minors, m_matrix,
                                 rigidity_local, rigidity_world)
from rigidflock.sensors import (SensorSpec, covariance_sigmas,
                                measurement_stream, position_covariance)
from rigidflock.sim import (Scenario, _EdgeCache, _error_series,
                            init_state, run, step, sweep)
from det_minors import det_minors
from graph_loops import observations_by
from scalar_law import (Des, Meas, add_at_commands, approx_rotated_desired,
                        full_matrix, plane_index, restrained_edge_terms,
                        rotate_z, rotz, stack)

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
    meas = Meas(draw(position()), draw(angle), cov, var_psi)
    return meas, Des(draw(position()), draw(angle))


edges = st.lists(edge(), min_size=1, max_size=4)


@given(edges, st.floats(0.001, 0.49))
def test_kernel_matches_scalar_law(batch, ell):
    p_m, psi_m, p_d, psi_d, cov, var_psi = stack(batch)
    pos, ang = edge_terms(p_m, psi_m, p_d, psi_d, std_normal_quantile(ell),
                          cov, const=law_constants(p_d, var_psi))
    for e, (meas, des) in enumerate(batch):
        ref_pos, ref_ang = restrained_edge_terms(meas, des, ell)
        scale = 1.0 + np.linalg.norm(meas.p_m) + np.linalg.norm(des.p_d)
        assert np.abs(pos[e] - ref_pos).max() <= 1e-12 * scale
        assert abs(ang[e] - ref_ang) <= 1e-12 * scale ** 2


@given(edges, st.lists(st.one_of(st.just(0.5), st.floats(0.001, 0.49)),
                      min_size=1, max_size=3))
def test_cell_batch_equals_lone_calls_bitwise(batch, ells):
    # R cells on a leading axis share the desired poses and the covariance
    # entries by broadcasting, each with its quantile in q (R, 1), a zero
    # one among them, and all with the same per-run constants
    p_m, psi_m, p_d, psi_d, cov, var_psi = stack(batch)
    q = np.array([[std_normal_quantile(ell)] for ell in ells])
    cells = len(ells)
    const = law_constants(p_d, var_psi)
    got = edge_terms(np.stack([p_m] * cells), np.stack([psi_m] * cells), p_d,
                     psi_d, q, cov, const)
    for r in range(cells):
        want = edge_terms(p_m, psi_m, p_d, psi_d, q[r, 0], cov, const)
        assert got[0][r].tobytes() == want[0].tobytes()
        assert got[1][r].tobytes() == want[1].tobytes()


@given(edges, st.floats(0.001, 0.49), st.floats(0.001, 0.49))
def test_position_terms_shrink_with_ell_unless_errors_oppose(batch, l1, l2):
    # Both factors 1 + q / m of pos = a1 f1 + a2 f2 grow with ell, and
    # a1 . a2 >= 0 makes the norm grow in each: a smaller ell shrinks it.
    assume(l1 != l2)
    l1, l2 = sorted((l1, l2))
    p_m, psi_m, p_d, psi_d, cov, var_psi = stack(batch)
    const = law_constants(p_d, var_psi)
    pos1, pos2 = (edge_terms(p_m, psi_m, p_d, psi_d, std_normal_quantile(ell),
                             cov, const)[0] for ell in (l1, l2))
    for e, (meas, des) in enumerate(batch):
        a1 = meas.p_m - des.p_d
        a2 = meas.p_m - approx_rotated_desired(meas, des)[0]
        if a1 @ a2 >= 0.0:
            assert np.linalg.norm(pos1[e]) \
                <= np.linalg.norm(pos2[e]) * (1.0 + 1e-12) + 1e-300


# The closed form must agree with a solve to the drift bound set for it,
# 1e-12 relative. Both forms carry errors of a few kappa(A) eps: the SPD
# draws have eigenvalues in [0.05, 10] (kappa <= 200) and the sensor's own
# covariance kappa <= (0.1 / 0.03)^2, so there the bound has a margin of 20
# or more. cov_p + cov_t is far worse conditioned where the anchor is long
# and the range short (a tiny vertical eigenvalue) and is held to the same
# bound.
INV_QUAD_RTOL = 1e-12


def _assert_inv_quad_matches_solve(cov, u):
    want = u @ np.linalg.solve(cov, u)
    got = _inv_quad(u, *cov[np.triu_indices(3)])
    assert abs(got - want) <= INV_QUAD_RTOL * want


unit_vector = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(
    np.array).filter(lambda u: np.abs(u).max() > 1e-3)


@given(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
       st.floats(0.05, 1.0), unit_vector)
def test_inv_quad_matches_solve_on_spd_matrices(entries, shift, u):
    b = np.array(entries).reshape(3, 3)
    _assert_inv_quad_matches_solve(b @ b.T + shift * np.eye(3), u)


@given(st.floats(-6.0, 4.0), unit_vector, unit_vector, edge())
def test_inv_quad_matches_solve_on_sensor_covariances(log_range, direction,
                                                      u, case):
    # ranges 1e-6 .. 1e4 m; below about 3e-3 m the DELTA floors set both
    # sigmas. The anchor covariance cov_t of a drawn edge is added as the
    # kernel adds it for the second position term.
    dist = 10.0 ** log_range
    r_hat = direction / np.linalg.norm(direction)
    cov_p = full_matrix(position_covariance(
        r_hat, *covariance_sigmas(dist, SensorSpec())))
    _assert_inv_quad_matches_solve(cov_p, u)
    meas, des = case
    cov_t = approx_rotated_desired(meas._replace(cov_p=cov_p), des)[1]
    _assert_inv_quad_matches_solve(cov_p + cov_t, u)


def _both_laws(batch, cfg, dt=1.0):
    """(u, omega) of one observer over batch, proportional and restrained."""
    p_m, psi_m, p_d, psi_d, cov, var_psi = stack(batch)
    index = plane_index(np.zeros(len(batch), int), 1)
    const = law_constants(p_d, var_psi)
    return [agent_commands(index, *edge_terms(p_m, psi_m, p_d, psi_d, q, cov,
                                              const), 1, cfg, dt)
            for q in (None, cfg.quantile)]


@given(edges, st.floats(0.01, 10.0), st.floats(0.01, 1.0))
def test_restrained_at_half_is_proportional_bitwise(batch, k_e, dt):
    (p_u, p_omega), (r_u, r_omega) = _both_laws(
        batch, ControllerConfig(k_e=k_e, ell=0.5), dt)
    assert np.array_equal(r_u, p_u)
    assert np.array_equal(r_omega, p_omega)


def test_restrained_at_half_keeps_tiny_errors_and_ranges():
    # values far below sqrt(tiny) must not underflow into a dead zone
    cfg = ControllerConfig(ell=0.5)
    for p_m, p_d in (([1e-170, 1e-170, 0.0], [0.0, 0.0, 0.0]),
                     ([1e-170, 5e-324, 0.0], [0.0, 0.0, 0.0]),
                     ([1e-170, 1e-170, 0.0], [1.0, 0.0, 0.0])):
        batch = [(Meas(np.array(p_m), 0.0, np.eye(3), 0.0),
                  Des(np.array(p_d), 0.0))]
        (p_u, p_omega), (r_u, r_omega) = _both_laws(batch, cfg)
        assert np.array_equal(r_u, p_u) and np.array_equal(r_omega, p_omega)
        assert np.any(r_u != 0.0) and (p_d[0] == 0.0 or r_omega[0] != 0.0)


# Finite doubles with the extremes the clamp must survive: zero, the
# smallest subnormal, values whose product underflows or overflows.
clamp_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-170, 1e300,
                     -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(clamp_value, clamp_value), min_size=1,
                max_size=20))
def test_clamp_passes_y_iff_exact_dead_zone_predicate(pairs):
    # the output is exactly y or +0.0, and y iff 0 < y a <= a^2 in exact
    # rational arithmetic
    y, a = np.array(pairs).T
    want = [yk if 0 < Fraction(yk) * Fraction(ak) <= Fraction(ak) ** 2
            else 0.0 for yk, ak in zip(y, a)]
    assert _clamp(y, a).tobytes() == np.array(want).tobytes()


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
    return desired, ObservationGraph(n, edges), pos[1:], psi[1:]


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


@st.composite
def scenario(draw):
    """A valid scenario: random connected graph, horizon and seed."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    graph = ObservationGraph(n, draw(st.lists(
        st.sampled_from(pairs), unique=True)) if pairs else [])
    assume(is_connected(graph) and count_passive_sinks(graph) <= 1)
    return Scenario(desired=tuple(AgentPose([5.0 * a, 0.0, 0.0], 0.0)
                                  for a in range(n)),
                    graph=graph, horizon_steps=draw(st.integers(0, 6)),
                    seed=draw(st.integers(0, 2 ** 63)))


@given(scenario())
def test_run_noise_equals_per_step_draws_bitwise(scen):
    # step k holds each agent's (out-degree, 4) draw of step k from its own
    # stream, agents in ascending order: the sorted-edge order
    noise = init_state(scen)[2]
    n = scen.graph.n
    streams = [measurement_stream(scen.seed, a) for a in range(n)]
    degrees = [observations_by(scen.graph, a) for a in range(n)]
    assert noise.shape == (scen.horizon_steps, len(scen.graph.edges), 4)
    for k in range(scen.horizon_steps):
        want = np.concatenate([rng.standard_normal((d, 4))
                               for rng, d in zip(streams, degrees)])
        assert noise[k].tobytes() == want.tobytes()


@st.composite
def sweep_cells(draw):
    """A scenario on a random connected graph and 2..5 (rate, ell) cells."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    # a mutual spine keeps the graph connected and free of passive sinks
    spine = [(i + d, i + 1 - d) for i in range(n - 1) for d in (0, 1)]
    graph = ObservationGraph(n, spine + draw(st.lists(
        st.sampled_from(pairs), unique=True)))
    scen = Scenario(desired=tuple(AgentPose([5.0 * a, draw(coord), 0.0],
                                            draw(angle)) for a in range(n)),
                    graph=graph, horizon_steps=draw(st.integers(0, 30)),
                    seed=draw(st.integers(0, 2 ** 63)))
    cells = draw(st.lists(st.tuples(st.floats(1.0, 200.0), st.one_of(
        st.just(0.5), st.floats(0.01, 0.5))), min_size=2, max_size=5))
    return scen, [(replace(scen.sensor, rate_hz=f_hz),
                   replace(scen.controller, ell=ell)) for f_hz, ell in cells]


@given(sweep_cells())
def test_batch_steps_equal_lone_runs_bitwise(case):
    # the cells of one law branch step together through sim.step with the
    # cell axis; every state, u and omega of each cell equals run() of the
    # cell alone, which steps without it
    scen, cells = case
    cache = _EdgeCache(scen.desired, scen.graph)
    positions0, headings0, noise = init_state(scen)
    for half in (True, False):
        branch = [(spec, cfg) for spec, cfg in cells
                  if (cfg.ell == 0.5) == half]
        if not branch:
            continue
        alone = [run(replace(scen, sensor=spec, controller=cfg))
                 for spec, cfg in branch]
        dt = np.array([[1.0 / spec.rate_hz] * scen.graph.n
                       for spec, _ in branch])
        q = None if half else np.array([[cfg.quantile] for _, cfg in branch])
        pos = np.broadcast_to(positions0, dt.shape + (3,)).copy()
        psi = np.broadcast_to(headings0, dt.shape).copy()
        for k in range(scen.horizon_steps):
            pos, psi, u, omega, *_ = step(pos, psi, noise[k], dt, q, scen,
                                          cache, k)
            for b, rec in enumerate(alone):
                for got, want in ((pos[b], rec.positions[k + 1]),
                                  (psi[b], rec.headings[k + 1]),
                                  (u[b], rec.u[k]), (omega[b], rec.omega[k])):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), k


# Edge terms the per-observer sums must add exactly as np.add.at does:
# signed zeros, subnormals, values whose sums overflow, and values whose
# sum rounds differently in another order.
sum_term = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -2.5e-308,
                     1e300, -1e300, 1.7e308, -1.7e308, 1.0, -1.0, 1.1e-16,
                     0.1, 0.7, 1e16]),
    st.floats(-1e3, 1e3))


@st.composite
def observed_terms(draw):
    """Observer rows (E,) or (R, E) of a random graph with unequal
    out-degrees and one passive sink, the agent count, and edge terms."""
    n = draw(st.integers(2, 6))
    # agent n - 1 is observed and observes nobody
    pairs = [(i, j) for i in range(n - 1) for j in range(n) if i != j]
    obs_i = np.array(sorted(set(draw(st.lists(st.sampled_from(pairs))))
                            | {(0, n - 1)}))[:, 0]
    cells = draw(st.sampled_from([None, 1, 2, 3]))
    shape = obs_i.shape if cells is None else (cells,) + obs_i.shape
    agents = n if cells is None else cells * n
    rows = np.arange(agents).reshape(shape[:-1] + (n,))[..., obs_i]
    values = st.lists(sum_term, min_size=4 * rows.size, max_size=4 * rows.size)
    terms = np.array(draw(values)).reshape(shape + (4,))
    return rows, agents, terms[..., :3], terms[..., 3]


@given(observed_terms(), st.floats(0.01, 10.0), st.floats(0.01, 1.0))
def test_agent_commands_equal_add_at_oracle_bytewise(case, k_e, dt):
    # one bincount over x, y, z and heading planes adds each observer's
    # terms into +0.0 in edge order, as np.add.at into zeros does
    rows, n, pos, ang = case
    cfg = ControllerConfig(k_e=k_e)
    with np.errstate(over="ignore", invalid="ignore"):
        got = agent_commands(plane_index(rows, n), pos, ang, n, cfg, dt)
        want = add_at_commands(rows, pos, ang, n, cfg, dt)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@st.composite
def sweep_grids(draw):
    """A scenario on a random connected graph that may have a passive sink,
    horizons 0..30, and a rate x ell grid of 1..3 seeds."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    spine = [(i + d, i + 1 - d) for i in range(n - 2) for d in (0, 1)]
    sink = draw(st.booleans())
    # with a sink, agent n - 1 is observed by agent n - 2 and observes nobody
    last = [(n - 2, n - 1)] + ([] if sink else [(n - 1, n - 2)])
    graph = ObservationGraph(n, spine + last + [
        (i, j) for i, j in draw(st.lists(st.sampled_from(pairs), unique=True))
        if not (sink and i == n - 1)])
    scen = Scenario(desired=tuple(AgentPose([5.0 * a, draw(coord), 0.0],
                                            draw(angle)) for a in range(n)),
                    graph=graph, horizon_steps=draw(st.integers(0, 30)),
                    seed=draw(st.integers(0, 2 ** 63)))
    rates = draw(st.lists(st.floats(1.0, 200.0), min_size=1, max_size=3,
                          unique=True))
    ells = draw(st.lists(st.one_of(st.just(0.5), st.floats(0.01, 0.5)),
                         min_size=1, max_size=3, unique=True))
    return scen, rates, ells, draw(st.integers(1, 3))


@settings(max_examples=60)
@given(sweep_grids())
def test_sweep_rows_equal_runs_of_their_cells(case):
    # rows come from the step's own relative poses, with no state history;
    # each equals the summary of run() of its cell, which takes its
    # residuals from the recorded states afterwards
    scen, rates, ells, n_seeds = case
    rows = sweep(scen, rates, ells, n_seeds)
    assert len(rows) == len(rates) * len(ells) * n_seeds
    for row in rows:
        alone = run(replace(
            scen, seed=row["seed"],
            sensor=replace(scen.sensor, rate_hz=row["rate_hz"]),
            controller=replace(scen.controller, ell=row["ell"])))
        assert repr(row) == repr({key: row[key] for key in (
            "rate_hz", "ell", "seed")} | alone.summary)


@st.composite
def connected_poses(draw):
    """Poses of n = 2..6 agents and a connected edge set over them."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    # a spine in drawn directions keeps the graph connected
    spine = [(i, i + 1) if draw(st.booleans()) else (i + 1, i)
             for i in range(n - 1)]
    graph = ObservationGraph(n, spine + draw(st.lists(
        st.sampled_from(pairs), unique=True)))
    pos = np.array(draw(st.lists(coord, min_size=3 * n, max_size=3 * n)))
    psi = draw(st.lists(angle, min_size=n, max_size=n))
    poses = tuple(AgentPose(p, a) for p, a in zip(pos.reshape(n, 3), psi))
    return poses, graph


@given(connected_poses(), st.sampled_from(["x", "y", "z", "yaw"]))
def test_world_jacobian_annihilates_rigid_motions(case, motion):
    # a common translation, or a common yaw about world z (dp_v = S p_v,
    # dpsi_v = 1), leaves every relative pose unchanged to first order
    poses, graph = case
    dq = np.zeros((graph.n, 4))
    if motion == "yaw":
        dq[:, :3] = [SKEW_Z @ q.p for q in poses]
        dq[:, 3] = 1.0
    else:
        dq[:, "xyz".index(motion)] = 1.0
    h = rigidity_world(poses, graph)
    scale = np.abs(h).max() * np.abs(dq).max()
    assert np.abs(h @ dq.ravel()).max() <= 1e-12 * scale


@given(connected_poses())
def test_local_jacobian_is_world_jacobian_in_body_frames(case):
    # a body-frame step of agent v is R(psi_v) times a world-frame step
    poses, graph = case
    want = rigidity_world(poses, graph).copy()
    for v, q in enumerate(poses):
        want[:, 4 * v:4 * v + 3] = want[:, 4 * v:4 * v + 3] @ rotz(q.psi)
    got = rigidity_local(poses, graph)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


def _assert_minors_match_oracles(a):
    """Elimination minors against det, the verdict against eigvalsh."""
    verdict, minors = is_positive_definite_minors(a)
    # positive entries, then at most one non-positive last entry: the
    # verdict is true iff that last entry is the n-th and positive
    assert all(m > 0.0 for m in minors[:-1])
    assert (minors[-1] > 0.0) == verdict
    assert len(minors) == len(a) or not verdict
    # a minor's scale is the Hadamard bound of its block (the product of
    # the row norms); below 1e-6 of it det is rounding noise
    _, want = det_minors(a)
    for k, (got, ref) in enumerate(zip(minors, want), start=1):
        if abs(ref) > 1e-6 * np.prod(np.linalg.norm(a[:k, :k], axis=1)):
            assert abs(got - ref) <= 1e-9 * abs(ref)
    evals = np.linalg.eigvalsh(a)
    if abs(evals[0]) > 1e-8 * np.abs(evals).max():
        assert verdict == (evals[0] > 0.0)


@given(connected_poses())
def test_minors_of_m_match_det_and_eigen_verdict(case):
    poses, graph = case
    _assert_minors_match_oracles(m_matrix(poses, graph))


@st.composite
def symmetric_matrix(draw):
    """A symmetric n x n matrix (n = 1..8), shifted towards PD by a drawn
    multiple of the identity."""
    n = draw(st.integers(1, 8))
    a = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    return a + a.T + draw(st.floats(0.0, 8.0)) * np.eye(n)


@given(symmetric_matrix())
def test_minors_of_symmetric_matrices_match_det_and_eigen_verdict(a):
    _assert_minors_match_oracles(a)
