"""Discrete-time formation simulation in R^3 x S^1.

All agents sample their neighbors synchronously at the sensor rate, compute
a command from the latest measurements, then fly straight and rotate at a
constant rate until the next sample. Ground truth is kept by the simulator
and used only for error metrics, never by the controllers.

Each step maps the true poses to relative poses once over all edges with
``core.relative_poses`` and evaluates the control law once over all edges
through ``control.edge_terms``, the kernel behind the per-agent commands
too; a property test checks it against an independent scalar form of the
law. The error series (e_F, e_p, e_psi) is computed after the run, in one
vectorized pass of the same relative-pose map over the recorded ground-truth
history. A run's noise is drawn once, from one stream per (seed, agent).
One (scenario, seed) pair always reproduces the same run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import ControllerConfig, agent_commands, edge_terms
from .core import (AgentPose, pose_arrays, relative_poses, rotate_z,
                   wrap_angle)
from .graphs import ObservationGraph, count_passive_sinks, fiedler_value, \
    is_connected, remove_random_edges_keep_connected
from .oned import convergence_metrics_1d
from .sensors import (SensorSpec, covariance_sigmas, init_stream,
                      measurement_stream, perturb, position_covariance)


class ScenarioError(ValueError):
    """Raised when a scenario violates a structural invariant."""


@dataclass(frozen=True)
class Scenario:
    """Desired formation, observation topology and all run parameters.

    The desired formation is a list of template world poses; the desired
    relative pose of every edge is derived from them, which keeps the target
    consistent across agents by construction.
    """

    desired: tuple
    graph: ObservationGraph
    controller: ControllerConfig = ControllerConfig()
    sensor: SensorSpec = SensorSpec()
    init_radius: float = 20.0
    horizon_steps: int = 2000
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        object.__setattr__(self, "desired", tuple(self.desired))
        self.validate()

    def validate(self):
        problems = []
        if len(self.desired) != self.graph.n:
            problems.append(
                f"desired pose count {len(self.desired)} does not match "
                f"agent count {self.graph.n}")
        if not is_connected(self.graph):
            problems.append("observation graph is not connected")
        sinks = count_passive_sinks(self.graph)
        if sinks > 1:
            problems.append(f"graph has {sinks} passive sinks, at most one "
                            "observed-but-not-observing agent is allowed")
        if self.init_radius < 0:
            problems.append("init_radius must be >= 0")
        if self.horizon_steps < 0:
            problems.append("horizon_steps must be >= 0")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if problems:
            raise ScenarioError("; ".join(problems))

    def min_desired_distance(self) -> float:
        d = [float(np.linalg.norm(a.p - b.p))
             for k, a in enumerate(self.desired)
             for b in self.desired[k + 1:]]
        return min(d) if d else 0.0


@dataclass
class RunRecord:
    """Ground-truth states, commands and error series of one run.

    positions[k], headings[k] describe the state after k steps (index 0 is
    the initial condition); u[k], omega[k] are the commands applied during
    step k. The summary dict carries the convergence metrics.
    """

    positions: np.ndarray
    headings: np.ndarray
    u: np.ndarray
    omega: np.ndarray
    e_f: np.ndarray
    e_p: np.ndarray
    e_psi: np.ndarray
    fiedler: np.ndarray
    summary: dict = field(default_factory=dict)


def formation_error(poses, desired, graph: ObservationGraph):
    """(e_F, e_p, e_psi) of a set of world poses against the template.

    e_F is the Euclidean norm of the stacked per-edge residuals (positions
    and wrapped headings); e_p and e_psi average each agent's mean edge
    residual norm over the agents that observe anybody.
    """
    if not graph.edges:
        raise ValueError("graph has no edges")
    e_f, e_p, e_psi, _, _ = _error_series(*pose_arrays(poses),
                                          _EdgeCache(desired, graph))
    return float(e_f), float(e_p), float(e_psi)


@dataclass
class SimState:
    """Mutable simulation state; noise[k] holds the (E, 4) standard normals
    of step k in sorted-edge order, for horizon_steps steps."""

    positions: np.ndarray
    headings: np.ndarray
    step_index: int
    noise: np.ndarray


def init_state(scenario: Scenario) -> SimState:
    """Initial poses in a ball of init_radius with uniform headings.

    The draw depends only on the scenario seed, so runs that differ in
    controller settings start identically and see the same noise: each
    agent draws its (horizon_steps, out-degree, 4) block in one call, the
    same numbers as one (out-degree, 4) draw per step.
    """
    n = scenario.graph.n
    rng = init_stream(scenario.seed)
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = scenario.init_radius * rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0)
    positions = direction * radius[:, None]
    headings = wrap_angle(rng.uniform(-math.pi, math.pi, n))
    noise = np.concatenate(
        [measurement_stream(scenario.seed, a).standard_normal(
            (scenario.horizon_steps, scenario.graph.out_degree(a), 4))
         for a in range(n)], axis=1)
    return SimState(positions, headings, 0, noise)


class _EdgeCache:
    """Precomputed static edge arrays of a desired formation and graph."""

    def __init__(self, desired, graph: ObservationGraph):
        self.obs_i, self.obs_j = graph.edge_index()
        self.p_d, self.psi_d = relative_poses(*pose_arrays(desired),
                                              self.obs_i, self.obs_j)
        # e_p and e_psi average each observer's mean edge residual over the
        # observers: one weight per edge does both means.
        deg = np.bincount(self.obs_i, minlength=graph.n)
        self.weights = 1.0 / (deg[self.obs_i] * np.count_nonzero(deg))


def _edge_commands(p_m, psi_m, s_r, s_t, r_hat, cache: _EdgeCache,
                   cfg: ControllerConfig, var_psi: float):
    """Per-edge restrained or proportional control terms of one step.

    At ell = 0.5 the restrained law equals the proportional one bit for bit,
    so both take the proportional path and skip the covariances.
    """
    if not cfg.restraining or cfg.ell == 0.5:
        return edge_terms(p_m, psi_m, cache.p_d, cache.psi_d)
    return edge_terms(p_m, psi_m, cache.p_d, cache.psi_d, cfg.quantile,
                      position_covariance(r_hat, s_r, s_t), var_psi)


def step(state: SimState, scenario: Scenario,
         cache: _EdgeCache | None = None) -> SimState:
    """Advance one measurement period: sample, command, integrate.

    A state holds noise for horizon_steps steps, and no step beyond them.
    """
    if cache is None:
        cache = _EdgeCache(scenario.desired, scenario.graph)
    return _step_recorded(state, scenario, cache)[0]


def _step_recorded(state: SimState, scenario: Scenario, cache: _EdgeCache):
    cfg = scenario.controller
    spec = scenario.sensor
    dt = 1.0 / spec.rate_hz

    p_rel, psi_rel = relative_poses(state.positions, state.headings,
                                    cache.obs_i, cache.obs_j)
    p_m, psi_m, dist, r_hat = perturb(p_rel, psi_rel,
                                      state.noise[state.step_index], spec)
    _require_finite(state.step_index + 1, "measurements", p_m)
    psi_m = wrap_angle(psi_m)
    # The controller sees floored covariances, never degenerate ones.
    s_r, s_t = covariance_sigmas(dist, spec)

    pos_terms, ang_terms = _edge_commands(p_m, psi_m, s_r, s_t, r_hat,
                                          cache, cfg, spec.heading_sigma ** 2)
    u, omega = agent_commands(cache.obs_i, pos_terms, ang_terms,
                              scenario.graph.n, cfg, dt)

    positions = state.positions + rotate_z(u, state.headings) * dt
    headings = state.headings + omega * dt
    _require_finite(state.step_index + 1, "positions", positions)
    _require_finite(state.step_index + 1, "headings", headings)
    new = SimState(positions, wrap_angle(headings), state.step_index + 1,
                   state.noise)
    return new, u, omega


def _require_finite(step_index: int, name: str, values):
    """Overflow is a numerical fault, not bad input: name step and series."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite {name} at step {step_index}")


def _error_series(positions, headings, cache: _EdgeCache):
    """(e_F, e_p, e_psi, disp_p, disp_psi) of states (..., N, 3), (..., N).

    disp_p and disp_psi are the norms of the stacked position and wrapped
    heading residuals of all edges, and e_F = hypot(disp_p, disp_psi). e_F
    bounds every residual the summary uses, so it overflows first: a
    non-finite e_F raises, naming the first such state as the step.
    """
    p_rel, psi_rel = relative_poses(positions, headings, cache.obs_i,
                                    cache.obs_j)
    dp = cache.p_d - p_rel
    dpsi = wrap_angle(cache.psi_d - psi_rel)
    disp_p = np.linalg.norm(dp, axis=(-2, -1))
    disp_psi = np.linalg.norm(dpsi, axis=-1)
    e_f = np.hypot(disp_p, disp_psi)
    bad = np.flatnonzero(~np.isfinite(e_f))
    if bad.size:
        raise FloatingPointError(f"non-finite e_F at step {bad[0]}")
    e_p = np.linalg.norm(dp, axis=-1) @ cache.weights
    e_psi = np.abs(dpsi) @ cache.weights
    return e_f, e_p, e_psi, disp_p, disp_psi


def run(scenario: Scenario) -> RunRecord:
    """Simulate the scenario for its full horizon and compute metrics.

    Convergence metrics follow the scalar definitions with the stacked
    positional (heading) residual norm as the displacement series. The
    summary's ``converged`` flag requires the stable-state RMS of the
    positional series to stay under half the smallest desired inter-agent
    distance; chaotic non-converged runs sit orders of magnitude above it.
    """
    cache = _EdgeCache(scenario.desired, scenario.graph)
    n = scenario.graph.n
    steps = scenario.horizon_steps
    state = init_state(scenario)
    f_hz = scenario.sensor.rate_hz

    positions = np.empty((steps + 1, n, 3))
    headings = np.empty((steps + 1, n))
    u_all = np.empty((steps, n, 3))
    omega_all = np.empty((steps, n))
    positions[0], headings[0] = state.positions, state.headings
    # An overflowing start fails on e_F before its first measurement does.
    _error_series(positions[:1], headings[:1], cache)
    for k in range(steps):
        state, u_all[k], omega_all[k] = _step_recorded(state, scenario, cache)
        positions[k + 1], headings[k + 1] = state.positions, state.headings
    e_f, e_p, e_psi, disp_p, disp_psi = _error_series(positions, headings,
                                                      cache)

    fiedler = np.full(steps + 1, fiedler_value(scenario.graph)
                      if n >= 2 else 0.0)
    summary = _summarize(disp_p, disp_psi, u_all, omega_all, f_hz, scenario)
    return RunRecord(positions, headings, u_all, omega_all,
                     e_f, e_p, e_psi, fiedler, summary)


def _summarize(disp_p, disp_psi, u_all, omega_all, f_hz, scenario):
    if disp_p.size < 10:
        return {}
    mp = convergence_metrics_1d(disp_p, 0.0, f_hz)
    mpsi = convergence_metrics_1d(disp_psi, 0.0, f_hz)
    tail = max(mp["k_c"], disp_p.size // 2)
    stable_rms_p = float(np.sqrt(np.mean(disp_p[tail:] ** 2)))
    threshold = 0.5 * scenario.min_desired_distance()
    # At least 9 commands per agent here, so no difference below is empty.
    du = np.linalg.norm(np.diff(u_all, axis=0), axis=2)
    dom = np.abs(np.diff(omega_all, axis=0))
    return {
        "t_cp": mp["t_c"], "t_cpsi": mpsi["t_c"],
        "sigma_tp": mp["sigma_t"], "sigma_tpsi": mpsi["sigma_t"],
        "mean_dv": float(du.mean()), "mean_domega": float(dom.mean()),
        "a_p": float(du.mean() * f_hz),
        "v_psi": float(np.abs(omega_all).mean()),
        "stable_rms_p": stable_rms_p,
        "converged": bool(mp["converged"]
                          and (threshold == 0.0
                               or stable_rms_p < threshold)),
    }


# --- builtin scenarios --------------------------------------------------------


def _poses_from_points(points) -> tuple:
    pts = np.asarray(points, dtype=float)
    pts = pts - pts.mean(axis=0)
    return tuple(AgentPose(p, 0.0) for p in pts)


def builtin_scenarios(controller: ControllerConfig | None = None,
                      sensor: SensorSpec | None = None,
                      seed: int = 0) -> list:
    """The four reference scenarios.

    Two mutual agents 5 m apart; an equilateral triangle of side 5 m; six
    agents on a flat triangle (three vertices of side 10 m plus the three
    side midpoints, closest pair 5 m) fully connected; the same six agents
    with half of the undirected observation pairs removed, still connected
    (removal uses a fixed internal stream so the scenario list is stable).
    """
    controller = controller or ControllerConfig()
    sensor = sensor or SensorSpec()
    side = 5.0
    h = side * math.sqrt(3.0) / 2.0
    pair = _poses_from_points([[0, 0, 0], [side, 0, 0]])
    tri = _poses_from_points([[0, 0, 0], [side, 0, 0], [side / 2.0, h, 0]])
    big = 2.0 * side
    verts = np.array([[0.0, 0.0, 0.0], [big, 0.0, 0.0],
                      [big / 2.0, big * math.sqrt(3.0) / 2.0, 0.0]])
    mids = np.array([(verts[0] + verts[1]) / 2.0,
                     (verts[1] + verts[2]) / 2.0,
                     (verts[2] + verts[0]) / 2.0])
    six = _poses_from_points(np.vstack([verts, mids]))

    full6 = ObservationGraph.complete(6)
    sparse_rng = np.random.default_rng(np.random.SeedSequence(2024,
                                                              spawn_key=(9,)))
    sparse6 = remove_random_edges_keep_connected(full6, 0.5, sparse_rng)
    mk = lambda name, desired, graph: Scenario(
        desired=desired, graph=graph, controller=controller, sensor=sensor,
        seed=seed, name=name)
    return [
        mk("pair", pair, ObservationGraph.complete(2)),
        mk("triangle3", tri, ObservationGraph.complete(3)),
        mk("triangle6", six, full6),
        mk("triangle6_sparse", six, sparse6),
    ]


# --- parameter sweep ----------------------------------------------------------


def sweep(scenario: Scenario, rates, ells, n_seeds: int) -> list:
    """Grid run over (rate, ell, seed); returns one summary row per cell.

    Seeds offset the scenario seed, so every (rate, ell) pair at a given
    seed shares initial conditions and noise realizations. Rows follow the
    grid order: rate, then ell, then seed.
    """
    rows = []
    for f_hz in rates:
        for ell in ells:
            for s in range(n_seeds):
                scen = replace(
                    scenario,
                    controller=replace(scenario.controller, ell=ell),
                    sensor=replace(scenario.sensor, rate_hz=f_hz),
                    seed=scenario.seed + s)
                rows.append({"rate_hz": f_hz, "ell": ell, "seed": scen.seed,
                             **run(scen).summary})
    return rows
