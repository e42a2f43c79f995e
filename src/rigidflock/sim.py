"""Discrete-time formation simulation in R^3 x S^1.

All agents sample their neighbors synchronously at the sensor rate, compute
a command from the latest measurements, then fly straight and rotate at a
constant rate until the next sample. Ground truth is kept by the simulator
and used only for error metrics, never by the controllers.

One function, ``step``, advances one cell or a batch of cells that share a
seed and differ in rate and ell: it maps true poses to relative poses with
``core.relative_poses`` and evaluates the control law with
``control.edge_terms``, once over all edges of all cells. A property test
checks the law against an independent scalar form. A lone cell, a run or a
sweep's only cell of a law branch, takes its error series from its states
afterwards; a batch keeps no states and takes them from the relative poses
each step computes, and its metrics are one call per series, cells as
columns. A run's noise is drawn once, from one stream per (seed, agent),
and one (scenario, seed) pair always reproduces the same run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import (ControllerConfig, agent_commands, edge_terms,
                      law_constants)
from .core import (AgentPose, check_fields, planes, pose_arrays,
                   relative_poses, turn, vectors, wrap_angle)
from .graphs import (ObservationGraph, count_passive_sinks, fiedler_value,
                     is_connected)
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
        check_fields(self)
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


def heading_loop_gain(scenario: Scenario) -> float:
    """Predicted per-step heading loop gain (k_e / f) max_i sum_j |d_ij|^2.

    d_ij is the desired offset from agent i to an agent j it observes, at
    the desired formation, and f the sensor rate. The discrete heading loop
    is stable for gains below 2; the quantity is static, so a run or an
    audit can report it at no cost.
    """
    positions, _ = pose_arrays(scenario.desired)
    obs_i, obs_j = scenario.graph.edge_index()
    d = positions[obs_j] - positions[obs_i]
    sums = np.bincount(obs_i, weights=np.einsum("ej,ej->e", d, d),
                       minlength=scenario.graph.n)
    return float(scenario.controller.k_e / scenario.sensor.rate_hz
                 * sums.max())


def init_state(scenario: Scenario):
    """Initial positions (N, 3), headings (N,) and noise (T, E, 4) of a run.

    Positions lie in a ball of init_radius, headings are uniform. The draw
    depends only on the scenario seed, so runs that differ in rate or ell
    start identically and see the same noise: each agent draws its
    (T, out-degree, 4) block in one call, the same numbers as one draw per
    step; noise[k] holds step k's standard normals in sorted-edge order.
    """
    n = scenario.graph.n
    rng = init_stream(scenario.seed)
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = scenario.init_radius * rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0)
    positions = direction * radius[:, None]
    headings = wrap_angle(rng.uniform(-math.pi, math.pi, n))
    degrees = np.bincount(scenario.graph.edge_index()[0], minlength=n)
    return positions, headings, np.concatenate(
        [measurement_stream(scenario.seed, a).standard_normal(
            (scenario.horizon_steps, d, 4)) for a, d in enumerate(degrees)],
        axis=1)


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
        self._batches = {}

    def batch(self, shape, var_psi):
        """Per-run constants of a batch of agent periods of this shape: the
        flat (4, ..., E) index of agent_commands, and law_constants."""
        key = shape, var_psi
        if key not in self._batches:
            self._batches[key] = np.arange(4 * math.prod(shape)).reshape(
                (4,) + shape)[..., self.obs_i].ravel(), law_constants(
                    self.p_d, var_psi)
        return self._batches[key]


def step(positions, headings, z, dt, q, scenario: Scenario,
         cache: _EdgeCache, k: int = 0):
    """Advance cells one measurement period: sample, command, integrate.

    positions (..., N, 3), headings (..., N) hold one cell's state or R
    cells' on a leading axis, all seeing the (E, 4) standard normals z and
    differing in agent periods dt (..., N) and quantile q: None (ell = 0.5,
    the proportional law), a scalar or (R, 1). Faults name step k + 1.
    Returns the next state, the commands u, omega and the relative poses.
    """
    spec = scenario.sensor
    index, const = cache.batch(dt.shape, spec.heading_sigma ** 2)
    rel = relative_poses(positions, headings, cache.obs_i, cache.obs_j)
    p_m, psi_m, dist, r_hat = perturb(*rel, z, spec)
    _require_finite(k + 1, "measurements", p_m)
    psi_m = wrap_angle(psi_m)
    # The restrained law sees floored covariances, never degenerate ones.
    cov_p = None if q is None else position_covariance(
        r_hat, *covariance_sigmas(dist, spec))
    del dist, r_hat  # spent: see edge_terms on a batch's temporaries
    pos_terms, ang_terms = edge_terms(p_m, psi_m, cache.p_d, cache.psi_d, q,
                                      cov_p, const=const)
    u, omega = agent_commands(index, pos_terms, ang_terms, dt.size,
                              scenario.controller, dt.ravel())
    u, omega = u.reshape(positions.shape), omega.reshape(dt.shape)

    positions = positions + vectors(turn(planes(u), headings) * dt)
    headings = headings + omega * dt
    _require_finite(k + 1, "positions", positions)
    _require_finite(k + 1, "headings", headings)
    return positions, wrap_angle(headings), u, omega, *rel


def _require_finite(step_index: int, name: str, values):
    """Overflow is a numerical fault, not bad input: name step and series."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite {name} at step {step_index}")


def _residuals(p_rel, psi_rel, cache: _EdgeCache):
    """(disp_p, disp_psi, sq, dpsi) of relative poses (..., E, 3), (..., E):
    the norms of the stacked position and wrapped heading residuals dpsi of
    all edges, and the squared position residual norms sq (E, ...)."""
    x, y, z = planes(cache.p_d, p_rel.ndim) - planes(p_rel)
    sq = planes((x * x + y * y) + z * z)
    dpsi = wrap_angle(cache.psi_d - psi_rel)
    # Edges lead, two series follow: a reduce adds each state's edges in order.
    disp_p, disp_psi = np.sqrt(np.add.reduce(np.concatenate(
        (sq[:, None], planes(dpsi * dpsi)[:, None]), axis=1), axis=0))
    return disp_p, disp_psi, sq, dpsi


def _e_f(disp_p, disp_psi):
    """e_F = hypot(disp_p, disp_psi) of states (T+1, ...). It bounds every
    residual, so overflows first: a non-finite one raises, naming a step."""
    e_f = np.hypot(disp_p, disp_psi)
    bad = np.argwhere(~np.isfinite(np.atleast_1d(e_f).T))
    if bad.size:
        raise FloatingPointError(f"non-finite e_F at step {bad[0, -1]}")
    return e_f


def _error_series(positions, headings, cache: _EdgeCache):
    """(e_F, e_p, e_psi, disp_p, disp_psi) of states (..., N, 3), (..., N);
    see _residuals and _e_f."""
    disp_p, disp_psi, sq, dpsi = _residuals(*relative_poses(
        positions, headings, cache.obs_i, cache.obs_j), cache)
    # The F-ordered (..., E) view keeps the gemv's bits; a C copy does not.
    return (_e_f(disp_p, disp_psi), vectors(np.sqrt(sq)) @ cache.weights,
            np.abs(dpsi) @ cache.weights, disp_p, disp_psi)


def _records(scenario: Scenario, cells):
    """Yield (c, summary, record) for each cell c = (sensor, controller) of
    cells, all from the one start and noise that init_state draws for
    scenario.

    Cells step together in batches of one law branch (ell = 0.5 takes the
    proportional path). A lone cell is a run: it steps without the cell
    axis, which numpy would charge for at every step, keeps its states and
    takes its series from them afterwards; its record is a RunRecord. A
    batch keeps no states, takes its residual norms from the relative poses
    its steps computed, and its records are None.
    """
    cache = _EdgeCache(scenario.desired, scenario.graph)
    positions0, headings0, noise = init_state(scenario)
    # An overflowing start fails on e_F before its first measurement does.
    _error_series(positions0[None], headings0[None], cache)
    n, steps = scenario.graph.n, scenario.horizon_steps
    threshold = 0.5 * scenario.min_desired_distance()
    # Batches retain at most 2^21 floats (16 MiB): per cell-state 2 residual
    # norms, each agent's |du| and omega.
    size = max(1, 2 ** 21 // ((2 + 2 * n) * (steps + 1)))
    branches = [[c for c, (_, cfg) in enumerate(cells)
                 if (cfg.ell == 0.5) == half] for half in (True, False)]
    for batch in (b[lo:lo + size] for b in branches
                  for lo in range(0, len(b), size)):
        specs, cfgs = zip(*(cells[c] for c in batch))
        r = len(batch)
        dt = np.array([[1.0 / spec.rate_hz] * n for spec in specs])
        q = None if cfgs[0].ell == 0.5 else np.array(
            [[cfg.quantile] for cfg in cfgs])
        if r == 1:
            dt, q = dt[0], q if q is None else q.item()
            positions, headings, u = (np.empty(s) for s in (
                (steps + 1, n, 3), (steps + 1, n), (steps, n, 3)))
            positions[0], headings[0] = positions0, headings0
        pos, psi = (np.broadcast_to(a, dt.shape + a.shape[1:]).copy()
                    for a in (positions0, headings0))
        disp, omega = np.empty((2, steps + 1, r)), np.empty((r, steps, n))
        du = np.empty((r, max(steps - 1, 0), n))
        for k in range(steps):
            pos, psi, u_k, omega[:, k], p_rel, psi_rel = step(
                pos, psi, noise[k], dt, q, scenario, cache, k)
            if r == 1:
                positions[k + 1], headings[k + 1], u[k] = pos, psi, u_k
            else:
                disp[0, k], disp[1, k] = _residuals(p_rel, psi_rel, cache)[:2]
            if k:
                du[:, k - 1] = np.sqrt(np.square(u_k - u_prev).sum(-1))
            u_prev = u_k
        if r == 1:
            series = _error_series(positions, headings, cache)
            disp[:, :, 0] = series[3:]
            fiedler = fiedler_value(scenario.graph) if n >= 2 else 0.0
        else:
            disp[0, -1], disp[1, -1] = _residuals(*relative_poses(
                pos, psi, cache.obs_i, cache.obs_j), cache)[:2]
            _e_f(*disp)
        rates = np.array([spec.rate_hz for spec in specs])
        summaries = _summarize(None if steps < 9 else [
            convergence_metrics_1d(d, rates) for d in disp],
            disp[0], du, omega, rates, threshold)
        for c, summary in zip(batch, summaries):
            yield c, summary, None if r > 1 else RunRecord(
                positions, headings, u, omega[0], *series[:3],
                np.full(steps + 1, fiedler), summary)
        del disp, du, omega


def run(scenario: Scenario) -> RunRecord:
    """Simulate the scenario for its full horizon and compute metrics.

    Convergence metrics follow the scalar definitions with the stacked
    positional (heading) residual norm as the displacement series. The
    summary's ``converged`` flag requires the stable-state RMS of the
    positional series to stay under half the smallest desired inter-agent
    distance; chaotic non-converged runs sit orders of magnitude above it.
    """
    return next(_records(scenario, [(scenario.sensor,
                                     scenario.controller)]))[2]


def _summarize(metrics, disp_p, du, omega, f_hz, threshold):
    """Summaries of R cells at rates f_hz (R,) from their position residual
    norms disp_p (T+1, R), |du| (R, T-1, N), omega (R, T, N) and metrics of
    the position and heading series (None: < 10 states, empty summaries).
    A mean sums a cell's contiguous block pairwise, as a lone cell's does."""
    if metrics is None:
        return [{} for _ in f_hz]
    # At least 9 commands per agent here, so no difference below is empty.
    mean_dv, mean_dom, v_psi = (
        np.add.reduce(a.reshape(len(f_hz), -1), axis=1) / a[0].size
        for a in (du, np.abs(np.diff(omega, axis=1)), np.abs(omega)))
    rows = []
    for b, f in enumerate(f_hz):
        mp, mpsi = ({key: val[b].item() for key, val in m.items()}
                    for m in metrics)
        tail = max(mp["k_c"], len(disp_p) // 2)
        stable_rms_p = float(np.sqrt(np.mean(disp_p[tail:, b] ** 2)))
        rows.append({
            "t_cp": mp["t_c"], "t_cpsi": mpsi["t_c"],
            "sigma_tp": mp["sigma_t"], "sigma_tpsi": mpsi["sigma_t"],
            "mean_dv": float(mean_dv[b]), "mean_domega": float(mean_dom[b]),
            "a_p": float(mean_dv[b] * f), "v_psi": float(v_psi[b]),
            "stable_rms_p": stable_rms_p,
            "converged": bool(mp["converged"]
                              and (threshold == 0.0
                                   or stable_rms_p < threshold)),
        })
    return rows


# --- builtin scenarios --------------------------------------------------------


def _poses_from_points(points) -> tuple:
    pts = np.asarray(points, dtype=float)
    pts = pts - pts.mean(axis=0)
    return tuple(AgentPose(p, 0.0) for p in pts)


def builtin_scenarios(seed: int = 0) -> list:
    """The four reference scenarios, with the default controller and sensor.

    Two mutual agents 5 m apart; an equilateral triangle of side 5 m; six
    agents on a flat triangle (three vertices of side 10 m plus the three
    side midpoints, closest pair 5 m) fully connected; the same six agents
    observing each other in eight mutual pairs, still connected.
    """
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

    # The pairs a seeded removal of half of triangle6's 15 pairs once kept.
    pairs = [(0, 1), (0, 3), (0, 5), (1, 2), (1, 5), (2, 4), (2, 5), (3, 4)]
    sparse6 = ObservationGraph(6, pairs + [(j, i) for i, j in pairs])
    mk = lambda name, desired, graph: Scenario(
        desired=desired, graph=graph, seed=seed, name=name)
    return [
        mk("pair", pair, ObservationGraph.complete(2)),
        mk("triangle3", tri, ObservationGraph.complete(3)),
        mk("triangle6", six, ObservationGraph.complete(6)),
        mk("triangle6_sparse", six, sparse6),
    ]


# --- parameter sweep ----------------------------------------------------------


def sweep(scenario: Scenario, rates, ells, n_seeds: int) -> list:
    """Grid run over (rate, ell, seed); returns one summary row per cell.

    Seeds offset the scenario seed, so every (rate, ell) pair at a given
    seed shares its start and noise, drawn once for all cells of the seed,
    which step together. A lone cell takes its series from its states, a
    batch from its steps; a row equals the summary of run() of its cell
    bit for bit. Rows follow the grid order: rate, ell, seed.
    """
    cells = [(replace(scenario.sensor, rate_hz=f_hz),
              replace(scenario.controller, ell=ell))
             for f_hz in rates for ell in ells]
    rows = [None] * (len(cells) * n_seeds)
    for s in range(n_seeds):
        scen = replace(scenario, seed=scenario.seed + s)
        for c, summary, _ in _records(scen, cells):
            spec, cfg = cells[c]
            rows[c * n_seeds + s] = {"rate_hz": spec.rate_hz, "ell": cfg.ell,
                                     "seed": scen.seed, **summary}
    return rows
