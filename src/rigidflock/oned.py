"""One-dimensional stochastic model of the restrained controller.

A single scalar state x chases a target d using noisy measurements m of x,
applying per step the restrained displacement, with a dead zone of
half-width sigma_m |Phi^-1(ell)| around the measured target; ell = 0.5 is
the plain proportional k_ef (d - m). The module carries both the simulation
side (seeded ensembles, two mutually tracking agents, long single-agent
runs) and the closed-form side (steady-state variance with and without
restraining, stopping probability, effective gain near the target,
expected coherence time, histogram KL divergence from a fitted Gaussian).

All generators are seeded through numpy SeedSequence, so every trace is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import TAU, std_normal_cdf, std_normal_quantile

# Empirical variance-reduction exponent beta(k_ef), tabulated at five gains;
# linear interpolation in between, error outside the tabulated range.
BETA_NODES = ((0.1, 0.7251), (0.5, 0.8266), (1.0, 1.043),
              (1.5, 1.498), (1.9, 3.177))


@dataclass(frozen=True)
class OneDConfig:
    """Parameters of the scalar tracking process.

    k_ef is the dimensionless per-step gain (proportional gain over the
    measurement rate); ell the admissible overshoot probability; sigma_m the
    measurement noise; sigma_init the initial ensemble spread around d.
    """

    k_ef: float
    ell: float = 0.5
    sigma_m: float = 1.0
    f: float = 10.0
    d: float = 0.0
    sigma_init: float = 100.0
    n_agents: int = 10_000
    horizon: int = 2000
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        # Gains at or beyond 2 are simulable (they diverge); the closed-form
        # predictions validate their own (0, 2) domain.
        if self.k_ef <= 0.0:
            raise ValueError("k_ef must be positive")
        if not 0.0 < self.ell <= 0.5:
            raise ValueError("ell must lie in (0, 0.5]")
        if self.sigma_m < 0.0:
            raise ValueError("sigma_m must be >= 0")
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")

    @property
    def quantile(self) -> float:
        return std_normal_quantile(self.ell)


@dataclass
class EnsembleTrace:
    """Per-step ensemble summaries; entry k describes the state after k+1
    steps. mean_abs_dv[0] is zero (no previous velocity to compare)."""

    mean_abs_dd: np.ndarray
    sigma_a: np.ndarray
    mean_abs_dv: np.ndarray
    final_states: np.ndarray = field(repr=False, default=None)


def restrained_displacement(dm, sigma_m, cfg: OneDConfig):
    """Clamped restrained displacement given measured error dm = d - m.

    Moves toward the setpoint d + sign(dm) sigma Phi^-1(ell); zero whenever
    |dm| falls inside the dead zone sigma |Phi^-1(ell)|. At ell = 0.5 the
    quantile is exactly 0.0 and this is the proportional displacement
    k_ef dm, bit for bit. Works elementwise on arrays.
    """
    q = cfg.quantile
    y = dm + np.sign(dm) * sigma_m * q
    return np.where(np.abs(dm) > -sigma_m * q, cfg.k_ef * y, 0.0)


def continuous_state_1d(t: float, x0: float, cfg: OneDConfig) -> float:
    """Noiseless piecewise-linear state at continuous time t.

    Linear interpolation of the geometric progression between sampling
    instants; the agent moves at constant velocity between measurements.
    """
    k = math.floor(t * cfg.f)
    frac = t * cfg.f - k
    node = cfg.d + (x0 - cfg.d) * (1.0 - cfg.k_ef) ** k
    return cfg.k_ef * cfg.d * frac + node * (1.0 - cfg.k_ef * frac)


def exp_approx_1d(t: float, x0: float, cfg: OneDConfig) -> float:
    """Exponential descent through the sampling nodes."""
    return cfg.d + (x0 - cfg.d) * (1.0 - cfg.k_ef) ** (t * cfg.f)


def sigma_ss_proportional(cfg: OneDConfig) -> float:
    """Steady-state standard deviation under pure proportional control."""
    if not 0.0 < cfg.k_ef < 2.0:
        raise ValueError("steady state exists only for k_ef in (0, 2)")
    return cfg.sigma_m * math.sqrt(cfg.k_ef / (2.0 - cfg.k_ef))


def variance_closed_form(k: int, cfg: OneDConfig, var0: float) -> float:
    """Ensemble variance after k proportional steps from variance var0."""
    if not 0.0 < cfg.k_ef < 2.0:
        raise ValueError("closed form is valid only for k_ef in (0, 2)")
    decay = (1.0 - cfg.k_ef) ** (2 * k)
    return (cfg.sigma_m ** 2 * cfg.k_ef * (1.0 - decay) / (2.0 - cfg.k_ef)
            + decay * var0)


def beta_interp(k_ef: float) -> float:
    """Piecewise-linear beta(k_ef) between the tabulated nodes."""
    ks = [k for k, _ in BETA_NODES]
    if not ks[0] <= k_ef <= ks[-1]:
        raise ValueError(f"k_ef={k_ef} outside tabulated range "
                         f"[{ks[0]}, {ks[-1]}]")
    return float(np.interp(k_ef, ks, [b for _, b in BETA_NODES]))


def sigma_ss_restrained(cfg: OneDConfig) -> float:
    """Steady-state standard deviation with restraining.

    sigma^2 = sigma_ss^2 * exp(beta(k_ef) Phi^-1(ell)); valid for k_ef in
    [0.1, 1.9] and ell in [0.01, 0.5].
    """
    if not 0.01 <= cfg.ell <= 0.5:
        raise ValueError("ell must lie in [0.01, 0.5] for this approximation")
    factor = math.exp(beta_interp(cfg.k_ef) * cfg.quantile)
    return sigma_ss_proportional(cfg) * math.sqrt(factor)


def stopping_probability(delta: float, sigma_m: float, ell: float) -> float:
    """Probability that a step produces no motion, at true error delta.

    Phi(-delta/sigma - Phi^-1(ell)) - Phi(-delta/sigma + Phi^-1(ell)); at
    delta = 0 this equals 1 - 2 ell, so the minimum motion probability is
    2 ell at the target.
    """
    if sigma_m <= 0.0:
        raise ValueError("sigma_m must be positive")
    q = std_normal_quantile(ell)
    z = delta / sigma_m
    return std_normal_cdf(-z - q) - std_normal_cdf(-z + q)


def motion_probability(delta: float, sigma_m: float, ell: float) -> float:
    return 1.0 - stopping_probability(delta, sigma_m, ell)


def effective_gain(cfg: OneDConfig) -> float:
    """Linearized gain of the expected state near the target.

    First-order expansion of the expected restrained step around zero error:
    E[x' - d] = (1 - k_ef') E[x - d] with
    k_ef' = k_ef ((1 - 1/sigma) sqrt(2/pi) Phi^-1(ell)
            exp(-Phi^-1(ell)^2 / (2 sigma^2)) + 2 ell).
    Reduces to k_ef at ell = 0.5.
    """
    if cfg.sigma_m <= 0.0:
        raise ValueError("sigma_m must be positive")
    q = cfg.quantile
    s = cfg.sigma_m
    return cfg.k_ef * ((1.0 - 1.0 / s) * math.sqrt(2.0 / math.pi) * q
                       * math.exp(-q * q / (2.0 * s * s)) + 2.0 * cfg.ell)


def conditional_variance_at_target(cfg: OneDConfig) -> float:
    """Variance of the next error conditioned on zero current error.

    var = 2 k_ef^2 sigma^2 [ (1 + q^2) ell + q phi(q) ], q = Phi^-1(ell).
    Strictly increasing in ell on (0, 0.5]; equals k_ef^2 sigma^2 at
    ell = 0.5, the plain one-step noise injection.
    """
    q = cfg.quantile
    phi_q = math.exp(-0.5 * q * q) / math.sqrt(TAU)
    return (2.0 * cfg.k_ef ** 2 * cfg.sigma_m ** 2
            * ((1.0 + q * q) * cfg.ell + q * phi_q))


def expected_coherence_time(cfg: OneDConfig) -> float:
    """Expected number of steps between motion events in steady state.

    Integrates the reciprocal motion probability against a Gaussian
    steady-state density with the restrained sigma: a sum over the uniform
    grid z = k h on +-8 sigma_ss. The integrand is smooth, so the sum
    converges exponentially in the points per feature width; h, a quarter of
    the narrower scale (sigma_ss of the density, sigma_m of the dead zone),
    matches adaptive quadrature within 1e-10 relative over k_ef in [0.1,
    1.9], ell in [0.01, 0.5] and sigma_m from 0.01 to 30.
    """
    s_ss = sigma_ss_restrained(cfg)
    s_m = cfg.sigma_m
    ell = cfg.ell
    norm = 1.0 / (s_ss * math.sqrt(TAU))
    h = min(s_ss, s_m) / 4.0
    half = math.ceil(8.0 * s_ss / h)
    val = h * math.fsum(
        norm * math.exp(-0.5 * (k * h / s_ss) ** 2)
        / motion_probability(k * h, s_m, ell) for k in range(-half, half + 1))
    if not math.isfinite(val):
        raise ArithmeticError("coherence-time integral is not finite")
    return val


def estimate_coherence_time(cfg: OneDConfig, steps: int = 1_000_000,
                            burn: int = 20_000) -> float:
    """Coherence time from one long single-agent run at steady state.

    Counts motion events after burn-in; the mean interval between motions
    estimates the expected coherence time (steps per motion).
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed,
                                                       spawn_key=(7,)))
    q = cfg.quantile
    s = cfg.sigma_m
    thr = -s * q
    k_ef = cfg.k_ef
    d = cfg.d
    x = d
    moves = 0
    noise = rng.standard_normal(steps + burn) * s
    for i in range(steps + burn):
        dm = d - (x + noise[i])
        if dm > thr:
            x += k_ef * (dm + s * q)
            if i >= burn:
                moves += 1
        elif dm < -thr:
            x += k_ef * (dm - s * q)
            if i >= burn:
                moves += 1
    if moves == 0:
        raise ArithmeticError("no motion events observed")
    return steps / moves


def kl_divergence_gaussianity(samples) -> float:
    """KL divergence (nats) of a sample histogram from a fitted Gaussian.

    The Gaussian is zero-mean with the empirical standard deviation; the
    histogram has 64 equal bins on +-5 sigma. Both distributions are
    renormalized on the window and empty bins are skipped.
    """
    z = np.asarray(samples, dtype=float).ravel()
    if z.size < 10_000:
        raise ValueError("need at least 1e4 samples for a stable estimate")
    sig = float(z.std())
    if sig == 0.0:
        raise ValueError("samples are degenerate (zero variance)")
    edges = np.linspace(-5.0 * sig, 5.0 * sig, 65)
    counts, _ = np.histogram(z, edges)
    inside = counts.sum()
    if inside == 0:
        raise ValueError("no samples inside the histogram window")
    p = counts / inside
    cdf_edges = np.array([std_normal_cdf(e / sig) for e in edges])
    gauss = np.diff(cdf_edges)
    gauss /= gauss.sum()
    mask = counts > 0
    return float(np.sum(p[mask] * np.log(p[mask] / gauss[mask])))


def run_1d_ensemble(cfg: OneDConfig, restrained: bool = True) -> EnsembleTrace:
    """Simulate the scalar ensemble for cfg.horizon steps.

    Agents start Gaussian around d with spread sigma_init. sigma_a is the
    spread of the ensemble around its own mean at each step; mean_abs_dv
    averages the per-agent change of velocity between consecutive steps.

    restrained=False runs the proportional law, ell = 0.5, whatever cfg.ell
    says; the parameter stays only because bench/workloads.py passes it.
    """
    if not restrained:
        cfg = replace(cfg, ell=0.5)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n = cfg.n_agents
    x = cfg.d + rng.standard_normal(n) * cfg.sigma_init
    mean_abs_dd = np.empty(cfg.horizon)
    sigma_a = np.empty(cfg.horizon)
    mean_abs_dv = np.empty(cfg.horizon)
    v_prev = None
    for k in range(cfg.horizon):
        m = x + rng.standard_normal(n) * cfg.sigma_m
        disp = restrained_displacement(cfg.d - m, cfg.sigma_m, cfg)
        x = x + disp
        v = disp * cfg.f
        mean_abs_dd[k] = np.abs(x - cfg.d).mean()
        sigma_a[k] = x.std()
        mean_abs_dv[k] = 0.0 if v_prev is None else np.abs(v - v_prev).mean()
        v_prev = v
    return EnsembleTrace(mean_abs_dd, sigma_a, mean_abs_dv, final_states=x)


@dataclass
class TwoAgentTrace:
    """Ensemble trace of the relative displacement of two active agents."""

    delta_mean: np.ndarray
    delta_abs_mean: np.ndarray
    clamp_rate: np.ndarray


def run_1d_two_agents(cfg: OneDConfig) -> TwoAgentTrace:
    """Two mutually tracking agents, both restrained, over an ensemble.

    Each pair starts at relative displacement sigma_init from the desired
    one; both agents step on independent measurements of the same relative
    state. clamp_rate is the per-step fraction of agent inputs nullified by
    the dead zone.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed,
                                                       spawn_key=(2,)))
    n = cfg.n_agents
    p1 = np.zeros(n)
    p2 = np.full(n, cfg.d + cfg.sigma_init)
    s = cfg.sigma_m
    delta_mean = np.empty(cfg.horizon)
    delta_abs_mean = np.empty(cfg.horizon)
    clamp_rate = np.empty(cfg.horizon)
    for k in range(cfg.horizon):
        delta12 = p2 - p1 - cfg.d
        d12 = delta12 + rng.standard_normal(n) * s
        d21 = -delta12 + rng.standard_normal(n) * s
        move1 = restrained_displacement(d12, s, cfg)
        move2 = restrained_displacement(d21, s, cfg)
        p1 = p1 + move1
        p2 = p2 + move2
        delta12 = p2 - p1 - cfg.d
        delta_mean[k] = delta12.mean()
        delta_abs_mean[k] = np.abs(delta12).mean()
        clamp_rate[k] = 1.0 - 0.5 * ((move1 != 0.0).mean()
                                     + (move2 != 0.0).mean())
    return TwoAgentTrace(delta_mean, delta_abs_mean, clamp_rate)


# --- convergence metrics ------------------------------------------------------


def convergence_metrics_1d(history, f: float) -> dict:
    """Convergence metrics of one recorded history, its target at zero.

    Convergence index k_c is the first step whose value enters the band of
    three suffix RMS values (RMS taken about the target, so the band is
    well defined for norm-valued series too). sigma_t is the stable-state
    spread about the mean, estimated on the suffix from max(k_c, M/2) so
    the post-entry transient ramp cannot inflate it.
    mean_dv averages |v[k] - v[k-1]| over consecutive velocity segments.

    Returns t_c = k_c / f, sigma_t, mean_dv, k_c, converged and k_c_literal
    by name. A (M, R) history holds R runs in its columns; every metric is
    then an array over the runs. A history that never enters the band gets
    k_c equal to the last index and converged=False.
    """
    x = np.asarray(history, dtype=float)
    if x.ndim != 2:
        x = x.ravel()
    size = x.shape[0]
    if size < 10:
        raise ValueError("need a history of at least 10 samples")
    # Suffix RMS about the target, from reverse cumulative sums of squares.
    count = np.arange(size, 0, -1, dtype=float).reshape(
        (size,) + (1,) * (x.ndim - 1))
    rms = np.sqrt(np.cumsum(x[::-1] ** 2, axis=0)[::-1] / count)
    inside = np.abs(x) <= 3.0 * rms
    converged = inside.any(axis=0)
    k_c = np.where(converged, np.argmax(inside, axis=0), size - 1)
    runs = x.reshape(size, -1)  # (M, R) view; R = 1 for a single run
    tail_start = np.maximum(k_c, size // 2).ravel()
    sigma_t = np.array([runs[t:, r].std() for r, t in enumerate(tail_start)]
                       ).reshape(k_c.shape)
    v = np.diff(x, axis=0) * f
    mean_dv = np.abs(np.diff(v, axis=0)).mean(axis=0)
    # One run gives plain Python scalars, R runs give arrays over the runs.
    out = (lambda val: np.asarray(val).item()) if x.ndim == 1 else np.asarray
    # Literal band-exit reading of the convergence index, for comparison.
    exits = np.abs(x[:-1]) > 3.0 * rms[1:]
    k_literal = np.where(exits.any(axis=0), np.argmax(exits, axis=0) + 1, 0)
    return {
        "t_c": out(k_c / f), "sigma_t": out(sigma_t),
        "mean_dv": out(mean_dv),
        "k_c": out(k_c), "converged": out(converged),
        "k_c_literal": out(k_literal),
    }


# --- trade-off sweep ----------------------------------------------------------


def tradeoff_sweep(k_grid, ells, n_runs: int = 500, horizon: int = 2000,
                   sigma_m: float = 1.0, f: float = 10.0,
                   sigma_init: float = 100.0, seed: int = 0):
    """(t_c, sigma_t, mean_dv) averaged over runs, per (k_ef, ell) cell.

    Every cell shares nothing but the base seed; runs inside a cell are the
    columns of one vectorized ensemble. Returns {(k_ef, ell): (t_c, sigma_t,
    mean_dv)}.
    """
    out = {}
    for ell in ells:
        for k_ef in k_grid:
            cfg = OneDConfig(k_ef=k_ef, ell=ell, sigma_m=sigma_m, f=f,
                             sigma_init=sigma_init, n_agents=n_runs,
                             horizon=horizon, seed=seed)
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(3, int(k_ef * 1e6),
                                                        int(ell * 1e6))))
            x = rng.standard_normal(n_runs) * sigma_init
            states = np.empty((horizon + 1, n_runs))
            states[0] = x
            for k in range(horizon):
                m = x + rng.standard_normal(n_runs) * sigma_m
                x = x + restrained_displacement(cfg.d - m, sigma_m, cfg)
                states[k + 1] = x
            m = convergence_metrics_1d(states, f)
            out[(k_ef, ell)] = tuple(float(m[key].mean()) for key in
                                     ("t_c", "sigma_t", "mean_dv"))
    return out


def dominance_check(sweep, k_grid, ells, band: float = 0.05):
    """Check restrained trade-off points sit on or below the base curve.

    The base curve is (t_c, sigma_t) over k_grid at ell = 0.5; every other
    point must satisfy sigma_t <= interp(curve at its t_c) * (1 + band),
    clamping to the curve's end values outside its t_c range. Returns
    (all_ok, violations).
    """
    base = sorted(sweep[(k, 0.5)][:2] for k in k_grid)
    bt = np.array([p[0] for p in base])
    bs = np.array([p[1] for p in base])
    violations = []
    for ell in ells:
        if ell == 0.5:
            continue
        for k in k_grid:
            t_c, sigma_t, _ = sweep[(k, ell)]
            limit = float(np.interp(t_c, bt, bs)) * (1.0 + band)
            if sigma_t > limit:
                violations.append((k, ell, sigma_t, limit))
    return not violations, violations
