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
from dataclasses import dataclass, field, replace

import numpy as np

from .core import TAU, check_fields, std_normal_cdf, std_normal_quantile

# Empirical variance-reduction exponent beta(k_ef), tabulated at five gains;
# linear interpolation in between, error outside the tabulated range.
BETA_NODES = ((0.1, 0.7251), (0.5, 0.8266), (1.0, 1.043),
              (1.5, 1.498), (1.9, 3.177))

# 1D noise is drawn in blocks of at most _CHUNK_FLOATS floats. A trade-off
# batch holds at most _BATCH_FLOATS history floats, two cells of 1001 steps
# x 200 runs (3.2 MB), and the metrics of one cell at a time, which work in
# column blocks of at most _METRIC_FLOATS floats (under 1 MB). Measured on
# the analysis_1d job, a third cell per batch raised its peak RSS from 42.6
# to 44.1 MB and cut the trade-off's time by 17%, a fourth cell to 45.7 MB
# and by 24%; 256 kB noise blocks were measured to raise the peak too.
_CHUNK_FLOATS = 1 << 13
_BATCH_FLOATS = 1 << 19
_METRIC_FLOATS = 1 << 15


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
        check_fields(self)
        # Gains at or beyond 2 are simulable (they diverge); the closed-form
        # predictions validate their own (0, 2) domain.
        if self.k_ef <= 0.0:
            raise ValueError("k_ef must be positive")
        if not 0.0 < self.ell <= 0.5:
            raise ValueError("ell must lie in (0, 0.5]")
        if self.sigma_m < 0.0:
            raise ValueError("sigma_m must be >= 0")
        if self.sigma_init < 0.0:
            raise ValueError("sigma_init must be >= 0")
        if self.f <= 0.0:
            raise ValueError("f must be positive")
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


def restrain(dm, c, k_ef):
    """Restrained displacement at measured error dm = d - m.

    k_ef (dm + sign(dm) c) where |dm| > -c, a move toward the setpoint
    d + sign(dm) sigma_m Phi^-1(ell); 0.0 inside the dead zone and for a nan
    dm. c = sigma_m Phi^-1(ell) <= 0 is minus the zone's half-width, 0.0 at
    ell = 0.5, where this is k_ef dm. c and k_ef are scalars or per-column
    arrays. Bit for bit the direct np.where form: for dm < 0, |dm| + c
    rounds to -(dm - c), and its sign decides the dead zone exactly.
    """
    y = np.abs(dm) + c
    return np.where(y > 0.0, k_ef * np.copysign(y, dm), 0.0)


def _normals(rngs, steps: int, shape: tuple, scale: float):
    """Per step, one standard_normal(shape) draw of each generator times
    scale, as one (len(rngs), *shape) array. They come in blocks of at most
    _CHUNK_FLOATS floats; a (T, *shape) block holds the numbers of T
    successive draws, so the blocks change no result."""
    rows = max(1, _CHUNK_FLOATS // (len(rngs) * math.prod(shape)))
    for lo in range(0, steps, rows):
        block = np.empty((len(rngs), min(rows, steps - lo)) + shape)
        for rng, draws in zip(rngs, block):
            rng.standard_normal(out=draws)
        block *= scale
        yield from block.swapaxes(0, 1)


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
    half = -cfg.sigma_m * cfg.quantile  # dead-zone half-width
    k_ef, d = cfg.k_ef, cfg.d
    x = d
    # Python floats, not numpy scalars: the loop runs at interpreter speed.
    for length in (burn, steps):
        moves = 0
        for lo in range(0, length, _CHUNK_FLOATS):
            for z in (rng.standard_normal(min(_CHUNK_FLOATS, length - lo))
                      * cfg.sigma_m).tolist():
                dm = d - (x + z)
                if dm > half:
                    x += k_ef * (dm - half)
                    moves += 1
                elif dm < -half:
                    x += k_ef * (dm + half)
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
    x = cfg.d + rng.standard_normal(cfg.n_agents) * cfg.sigma_init
    c = cfg.sigma_m * cfg.quantile
    mean_abs_dd = np.empty(cfg.horizon)
    sigma_a = np.empty(cfg.horizon)
    mean_abs_dv = np.empty(cfg.horizon)
    v_prev = None
    for k, (z,) in enumerate(_normals([rng], cfg.horizon, (cfg.n_agents,),
                                      cfg.sigma_m)):
        disp = restrain(cfg.d - (x + z), c, cfg.k_ef)
        x += disp
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
    c = cfg.sigma_m * cfg.quantile
    delta_mean = np.empty(cfg.horizon)
    delta_abs_mean = np.empty(cfg.horizon)
    clamp_rate = np.empty(cfg.horizon)
    delta12 = p2 - p1 - cfg.d
    # Per step, the draws for agent 1's measurement, then agent 2's.
    for k, ((z1, z2),) in enumerate(_normals([rng], cfg.horizon, (2, n),
                                             cfg.sigma_m)):
        move1 = restrain(delta12 + z1, c, cfg.k_ef)
        move2 = restrain(-delta12 + z2, c, cfg.k_ef)
        p1 += move1
        p2 += move2
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
    by name. A (M, R) history holds R runs in its columns, and f may then
    be one rate per column; every metric is an array over the runs. A
    column's t_c, sigma_t, k_c, converged and k_c_literal equal those of a
    lone call on it bit for bit, its mean_dv does not: the column mean sums
    in another order. A history that never enters the band gets k_c equal
    to the last index and converged=False.

    A (M, R) history of more than _METRIC_FLOATS floats is taken in blocks
    of max(2, _METRIC_FLOATS // M) columns, so the work arrays stay near
    three such blocks whatever R is; the blocks change no bits. Every block
    holds two columns or more, and a trailing single column joins the block
    before it: numpy sums the rows of a wider block in order, but a lone
    column pairwise, which moves the last bits of its mean_dv.
    """
    x = np.asarray(history, dtype=float)
    if x.ndim != 2:
        x = x.ravel()
    size = x.shape[0]
    if size < 10:
        raise ValueError("need a history of at least 10 samples")
    if x.ndim == 1:
        parts = [_metric_block(x, f)]
    else:
        runs = x.shape[1]
        width = max(2, _METRIC_FLOATS // size)
        starts = list(range(0, runs - 1, width)) or [0]
        parts = [_metric_block(x[:, lo:hi], f[lo:hi] if np.ndim(f) else f)
                 for lo, hi in zip(starts, starts[1:] + [runs])]
    k_c, sigma_t, mean_dv, converged, k_literal = map(np.hstack, zip(*parts))
    metrics = {"t_c": k_c / f, "sigma_t": sigma_t, "mean_dv": mean_dv,
               "k_c": k_c, "converged": converged, "k_c_literal": k_literal}
    if x.ndim == 1:  # one run gives plain Python scalars
        return {key: val.item() for key, val in metrics.items()}
    return metrics


def _metric_block(x, f):
    """(k_c, sigma_t, mean_dv, converged, k_c_literal) of a (M,) history or
    of the columns of a (M, R) one, as convergence_metrics_1d defines them.
    """
    size = x.shape[0]
    # Three suffix RMS about the target, in place; it bounds both readings.
    band = np.square(x)
    np.cumsum(band[::-1], axis=0, out=band[::-1])
    band /= np.arange(size, 0, -1.0).reshape((size,) + (1,) * (x.ndim - 1))
    np.multiply(np.sqrt(band, out=band), 3.0, out=band)
    ax = np.abs(x)
    inside = ax <= band
    converged = inside.any(axis=0)
    k_c = np.where(converged, np.argmax(inside, axis=0), size - 1)
    # Literal band-exit reading of the convergence index, for comparison.
    exits = ax[:-1] > band[1:]
    k_literal = np.where(exits.any(axis=0), np.argmax(exits, axis=0) + 1, 0)
    v = band[:-1]  # the velocities; their differences go into ax
    np.multiply(np.subtract(x[1:], x[:-1], out=v), f, out=v)
    dv = np.subtract(v[1:], v[:-1], out=ax[:-2])
    mean_dv = np.abs(dv, out=dv).mean(axis=0)
    del band, ax, inside, exits, v, dv  # freed before the tail copies
    # One std per tail start over a (runs, tail) copy, bit for bit per run.
    runs = x.reshape(size, -1).T
    tail_start = np.maximum(k_c, size // 2).ravel()
    sigma_t = np.empty(tail_start.shape)
    for t in set(tail_start.tolist()):
        same = np.flatnonzero(tail_start == t)
        sigma_t[same] = runs[same, t:].std(axis=1)
    return k_c, sigma_t.reshape(k_c.shape), mean_dv, converged, k_literal


# --- trade-off sweep ----------------------------------------------------------


def tradeoff_sweep(k_grid, ells, n_runs: int = 500, horizon: int = 2000,
                   sigma_m: float = 1.0, f: float = 10.0,
                   sigma_init: float = 100.0, seed: int = 0):
    """(t_c, sigma_t, mean_dv) averaged over runs, per (k_ef, ell) cell.

    Every cell shares nothing but the base seed and draws from its own
    stream. Cells step together as columns of one ensemble, as many as
    _BATCH_FLOATS history floats hold, bit-identical to stepping alone.
    Returns {(k_ef, ell): (t_c, sigma_t, mean_dv)}.
    """
    cells = [OneDConfig(k_ef=k_ef, ell=ell, sigma_m=sigma_m, f=f,
                        sigma_init=sigma_init, n_agents=n_runs,
                        horizon=horizon, seed=seed)
             for ell in ells for k_ef in k_grid]
    if not cells:  # nothing validated the sizes below
        return {}
    per_batch = max(1, _BATCH_FLOATS // ((horizon + 1) * n_runs))
    states = np.empty((horizon + 1, min(per_batch, len(cells)), n_runs))
    out = {}
    for lo in range(0, len(cells), per_batch):
        batch = cells[lo:lo + per_batch]
        history = states[:, :len(batch)]
        rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(
            3, int(cfg.k_ef * 1e6), int(cfg.ell * 1e6)))) for cfg in batch]
        history[0] = [rng.standard_normal(n_runs) * sigma_init for rng in rngs]
        c = np.array([[sigma_m * cfg.quantile] for cfg in batch])
        k_ef = np.array([[cfg.k_ef] for cfg in batch])
        for k, z in enumerate(_normals(rngs, horizon, (n_runs,), sigma_m)):
            x = history[k]
            np.add(x, restrain(0.0 - (x + z), c, k_ef), out=history[k + 1])
        for j, cfg in enumerate(batch):
            m = convergence_metrics_1d(history[:, j], f)
            out[(cfg.k_ef, cfg.ell)] = tuple(
                float(m[key].mean()) for key in ("t_c", "sigma_t", "mean_dv"))
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
