"""The 1D simulations stepped one draw at a time, as test oracles.

The package draws its noise in blocks, steps the trade-off cells together
as columns of one ensemble, moves through one fused restrained kernel
(``rigidflock.oned.restrain``) and computes the convergence metrics in a
few reused buffers. This module keeps the direct forms it replaced: the
restrained displacement as one ``np.where`` expression, the metrics from
fresh temporaries with one ``std`` per run, and per-step loops that draw
each step's noise on their own. The tests hold the package to these bit for
bit.
"""

import numpy as np

from rigidflock.oned import EnsembleTrace, TwoAgentTrace


def direct_displacement(dm, sigma_m, q, k_ef):
    """np.where(|dm| > -sigma q, k_ef (dm + sign(dm) sigma q), 0.0)."""
    y = dm + np.sign(dm) * sigma_m * q
    return np.where(np.abs(dm) > -sigma_m * q, k_ef * y, 0.0)


def convergence_metrics(history, f):
    """convergence_metrics_1d(history, f) from fresh temporaries."""
    x = np.asarray(history, dtype=float)
    if x.ndim != 2:
        x = x.ravel()
    size = x.shape[0]
    count = np.arange(size, 0, -1, dtype=float).reshape(
        (size,) + (1,) * (x.ndim - 1))
    rms = np.sqrt(np.cumsum(x[::-1] ** 2, axis=0)[::-1] / count)
    inside = np.abs(x) <= 3.0 * rms
    converged = inside.any(axis=0)
    k_c = np.where(converged, np.argmax(inside, axis=0), size - 1)
    runs = x.reshape(size, -1)
    tail_start = np.maximum(k_c, size // 2).ravel()
    sigma_t = np.array([runs[t:, r].std() for r, t in enumerate(tail_start)]
                       ).reshape(k_c.shape)
    v = np.diff(x, axis=0) * f
    mean_dv = np.abs(np.diff(v, axis=0)).mean(axis=0)
    out = (lambda val: np.asarray(val).item()) if x.ndim == 1 else np.asarray
    exits = np.abs(x[:-1]) > 3.0 * rms[1:]
    k_literal = np.where(exits.any(axis=0), np.argmax(exits, axis=0) + 1, 0)
    return {
        "t_c": out(k_c / f), "sigma_t": out(sigma_t),
        "mean_dv": out(mean_dv),
        "k_c": out(k_c), "converged": out(converged),
        "k_c_literal": out(k_literal),
    }


def ensemble(cfg):
    """run_1d_ensemble(cfg), one draw of n_agents per step."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n = cfg.n_agents
    x = cfg.d + rng.standard_normal(n) * cfg.sigma_init
    mean_abs_dd = np.empty(cfg.horizon)
    sigma_a = np.empty(cfg.horizon)
    mean_abs_dv = np.empty(cfg.horizon)
    v_prev = None
    for k in range(cfg.horizon):
        m = x + rng.standard_normal(n) * cfg.sigma_m
        disp = direct_displacement(cfg.d - m, cfg.sigma_m, cfg.quantile,
                                   cfg.k_ef)
        x = x + disp
        v = disp * cfg.f
        mean_abs_dd[k] = np.abs(x - cfg.d).mean()
        sigma_a[k] = x.std()
        mean_abs_dv[k] = 0.0 if v_prev is None else np.abs(v - v_prev).mean()
        v_prev = v
    return EnsembleTrace(mean_abs_dd, sigma_a, mean_abs_dv, final_states=x)


def two_agents(cfg):
    """run_1d_two_agents(cfg), two draws of n_agents per step."""
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
        move1 = direct_displacement(d12, s, cfg.quantile, cfg.k_ef)
        move2 = direct_displacement(d21, s, cfg.quantile, cfg.k_ef)
        p1 = p1 + move1
        p2 = p2 + move2
        delta12 = p2 - p1 - cfg.d
        delta_mean[k] = delta12.mean()
        delta_abs_mean[k] = np.abs(delta12).mean()
        clamp_rate[k] = 1.0 - 0.5 * ((move1 != 0.0).mean()
                                     + (move2 != 0.0).mean())
    return TwoAgentTrace(delta_mean, delta_abs_mean, clamp_rate)


def tradeoff_cell(cfg, seed, n_runs, horizon, sigma_m, f, sigma_init):
    """One tradeoff_sweep cell stepped alone: its (t_c, sigma_t, mean_dv)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(3, int(cfg.k_ef * 1e6),
                                                int(cfg.ell * 1e6))))
    x = rng.standard_normal(n_runs) * sigma_init
    states = np.empty((horizon + 1, n_runs))
    states[0] = x
    for k in range(horizon):
        m = x + rng.standard_normal(n_runs) * sigma_m
        x = x + direct_displacement(cfg.d - m, sigma_m, cfg.quantile,
                                    cfg.k_ef)
        states[k + 1] = x
    m = convergence_metrics(states, f)
    return tuple(float(m[key].mean()) for key in ("t_c", "sigma_t", "mean_dv"))


def coherence_time(cfg, steps, burn):
    """estimate_coherence_time(cfg, steps, burn), indexing numpy scalars."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed,
                                                       spawn_key=(7,)))
    q = cfg.quantile
    s = cfg.sigma_m
    thr = -s * q
    x = cfg.d
    moves = 0
    noise = rng.standard_normal(steps + burn) * s
    for i in range(steps + burn):
        dm = cfg.d - (x + noise[i])
        if dm > thr:
            x += cfg.k_ef * (dm + s * q)
            if i >= burn:
                moves += 1
        elif dm < -thr:
            x += cfg.k_ef * (dm - s * q)
            if i >= burn:
                moves += 1
    return steps / moves
