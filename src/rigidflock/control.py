"""Per-agent formation control laws.

One array kernel, ``edge_terms``, evaluates the law on a batch of E
observed edges at once; the simulator calls it on every edge of a step and
the per-agent commands below call it on one agent's measurement list.

* Proportional terms: plain gradient-descent action on the formation
  error, four terms per observed neighbor (two positional, one
  bearing-coupled heading term, one heading-consensus term).
* Restrained terms: the noise-aware variant. Every term is replaced by a
  setpoint pulled back toward the measurement by the noise quantile
  sigma * Phi^-1(ell) along a 1D reduction of that term, then passed through
  a dead-zone clamp. ell in (0, 0.5] is the admissible overshoot
  probability; ell = 0.5 (quantile exactly 0.0) reproduces the proportional
  terms bit for bit.

Commands are velocities in the agent body frame, held constant for one
control period. The summed heading rate is saturated so one period never
rotates the agent by more than ``omega_cap`` radians; the bearing-coupled
term grows with the squared neighbor distance, so an uncapped command can
spin the agent arbitrarily fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ensure_covariance3, rotate_z, std_normal_quantile,
                   wrap_angle)

# Floor used wherever a covariance eigenvalue must stay positive (m^2 scale
# 1e-8), far below any realistic sensor noise and far above double rounding.
DELTA = 1e-4


@dataclass(frozen=True)
class NoisyRelativePose:
    """Measured relative pose with the noise statistics attached to it."""

    p_m: np.ndarray
    psi_m: float
    cov_p: np.ndarray
    var_psi: float

    def __post_init__(self):
        object.__setattr__(self, "p_m",
                           np.asarray(self.p_m, dtype=float).reshape(3))
        object.__setattr__(self, "psi_m", wrap_angle(self.psi_m))
        object.__setattr__(self, "cov_p", ensure_covariance3(self.cov_p))
        if self.var_psi < 0.0:
            raise ValueError("heading variance must be >= 0")


@dataclass(frozen=True)
class DesiredRelativePose:
    p_d: np.ndarray
    psi_d: float

    def __post_init__(self):
        object.__setattr__(self, "p_d",
                           np.asarray(self.p_d, dtype=float).reshape(3))
        object.__setattr__(self, "psi_d", wrap_angle(self.psi_d))


@dataclass(frozen=True)
class ControlCommand:
    """Body-frame velocity u (m/s) and heading rate omega (rad/s)."""

    u: np.ndarray
    omega: float


@dataclass(frozen=True)
class ControllerConfig:
    """Gains and overshoot probability shared by all agents.

    ell = 0.5 is plain gradient descent, a smaller ell the restrained law.
    omega_cap bounds the heading change per control period (radians).
    """

    k_e: float = 0.5
    ell: float = 0.5
    omega_cap: float = math.pi

    def __post_init__(self):
        if self.k_e <= 0.0:
            raise ValueError("k_e must be positive")
        if not 0.0 < self.ell <= 0.5:
            raise ValueError("ell must lie in (0, 0.5]")
        if self.omega_cap <= 0.0:
            raise ValueError("omega_cap must be positive")

    @property
    def quantile(self) -> float:
        """Phi^-1(ell); exactly 0.0 at ell = 0.5."""
        return std_normal_quantile(self.ell)


def clamp_dz(y, a):
    """Dead-zone clamp: y if <y, a> in (0, ||a||^2], else zero.

    Scalars and same-shape vectors are both accepted. The half-open lower
    bound nullifies opposing or orthogonal actions, the closed upper bound
    passes y = a unchanged.
    """
    if np.isscalar(y) or isinstance(y, (float, int)):
        prod = float(y) * float(a)
        return float(y) if 0.0 < prod <= float(a) * float(a) else 0.0
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    prod = float(np.dot(y, a))
    if 0.0 < prod <= float(np.dot(a, a)):
        return y.copy()
    return np.zeros_like(y)


def edge_terms(p_m, psi_m, p_d, psi_d, q=None, cov_p=None, var_psi=None):
    """Per-edge control terms of E edges, before the gain and the cap.

    p_m, p_d are (E, 3) measured and desired relative positions, psi_m,
    psi_d (E,) relative headings. Returns (position terms (E, 3), heading
    terms (E,)). With ``q`` None these are the proportional terms. Otherwise
    they are the restrained terms at quantile q = Phi^-1(ell), which need
    the position covariances cov_p (E, 3, 3) and heading variances var_psi
    (scalar or (E,)) of the measurements.
    """
    dpsi = wrap_angle(psi_m - psi_d)
    p_dr = rotate_z(p_d, dpsi)
    raw_bearing = p_d[:, 0] * p_m[:, 1] - p_d[:, 1] * p_m[:, 0]
    if q is None:
        return (p_m - p_d) + (p_m - p_dr), raw_bearing + 2.0 * dpsi

    n_e = p_m.shape[0]
    sigma_psi = np.sqrt(var_psi)

    # Rotated-desired anchor: a Gaussian surrogate of the desired position
    # rotated by the noisy heading error. Its mean pulls the horizontal part
    # inward by cos(sigma_psi); its covariance has radial, tangential and
    # vertical eigenvalues r^2 [(1 - cos s)^2, sin^2 s, DELTA^2], s clipped
    # to pi/2, and falls back to DELTA^2 I on the vertical axis. At q = 0
    # the surrogate is off and the term keeps its raw anchor.
    p_hat = p_dr.copy()
    if q != 0.0:
        p_hat[:, :2] *= np.cos(sigma_psi)[..., None]
    sig_c = np.minimum(sigma_psi, 0.5 * math.pi)
    rr = np.hypot(p_dr[:, 0], p_dr[:, 1])
    ok = rr > 0.0
    rad = np.zeros((n_e, 3))
    rad[ok, :2] = p_dr[ok, :2] / rr[ok, None]
    tan = np.stack([-rad[:, 1], rad[:, 0], np.zeros(n_e)], axis=1)
    lam_r = rr ** 2 * (1.0 - np.cos(sig_c)) ** 2
    lam_t = rr ** 2 * np.sin(sig_c) ** 2
    cov_t = (lam_r[:, None, None] * np.einsum("ij,ik->ijk", rad, rad)
             + lam_t[:, None, None] * np.einsum("ij,ik->ijk", tan, tan))
    cov_t[:, 2, 2] += rr ** 2 * DELTA ** 2
    cov_t[~ok] = DELTA ** 2 * np.eye(3)

    # Position terms: the setpoint backs off from the measurement along the
    # raw error a by sigma q, sigma the standard deviation of a reduced
    # along itself, so y = a (1 + q / m) with m the Mahalanobis norm of a.
    # The clamp passes y iff m > -q. Both norms come from one stacked solve,
    # on errors scaled to unit max-norm so that tiny ones cannot underflow
    # to m = 0 (at q = 0 every nonzero error must pass).
    a = np.stack([p_m - p_d, p_m - p_hat])
    scale = np.abs(a).max(axis=2)
    unit = a / np.where(scale > 0.0, scale, 1.0)[..., None]
    cov = np.stack([cov_p, cov_p + cov_t])
    sol = np.linalg.solve(cov, unit[..., None])[..., 0]
    m = scale * np.sqrt(np.maximum(np.einsum("kij,kij->ki", unit, sol), 0.0))
    fac = np.where(m > -q, 1.0 + q / np.where(m > 0.0, m, 1.0), 0.0)
    pos = a[0] * fac[0][:, None] + a[1] * fac[1][:, None]

    # Bearing term: rotate the measurement horizontally toward the desired
    # bearing by sigma_beta |q|, sigma_beta the tangential standard
    # deviation over the range, then clamp against the raw term. A rotation
    # past the desired bearing flips the sign and the clamp zeroes it; so
    # does a zero raw term, which covers degenerate horizontal projections.
    r_m = np.hypot(p_m[:, 0], p_m[:, 1])
    okm = r_m > 0.0
    t_hat = np.zeros((n_e, 3))
    t_hat[okm, 0] = -p_m[okm, 1] / r_m[okm]
    t_hat[okm, 1] = p_m[okm, 0] / r_m[okm]
    var_tan = np.einsum("ei,eij,ej->e", t_hat, cov_p, t_hat)
    # hypot cannot underflow to zero where r_m > 0, so theta stays finite.
    dist = np.where(okm, np.hypot(r_m, p_m[:, 2]), 1.0)
    turn = np.sqrt(np.maximum(var_tan, 0.0)) * -q / dist
    zeta_d = np.arctan2(p_d[:, 1], p_d[:, 0])
    zeta_m = np.arctan2(p_m[:, 1], p_m[:, 0])
    theta = np.sign(wrap_angle(zeta_d - zeta_m)) * turn
    p_turn = rotate_z(p_m, theta)
    y3 = p_d[:, 0] * p_turn[:, 1] - p_d[:, 1] * p_turn[:, 0]

    # Heading-consensus term; sign(0) = 0 keeps a dead-center error at zero.
    y4 = wrap_angle(dpsi + sigma_psi * np.sign(dpsi) * q)
    return pos, _clamp(y3, raw_bearing) + 2.0 * _clamp(y4, dpsi)


def _clamp(y, a):
    """Elementwise ``clamp_dz`` of scalars, by sign and magnitude.

    Same as 0 < y a <= a^2, but tiny values cannot underflow the product.
    """
    return np.where((np.sign(y) * np.sign(a) > 0.0)
                    & (np.abs(y) <= np.abs(a)), y, 0.0)


def _stack(measurements):
    """Stack (measured, desired) pairs into the kernel's edge arrays."""
    if not measurements:
        raise ValueError("at least one observation is required")
    meas, des = zip(*measurements)
    return (np.array([m.p_m for m in meas]), np.array([m.psi_m for m in meas]),
            np.array([d.p_d for d in des]), np.array([d.psi_d for d in des]),
            np.array([m.cov_p for m in meas]),
            np.array([m.var_psi for m in meas]))


def agent_commands(obs_i, pos_terms, ang_terms, n: int,
                   cfg: ControllerConfig, dt: float):
    """u (n, 3), omega (n,): the edge terms summed per observer obs_i (E,)
    in edge order, scaled by k_e, the heading rate capped at omega_cap / dt.
    """
    u = np.zeros((n, 3))
    omega = np.zeros(n)
    np.add.at(u, obs_i, pos_terms)
    np.add.at(omega, obs_i, ang_terms)
    cap = cfg.omega_cap / dt
    return cfg.k_e * u, np.clip(cfg.k_e * omega, -cap, cap)


def _command(measurements, cfg: ControllerConfig, dt: float,
             q=None) -> ControlCommand:
    """One agent's command; q = Phi^-1(ell) or None, as in edge_terms."""
    p_m, psi_m, p_d, psi_d, cov_p, var_psi = _stack(measurements)
    terms = edge_terms(p_m, psi_m, p_d, psi_d, q, cov_p, var_psi)
    u, omega = agent_commands(np.zeros(len(psi_m), int), *terms, 1, cfg, dt)
    return ControlCommand(u[0], float(omega[0]))


def proportional_command(measurements, cfg: ControllerConfig,
                         dt: float = 1.0) -> ControlCommand:
    """Gradient-descent command from (measured, desired) relative pose pairs.

    u sums the direct position error and the rotation-compensated position
    error; omega sums the bearing cross term and twice the wrapped heading
    error. ``dt`` is the control period used by the heading-rate cap.
    """
    return _command(measurements, cfg, dt)


def restrained_command(measurements, cfg: ControllerConfig,
                       dt: float = 1.0) -> ControlCommand:
    """Noise-restrained command; equals the proportional one at ell = 0.5.

    Each term is clamped against its raw proportional counterpart, so any
    term whose measured error falls inside its dead zone contributes zero.
    """
    return _command(measurements, cfg, dt, cfg.quantile)
