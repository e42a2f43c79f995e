"""Formation control law on arrays of observed edges.

The law is one array kernel, ``edge_terms``, that evaluates the per-edge
terms of E observed edges at once, and ``agent_commands``, which sums them
per observer and applies the gain and the heading-rate cap. Edges are
given as (E, 3) measured and desired relative positions, (E,) relative
headings and, for the restrained law, the measurements' (E, 3, 3) position
covariances and heading variances; ``obs_i`` (E,) names each edge's
observer.

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

from .core import rotate_z, std_normal_quantile, wrap_angle

# Floor used wherever a covariance eigenvalue must stay positive (m^2 scale
# 1e-8), far below any realistic sensor noise and far above double rounding.
DELTA = 1e-4
_DELTA2_I = DELTA ** 2 * np.eye(3)


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


def edge_terms(p_m, psi_m, p_d, psi_d, q=None, cov_p=None, var_psi=None):
    """Per-edge control terms of E edges, before the gain and the cap.

    p_m, p_d are (..., E, 3) measured and desired relative positions and
    psi_m, psi_d (..., E) relative headings; leading axes (say, one per
    cell) broadcast, and so does q. Returns (position terms (..., E, 3),
    heading terms (..., E)). With ``q`` None these are the proportional
    terms. Otherwise they are the restrained terms at quantile q =
    Phi^-1(ell), which need the position covariances cov_p (..., E, 3, 3)
    and heading variances var_psi (scalar or (..., E)) of the measurements.
    """
    dpsi = wrap_angle(psi_m - psi_d)
    p_dr = rotate_z(p_d, dpsi)
    raw_bearing = p_d[..., 0] * p_m[..., 1] - p_d[..., 1] * p_m[..., 0]
    if q is None:
        return (p_m - p_d) + (p_m - p_dr), raw_bearing + 2.0 * dpsi

    sigma_psi = np.sqrt(var_psi)

    # Rotated-desired anchor: a Gaussian surrogate of the desired position
    # rotated by the noisy heading error. Its mean pulls the horizontal part
    # inward by cos(sigma_psi); its covariance has radial, tangential and
    # vertical eigenvalues r^2 [(1 - cos s)^2, sin^2 s, DELTA^2], s clipped
    # to pi/2, and falls back to DELTA^2 I on the vertical axis. At q = 0
    # the surrogate is off and the term keeps its raw anchor.
    p_hat = p_dr.copy()
    p_hat[..., :2] *= np.where(q != 0.0, np.cos(sigma_psi), 1.0)[..., None]
    sig_c = np.minimum(sigma_psi, 0.5 * math.pi)
    rr = np.hypot(p_dr[..., 0], p_dr[..., 1])
    ok = rr > 0.0
    rad = np.zeros(p_dr.shape)
    rad[..., :2] = p_dr[..., :2] / np.where(ok, rr, 1.0)[..., None]
    tan = np.zeros(p_dr.shape)
    tan[..., 0], tan[..., 1] = -rad[..., 1], rad[..., 0]
    lam_r = rr ** 2 * (1.0 - np.cos(sig_c)) ** 2
    lam_t = rr ** 2 * np.sin(sig_c) ** 2
    cov_t = (lam_r[..., None, None] * (rad[..., None] * rad[..., None, :])
             + lam_t[..., None, None] * (tan[..., None] * tan[..., None, :]))
    cov_t[..., 2, 2] += rr ** 2 * DELTA ** 2
    cov_t = np.where(ok[..., None, None], cov_t, _DELTA2_I)

    # Position terms: the setpoint backs off from the measurement along the
    # raw error a by sigma q, sigma the standard deviation of a reduced
    # along itself, so y = a (1 + q / m) with m the Mahalanobis norm of a.
    # The clamp passes y iff m > -q. Both norms come from one stacked solve,
    # on errors scaled to unit max-norm so that tiny ones cannot underflow
    # to m = 0 (at q = 0 every nonzero error must pass).
    a = np.array([p_m - p_d, p_m - p_hat])
    scale = np.abs(a).max(axis=-1)
    unit = a / np.where(scale > 0.0, scale, 1.0)[..., None]
    cov = np.array([cov_p, cov_p + cov_t])
    sol = np.linalg.solve(cov, unit[..., None])[..., 0]
    m = scale * np.sqrt(np.maximum(np.einsum("...i,...i->...", unit, sol),
                                   0.0))
    fac = np.where(m > -q, 1.0 + q / np.where(m > 0.0, m, 1.0), 0.0)
    pos = a[0] * fac[0][..., None] + a[1] * fac[1][..., None]

    # Bearing term: rotate the measurement horizontally toward the desired
    # bearing by sigma_beta |q|, sigma_beta the tangential standard
    # deviation over the range, then clamp against the raw term. A rotation
    # past the desired bearing flips the sign and the clamp zeroes it; so
    # does a zero raw term, which covers degenerate horizontal projections.
    r_m = np.hypot(p_m[..., 0], p_m[..., 1])
    okm = r_m > 0.0
    r_safe = np.where(okm, r_m, 1.0)
    t_hat = np.zeros(p_m.shape)
    t_hat[..., 0], t_hat[..., 1] = -p_m[..., 1] / r_safe, p_m[..., 0] / r_safe
    var_tan = np.einsum("...i,...ij,...j->...", t_hat, cov_p, t_hat)
    # hypot cannot underflow to zero where r_m > 0, so theta stays finite.
    dist = np.where(okm, np.hypot(r_m, p_m[..., 2]), 1.0)
    turn = np.sqrt(np.maximum(var_tan, 0.0)) * -q / dist
    zeta_d = np.arctan2(p_d[..., 1], p_d[..., 0])
    zeta_m = np.arctan2(p_m[..., 1], p_m[..., 0])
    theta = np.sign(wrap_angle(zeta_d - zeta_m)) * turn
    p_turn = rotate_z(p_m, theta)
    y3 = p_d[..., 0] * p_turn[..., 1] - p_d[..., 1] * p_turn[..., 0]

    # Heading-consensus term; sign(0) = 0 keeps a dead-center error at zero.
    y4 = wrap_angle(dpsi + sigma_psi * np.sign(dpsi) * q)
    return pos, _clamp(y3, raw_bearing) + 2.0 * _clamp(y4, dpsi)


def _clamp(y, a):
    """Dead-zone clamp of scalars: y where 0 < y a <= a^2, else 0.0.

    Decided by sign and magnitude, so tiny values cannot underflow the
    product.
    """
    return np.where((np.sign(y) * np.sign(a) > 0.0)
                    & (np.abs(y) <= np.abs(a)), y, 0.0)


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
