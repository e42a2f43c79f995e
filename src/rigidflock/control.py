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

    The restrained terms invert each covariance in closed form from the
    upper triangle of cov_p (``_inv_quad``, within 1e-12 relative of a
    solve); a singular one, or entries past about 1e100, raise LinAlgError.
    """
    dpsi = wrap_angle(psi_m - psi_d)
    p_dr = rotate_z(p_d, dpsi)
    raw_bearing = p_d[..., 0] * p_m[..., 1] - p_d[..., 1] * p_m[..., 0]
    if q is None:
        return (p_m - p_d) + (p_m - p_dr), raw_bearing + 2.0 * dpsi

    sigma_psi = np.sqrt(var_psi)

    # Rotated-desired anchor: a Gaussian surrogate of the desired position
    # rotated by the noisy heading error. Its mean pulls the horizontal part
    # inward by cos(sigma_psi); its covariance cov_t has radial, tangential
    # and vertical eigenvalues r^2 [(1 - cos s)^2, sin^2 s, DELTA^2], s
    # clipped to pi/2, and falls back to DELTA^2 I on the vertical axis. At
    # q = 0 the surrogate is off and the term keeps its raw anchor.
    p_hat = p_dr.copy()
    p_hat[..., :2] *= np.where(q != 0.0, np.cos(sigma_psi), 1.0)[..., None]
    sig_c = np.minimum(sigma_psi, 0.5 * math.pi)
    rr = np.hypot(p_dr[..., 0], p_dr[..., 1])
    ok = rr > 0.0
    rad = p_dr[..., :2] / np.where(ok, rr, 1.0)[..., None]
    lam_r = rr ** 2 * (1.0 - np.cos(sig_c)) ** 2
    lam_t = rr ** 2 * np.sin(sig_c) ** 2
    floor = np.where(ok, 0.0, DELTA ** 2)  # cov_t: t_h = (t00, t11), t01, t22
    rad2, rxy = rad * rad, rad[..., 0] * rad[..., 1]
    t_h = (lam_r[..., None] * rad2 + lam_t[..., None] * rad2[..., ::-1]
           + floor[..., None])
    t01 = lam_r * rxy - lam_t * rxy

    # Position terms: the setpoint backs off from the measurement along the
    # raw error a by sigma q, sigma the standard deviation of a reduced
    # along itself, so y = a (1 + q / m) with m the Mahalanobis norm of a.
    # The clamp passes y iff m > -q. Both norms come from one closed-form
    # pass over the covariances [cov_p, cov_p + cov_t], on errors scaled to
    # unit max-norm so that tiny ones cannot underflow to m = 0 (at q = 0
    # every nonzero error must pass).
    a = np.array([p_m - p_d, p_m - p_hat])
    scale = np.abs(a).max(axis=-1)
    unit = a / np.where(scale > 0.0, scale, 1.0)[..., None]
    pair = lambda i, j, t: np.array([cov_p[..., i, j], cov_p[..., i, j] + t])
    m = scale * np.sqrt(np.maximum(_inv_quad(
        unit, pair(0, 0, t_h[..., 0]), pair(0, 1, t01), cov_p[..., 0, 2],
        pair(1, 1, t_h[..., 1]), cov_p[..., 1, 2],
        pair(2, 2, rr ** 2 * DELTA ** 2 + floor)), 0.0))
    fac = np.where(m > -q, 1.0 + q / np.where(m > 0.0, m, 1.0), 0.0)
    pos = a[0] * fac[0][..., None] + a[1] * fac[1][..., None]

    # Bearing term: rotate the measurement horizontally toward the desired
    # bearing by sigma_beta |q|, sigma_beta the tangential standard
    # deviation over the range, then clamp against the raw term. A rotation
    # past the desired bearing flips the sign and the clamp zeroes it; so
    # does a zero raw term, which covers degenerate horizontal projections.
    r_m = np.hypot(p_m[..., 0], p_m[..., 1])
    okm = r_m > 0.0
    # The horizontal tangent is (-hy, hx), h the unit horizontal direction.
    h = p_m[..., :2] / np.where(okm, r_m, 1.0)[..., None]
    hx, hy = h[..., 0], h[..., 1]
    var_tan = (hy * (hy * cov_p[..., 0, 0] - 2.0 * hx * cov_p[..., 0, 1])
               + hx * hx * cov_p[..., 1, 1])
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


def _inv_quad(u, a00, a01, a02, a11, a12, a22):
    """u^T A^-1 u for u (..., 3) and symmetric 3x3 A given by its upper
    triangle (entries broadcast to u's leading axes): six cofactors over the
    determinant, one value per matrix. LinAlgError unless det is finite > 0."""
    c00 = a11 * a22 - a12 * a12
    c01 = a12 * a02 - a01 * a22
    c02 = a01 * a12 - a11 * a02
    det = a00 * c00 + a01 * c01 + a02 * c02
    if det.size and not 0.0 < det.min() <= det.max() < np.inf:
        raise np.linalg.LinAlgError(
            "position covariance is singular or not finite")
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    w = 2.0 * u  # off-diagonal cofactors enter the form twice
    return (u0 * (c00 * u0 + c01 * w[..., 1] + c02 * w[..., 2])
            + u1 * ((a00 * a22 - a02 * a02) * u1
                    + (a01 * a02 - a00 * a12) * w[..., 2])
            + u2 * u2 * (a00 * a11 - a01 * a01)) / det


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
