"""Formation control law on arrays of observed edges.

The law is one array kernel, ``edge_terms``, that evaluates the per-edge
terms of E observed edges at once, and ``agent_commands``, which sums them
per observer and applies the gain and the heading-rate cap. Edges are
given as (E, 3) measured and desired relative positions, (E,) relative
headings and, for the restrained law, the measurements' position
covariances, as six upper-triangle entries, and heading variances;
``obs_i`` (E,) names each edge's observer.

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

from .core import (check_fields, planes, std_normal_quantile, turn, vectors,
                   wrap_angle)

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
        check_fields(self)
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


def law_constants(p_d, var_psi):
    """The restrained law's per-run constants: desired bearings arctan2(p_d),
    sigma_psi = sqrt(var_psi), cos sigma_psi, and (1 - cos s)^2, sin^2 s at
    s = min(sigma_psi, pi/2)."""
    sigma_psi = np.sqrt(var_psi)
    sig_c = np.minimum(sigma_psi, 0.5 * math.pi)
    return (np.arctan2(p_d[..., 1], p_d[..., 0]), sigma_psi,
            np.cos(sigma_psi), (1.0 - np.cos(sig_c)) ** 2, np.sin(sig_c) ** 2)


def edge_terms(p_m, psi_m, p_d, psi_d, q=None, cov_p=None, const=None):
    """Per-edge control terms of E edges, before the gain and the cap.

    p_m, p_d are (..., E, 3) measured and desired relative positions and
    psi_m, psi_d (..., E) relative headings; leading axes (say, one per
    cell) broadcast, and so does q. Returns (position terms (..., E, 3),
    heading terms (..., E)). With ``q`` None these are the proportional
    terms. Otherwise they are the restrained terms at quantile q =
    Phi^-1(ell), which need the position covariances cov_p, as the six
    entries of ``sensors.position_covariance``, and the per-run constants
    ``const = law_constants(p_d, var_psi)`` of the measurements' heading
    variances var_psi (scalar or (..., E)).

    The work is on x, y, z planes (``core.planes``), and temporaries go once
    spent: past the C heap's trim threshold, a batch step would fault in
    its temporaries afresh every time. Each covariance inverts in closed
    form (``_inv_quad``, within 1e-12 relative of a solve); a singular one,
    or entries past about 1e100, raise LinAlgError.
    """
    m = planes(p_m, p_d.ndim)
    d = planes(p_d, m.ndim)
    dpsi = wrap_angle(psi_m - psi_d)
    p_dr = turn(d, dpsi)
    raw_bearing = d[0] * m[1] - d[1] * m[0]
    if q is None:
        return vectors((m - d) + (m - p_dr)), raw_bearing + 2.0 * dpsi

    zeta_d, sigma_psi, cos_psi, k_r, k_t = const
    c00, c01, c02, c11, c12, c22 = cov_p
    # Heading-consensus term; sign(0) = 0 keeps a dead-center error at zero.
    y4 = wrap_angle(dpsi + sigma_psi * np.sign(dpsi) * q)
    ang = _clamp(_bearing(m, d, zeta_d, c00, c01, c11, q), raw_bearing) \
        + 2.0 * _clamp(y4, dpsi)

    # Rotated-desired anchor: a Gaussian surrogate of the desired position
    # rotated by the noisy heading error. Its mean pulls the horizontal part
    # inward by cos(sigma_psi); its covariance cov_t has radial, tangential
    # and vertical eigenvalues r^2 [(1 - cos s)^2, sin^2 s, DELTA^2], s
    # clipped to pi/2, and falls back to DELTA^2 I on the vertical axis. At
    # q = 0 the surrogate is off and the term keeps its raw anchor.
    rr = np.hypot(p_dr[0], p_dr[1])
    ok = rr > 0.0
    rad = p_dr[:2] / np.where(ok, rr, 1.0)
    rr = rr ** 2
    lam_r, lam_t, floor = rr * k_r, rr * k_t, np.where(ok, 0.0, DELTA ** 2)
    rad2, rxy = rad * rad, rad[0] * rad[1]
    # Entries 00, 01, 11, 22 of [cov_p, cov_p + cov_t]; 02 and 12 are shared.
    pair = np.empty((4, 2) + rr.shape)
    for k, (cov, t) in enumerate((
            (c00, lam_r * rad2[0] + lam_t * rad2[1] + floor),
            (c01, lam_r * rxy - lam_t * rxy),
            (c11, lam_r * rad2[1] + lam_t * rad2[0] + floor),
            (c22, rr * DELTA ** 2 + floor))):
        pair[k, 0] = cov
        np.add(cov, t, out=pair[k, 1])
    del rr, ok, rad, lam_r, lam_t, floor, rad2, rxy, t
    p_dr[:2] *= np.where(q != 0.0, cos_psi, 1.0)

    # Position terms: the setpoint backs off from the measurement along the
    # raw error a by sigma q, sigma the standard deviation of a reduced
    # along itself, so y = a (1 + q / m) with m the Mahalanobis norm of a.
    # The clamp passes y iff m > -q. Both norms come from one closed-form
    # pass over the covariances [cov_p, cov_p + cov_t], on errors scaled to
    # unit max-norm so that tiny ones cannot underflow to m = 0 (at q = 0
    # every nonzero error must pass).
    a = np.empty((3, 2) + np.broadcast(m, p_dr).shape[1:])
    np.subtract(m, d, out=a[:, 0])
    np.subtract(m, p_dr, out=a[:, 1])
    unit = np.abs(a)
    scale = np.maximum(np.maximum(unit[0], unit[1]), unit[2])
    np.divide(a, np.where(scale > 0.0, scale, 1.0), out=unit)
    m_a = scale * np.sqrt(np.maximum(_inv_quad(
        unit, pair[0], pair[1], c02, pair[2], c12, pair[3]), 0.0))
    del pair, unit
    # q <= 0, so a passing m_a is > 0; the others divide by 1, not by a
    # norm small enough to overflow the quotient.
    passes = m_a > -q
    a *= np.where(passes, 1.0 + q / np.where(passes, m_a, 1.0), 0.0)
    return vectors(a[:, 0] + a[:, 1]), ang


def _bearing(m, d, zeta_d, c00, c01, c11, q):
    """Bearing term: rotate the measurement horizontally toward the desired
    bearing by sigma_beta |q|, sigma_beta the tangential standard deviation
    over the range, for the caller to clamp against the raw term. A rotation
    past the desired bearing flips the sign and the clamp zeroes it; so does
    a zero raw term, which covers degenerate horizontal projections."""
    r_m = np.hypot(m[0], m[1])
    okm = r_m > 0.0
    # The horizontal tangent is (-hy, hx), h the unit horizontal direction.
    hx, hy = m[:2] / np.where(okm, r_m, 1.0)
    var_tan = hy * (hy * c00 - 2.0 * hx * c01) + hx * hx * c11
    # hypot cannot underflow to zero where r_m > 0, but a subnormal range
    # overflows the turn to inf: its cosine is nan, and the clamp zeroes
    # the term as it does a turn past the desired bearing.
    dist = np.where(okm, np.hypot(r_m, m[2]), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        turn_by = np.sqrt(np.maximum(var_tan, 0.0)) * -q / dist
        theta = np.sign(wrap_angle(zeta_d - np.arctan2(m[1], m[0]))) * turn_by
        p_turn = turn(m, theta)
        return d[0] * p_turn[1] - d[1] * p_turn[0]


def _inv_quad(u, a00, a01, a02, a11, a12, a22):
    """u^T A^-1 u for u as planes (3, ...) and symmetric 3x3 A given by its
    upper triangle (entries broadcast to the planes): six cofactors over the
    determinant, one value per matrix. LinAlgError unless det is finite > 0."""
    c00 = a11 * a22 - a12 * a12
    c01 = a12 * a02 - a01 * a22
    c02 = a01 * a12 - a11 * a02
    det = a00 * c00 + a01 * c01 + a02 * c02
    if det.size and not 0.0 < det.min() <= det.max() < np.inf:
        raise np.linalg.LinAlgError(
            "position covariance is singular or not finite")
    u0, u1, u2 = u[0], u[1], u[2]
    # Off-diagonal cofactors enter the form twice; the sum builds in place.
    form = u0 * (c00 * u0 + c01 * (2.0 * u1) + c02 * (2.0 * u2))
    del c00, c01, c02
    form += u1 * ((a00 * a22 - a02 * a02) * u1
                  + (a01 * a02 - a00 * a12) * (2.0 * u2))
    form += u2 * u2 * (a00 * a11 - a01 * a01)
    form /= det
    return form


def _clamp(y, a):
    """Dead-zone clamp of scalars: y where 0 < y a <= a^2, else 0.0.

    Decided by sign and magnitude, so tiny values cannot underflow the
    product.
    """
    return np.where((np.sign(y) * np.sign(a) > 0.0)
                    & (np.abs(y) <= np.abs(a)), y, 0.0)


def agent_commands(index, pos_terms, ang_terms, n: int,
                   cfg: ControllerConfig, dt: float):
    """u (n, 3), omega (n,): the edge terms (..., E, 3), (..., E) summed per
    observer, scaled by k_e, the heading rate capped at omega_cap / dt. One
    bincount adds the terms into +0.0 in edge order, each at its slot index
    (4, ..., E) = obs_i + plane * n of the (4, n) table of x, y, z and
    heading sums, obs_i (..., E) the edges' observers; u is a view."""
    sums = np.bincount(np.ravel(index), weights=np.concatenate(
        (planes(pos_terms), ang_terms[None])).ravel(), minlength=4 * n)
    sums = sums.reshape(4, n) * cfg.k_e
    cap = cfg.omega_cap / dt
    return vectors(sums[:3]), np.minimum(np.maximum(sums[3], -cap), cap)
