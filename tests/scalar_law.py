"""Scalar reference form of the restrained control law, one edge at a time.

The package evaluates the law only through the array kernel
``rigidflock.control.edge_terms``. This module keeps the term-by-term scalar
construction of the same law (setpoints, Gaussian surrogate, bearing
rotation, dead-zone clamps) as an independent oracle: the hand-value tests
pin it, and the property tests compare the kernel against it. Its inputs
are one-edge records; ``stack`` turns a list of them into the kernel's
edge arrays.

It also keeps the vector forms that the package now evaluates on x, y, z
planes: the rotation matrix ``rotz``, the (..., 3) rotation ``rotate_z``,
``error_series``, the error series from vectors gathered per edge, and
``add_at_commands``, the per-observer sums by ``np.add.at``.
"""

import math
from typing import NamedTuple

import numpy as np

from rigidflock.control import DELTA
from rigidflock.core import pose_arrays, std_normal_quantile, wrap_angle
from rigidflock.sensors import (SensorSpec, covariance_sigmas,
                                position_covariance)


class Meas(NamedTuple):
    """One measured relative pose with its noise statistics."""

    p_m: np.ndarray
    psi_m: float
    cov_p: np.ndarray
    var_psi: float


class Des(NamedTuple):
    """One desired relative pose."""

    p_d: np.ndarray
    psi_d: float


UPPER = np.triu_indices(3)


def rotz(psi: float) -> np.ndarray:
    """3x3 rotation about the world z axis by angle psi."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotate_z(v, psi):
    """Rotate (..., 3) vectors about the z axis by angles psi (...), keeping
    v's memory layout unless psi adds axes: reductions sum in memory order,
    so callers' norms keep their bits only if the layout is kept."""
    v = np.asarray(v, dtype=float)
    c, s = np.cos(psi), np.sin(psi)
    x = c * v[..., 0] - s * v[..., 1]
    out = np.empty_like(v, shape=x.shape + (3,))
    out[..., 0], out[..., 1] = x, s * v[..., 0] + c * v[..., 1]
    out[..., 2] = v[..., 2]
    return out


def error_series(positions, headings, desired, graph):
    """(e_F, e_p, e_psi, disp_p, disp_psi) of states (..., N, 3), (..., N)
    in vector form: relative positions gathered as (..., E, 3) and rotated
    in that layout, residual norms by np.linalg.norm."""
    obs_i, obs_j = graph.edge_index()

    def kappa(pos, psi):
        pos, psi = np.asarray(pos, dtype=float), np.asarray(psi, dtype=float)
        psi_i = psi[..., obs_i]
        return (rotate_z(pos[..., obs_j, :] - pos[..., obs_i, :], -psi_i),
                wrap_angle(psi[..., obs_j] - psi_i))

    p_d, psi_d = kappa(*pose_arrays(desired))
    p_rel, psi_rel = kappa(positions, headings)
    dp = p_d - p_rel
    dpsi = wrap_angle(psi_d - psi_rel)
    disp_p = np.linalg.norm(dp, axis=(-2, -1))
    disp_psi = np.linalg.norm(dpsi, axis=-1)
    deg = np.bincount(obs_i, minlength=graph.n)
    weights = 1.0 / (deg[obs_i] * np.count_nonzero(deg))
    return (np.hypot(disp_p, disp_psi), np.linalg.norm(dp, axis=-1) @ weights,
            np.abs(dpsi) @ weights, disp_p, disp_psi)


def plane_index(obs_i, n):
    """The index (4, ..., E) of control.agent_commands for edges observed by
    obs_i (..., E) among n agents: obs_i + plane * n."""
    obs_i = np.asarray(obs_i)
    return obs_i + n * np.arange(4).reshape((4,) + (1,) * obs_i.ndim)


def add_at_commands(obs_i, pos_terms, ang_terms, n, cfg, dt):
    """control.agent_commands in vector form: the terms (..., E, 3), (..., E)
    added per observer obs_i (..., E) by np.add.at into zeroed (n, 3)
    velocities and (n,) heading rates, in edge order."""
    u = np.zeros((n, 3))
    omega = np.zeros(n)
    np.add.at(u, obs_i, pos_terms)
    np.add.at(omega, obs_i, ang_terms)
    cap = cfg.omega_cap / dt
    return cfg.k_e * u, np.minimum(np.maximum(cfg.k_e * omega, -cap), cap)


def full_matrix(entries) -> np.ndarray:
    """The symmetric (..., 3, 3) matrix of six upper-triangle entries
    (00, 01, 02, 11, 12, 22), each (...)."""
    entries = np.broadcast_arrays(*entries)
    out = np.empty(entries[0].shape + (3, 3))
    for value, i, j in zip(entries, *UPPER):
        out[..., i, j] = out[..., j, i] = value
    return out


def covariance_at(p_true, spec=SensorSpec()) -> np.ndarray:
    """The sensor's (3, 3) position covariance at a true relative
    position."""
    d = np.linalg.norm(p_true, axis=-1)
    return full_matrix(position_covariance(p_true / d,
                                           *covariance_sigmas(d, spec)))


def stack(pairs):
    """The kernel's edge arrays (p_m, psi_m, p_d, psi_d, cov_p, var_psi) of
    a list of (Meas, Des) pairs; cov_p as its six upper-triangle entries."""
    meas, des = zip(*pairs)
    cov = np.array([m.cov_p for m in meas])
    return (np.array([m.p_m for m in meas]), np.array([m.psi_m for m in meas]),
            np.array([d.p_d for d in des]), np.array([d.psi_d for d in des]),
            tuple(cov[:, i, j] for i, j in zip(*UPPER)),
            np.array([m.var_psi for m in meas]))


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


def _sign(x: float) -> float:
    # sign(0) := 0 so dead-center inputs produce a zero offset.
    return math.copysign(1.0, x) if x != 0.0 else 0.0


def _tau_psi1(p_d: np.ndarray, p_m: np.ndarray) -> float:
    """Bearing-coupled heading term p_d^T S^T p_m (z cross product)."""
    return p_d[0] * p_m[1] - p_d[1] * p_m[0]


def setpoint_p1(meas: Meas, des: Des, ell: float) -> np.ndarray:
    """Restrained target for the direct position term.

    The position error is reduced to a 1D Gaussian along the line from the
    desired to the measured relative position (Mahalanobis reduction), and
    the setpoint backs off from the measurement mean by sigma * Phi^-1(ell)
    along that line. Coincident measured and desired positions return the
    measurement itself.
    """
    diff = meas.p_m - des.p_d
    if not np.any(diff):
        return meas.p_m.copy()
    m2 = float(diff @ np.linalg.solve(meas.cov_p, diff))
    return meas.p_m + diff / math.sqrt(m2) * std_normal_quantile(ell)


def approx_rotated_desired(meas: Meas, des: Des):
    """Gaussian surrogate for the heading-rotated desired position.

    Rotating the desired relative position by a noisy heading difference
    yields a banana-shaped distribution on a horizontal circle. It is
    replaced by a Gaussian whose mean pulls the horizontal part inward by
    cos(sigma_psi) and whose covariance has radial, tangential and vertical
    eigenvalues r^2 * [(1 - cos s)^2, sin^2 s, DELTA^2], with s clipped to
    pi/2. Returns (mean, covariance). A desired position on the vertical
    axis has no tangent direction; the covariance falls back to DELTA^2 * I.
    """
    dpsi = wrap_angle(meas.psi_m - des.psi_d)
    p_dr = rotz(dpsi) @ des.p_d
    sigma_psi = math.sqrt(meas.var_psi)
    p_hat = p_dr.copy()
    p_hat[:2] *= math.cos(sigma_psi)

    r = math.hypot(p_dr[0], p_dr[1])
    if r == 0.0:
        return p_hat, DELTA ** 2 * np.eye(3)
    s_c = min(sigma_psi, 0.5 * math.pi)
    radial = np.array([p_dr[0] / r, p_dr[1] / r, 0.0])
    tangent = np.array([-radial[1], radial[0], 0.0])
    vertical = np.array([0.0, 0.0, 1.0])
    lam = r * r * np.array([(1.0 - math.cos(s_c)) ** 2,
                            math.sin(s_c) ** 2,
                            DELTA ** 2])
    cov_t = (lam[0] * np.outer(radial, radial)
             + lam[1] * np.outer(tangent, tangent)
             + lam[2] * np.outer(vertical, vertical))
    return p_hat, cov_t


def setpoint_p2(meas: Meas, des: Des, ell: float) -> np.ndarray:
    """Restrained target for the rotation-compensated position term.

    Same construction as ``setpoint_p1`` but measured against the Gaussian
    surrogate of the rotated desired position, under the combined covariance
    of measurement and surrogate.
    """
    p_hat, cov_t = approx_rotated_desired(meas, des)
    diff = meas.p_m - p_hat
    if not np.any(diff):
        return meas.p_m.copy()
    cov_c = meas.cov_p + cov_t
    m2 = float(diff @ np.linalg.solve(cov_c, diff))
    return meas.p_m + diff / math.sqrt(m2) * std_normal_quantile(ell)


def bearing_sigma(meas: Meas) -> float:
    """Approximate bearing standard deviation of a position measurement.

    The position covariance is rotated so the bearing axis aligns with x;
    the (2,2) element then holds the horizontal-tangential variance, and its
    square root over the measurement range approximates the angular spread.
    Valid when the range is large against the covariance axes.
    """
    norm = float(np.linalg.norm(meas.p_m))
    if norm == 0.0:
        raise ValueError("bearing of a zero-length measurement is undefined")
    beta = math.atan2(meas.p_m[1], meas.p_m[0])
    rot = rotz(-beta)
    c_r = rot @ meas.cov_p @ rot.T
    return math.sqrt(max(c_r[1, 1], 0.0)) / norm


def restrained_bearing_term(meas: Meas, des: Des, ell: float) -> float:
    """Pre-clamp replacement of the bearing-coupled heading term.

    The measured position is rotated horizontally toward the desired bearing
    by sigma_beta * |Phi^-1(ell)| (never past it; if the rotation overshoots,
    the sign flip makes the clamp zero the term). Degenerate horizontal
    projections contribute zero.
    """
    r_d = math.hypot(des.p_d[0], des.p_d[1])
    r_m = math.hypot(meas.p_m[0], meas.p_m[1])
    if r_d == 0.0 or r_m == 0.0:
        return 0.0
    zeta_d = math.atan2(des.p_d[1], des.p_d[0])
    zeta_m = math.atan2(meas.p_m[1], meas.p_m[0])
    sign = _sign(wrap_angle(zeta_d - zeta_m))
    theta = sign * bearing_sigma(meas) * (-std_normal_quantile(ell))
    return _tau_psi1(des.p_d, rotz(theta) @ meas.p_m)


def setpoint_psi2(meas: Meas, des: Des, ell: float) -> float:
    """Restrained target heading for the heading-consensus term."""
    err = wrap_angle(meas.psi_m - des.psi_d)
    offset = math.sqrt(meas.var_psi) * _sign(err) * std_normal_quantile(ell)
    return wrap_angle(meas.psi_m + offset)


def restrained_edge_terms(meas: Meas, des: Des, ell: float):
    """(position term, heading term) of one edge, before gain and cap.

    Each term is clamped against its raw proportional counterpart. At
    ell = 0.5 the quantile vanishes and the rotated-desired term keeps its
    raw anchor.
    """
    a1 = meas.p_m - des.p_d
    term1 = clamp_dz(setpoint_p1(meas, des, ell) - des.p_d, a1)
    if std_normal_quantile(ell) == 0.0:
        dpsi = wrap_angle(meas.psi_m - des.psi_d)
        term2 = meas.p_m - rotz(dpsi) @ des.p_d
    else:
        p_hat, _ = approx_rotated_desired(meas, des)
        term2 = clamp_dz(setpoint_p2(meas, des, ell) - p_hat,
                         meas.p_m - p_hat)
    raw = _tau_psi1(des.p_d, meas.p_m)
    term3 = clamp_dz(restrained_bearing_term(meas, des, ell), raw)
    a4 = wrap_angle(meas.psi_m - des.psi_d)
    y4 = wrap_angle(setpoint_psi2(meas, des, ell) - des.psi_d)
    return term1 + term2, term3 + 2.0 * clamp_dz(y4, a4)
