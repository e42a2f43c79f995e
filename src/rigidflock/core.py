"""Shared geometric and statistical primitives.

Wrapped angles on the half-open interval (-pi, pi], planar z-axis rotations,
agent/relative pose containers, the stacked relative-pose map, covariance
validation, and the standard normal CDF and its inverse. Everything here is
pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

TAU = 2.0 * math.pi

# Rotation generator about z: S = dR(psi)/dpsi at psi = 0.
SKEW_Z = np.array([[0.0, -1.0, 0.0],
                   [1.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0]])


def wrap_angle(theta):
    """Wrap an angle (scalar or array) onto (-pi, pi].

    The scalar path uses IEEE remainder, so ``wrap(a) - a`` is an exact
    integer multiple of 2*pi. The boundary maps as wrap(-pi) = +pi.
    """
    if np.isscalar(theta) or isinstance(theta, (float, int)):
        t = float(theta)
        if not math.isfinite(t):
            raise ValueError(f"angle must be finite, got {t!r}")
        w = math.remainder(t, TAU)
        if w <= -math.pi:
            w += TAU
        return w
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("angle array must be finite")
    return math.pi - np.mod(math.pi - arr, TAU)


def rotate_z(v, psi):
    """Rotate (..., 3) vectors about the z axis by angles psi (...)."""
    v = np.asarray(v, dtype=float)
    c, s = np.cos(psi), np.sin(psi)
    x = c * v[..., 0] - s * v[..., 1]
    y = s * v[..., 0] + c * v[..., 1]
    return np.stack([x, y, np.broadcast_to(v[..., 2], x.shape)], axis=-1)


def rotz(psi: float) -> np.ndarray:
    """3x3 rotation about the world z axis by angle psi."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotz_deriv(psi: float) -> np.ndarray:
    """Derivative of rotz with respect to psi; equals SKEW_Z @ rotz(psi)."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class AgentPose:
    """World pose of one agent: position p (m) and heading psi (rad).

    The heading is the angle between the world x axis and the projection of
    the agent's forward axis onto the horizontal plane; it is wrapped onto
    (-pi, pi] at construction.
    """

    p: np.ndarray
    psi: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(3)
        if not np.all(np.isfinite(p)):
            raise ValueError("position must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "psi", wrap_angle(self.psi))


@dataclass(frozen=True)
class RelativePose:
    """Relative pose of an observed agent in the observer's body frame."""

    p_rel: np.ndarray
    psi_rel: float

    def __post_init__(self):
        p = np.asarray(self.p_rel, dtype=float).reshape(3)
        object.__setattr__(self, "p_rel", p)
        object.__setattr__(self, "psi_rel", wrap_angle(self.psi_rel))


def pose_arrays(poses):
    """(N, 3) positions and (N,) headings of a sequence of AgentPose."""
    return (np.array([q.p for q in poses], dtype=float).reshape(-1, 3),
            np.array([q.psi for q in poses], dtype=float))


def relative_poses(positions, headings, obs_i, obs_j):
    """The stacked relative-pose map kappa: agent obs_j[e] seen from obs_i[e].

    positions (..., N, 3) and headings (..., N) are world poses; leading
    axes broadcast, so one call covers a whole state history. Returns
    p_rel (..., E, 3) = R(psi_i)^T (p_j - p_i) and psi_rel (..., E) =
    wrap(psi_j - psi_i).
    """
    positions = np.asarray(positions, dtype=float)
    headings = np.asarray(headings, dtype=float)
    psi_i = headings[..., obs_i]
    p_rel = rotate_z(positions[..., obs_j, :] - positions[..., obs_i, :],
                     -psi_i)
    return p_rel, wrap_angle(headings[..., obs_j] - psi_i)


def relative_pose(q_i: AgentPose, q_j: AgentPose) -> RelativePose:
    """Relative pose of agent j as seen from agent i (one edge of kappa)."""
    p_rel, psi_rel = relative_poses(*pose_arrays((q_i, q_j)), [0], [1])
    return RelativePose(p_rel[0], psi_rel[0])


def ensure_covariance3(mat) -> np.ndarray:
    """Validate a 3x3 position covariance: symmetric, positive semidefinite.

    Returns a float64 copy. Symmetry is checked to 1e-12 relative to the
    matrix scale and eigenvalues may be as small as -1e-12 * trace.
    """
    m = np.asarray(mat, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"covariance must be 3x3, got shape {m.shape}")
    scale = max(float(np.abs(m).max()), 1.0)
    if not np.all(np.isfinite(m)):
        raise ValueError("covariance must be finite")
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise ValueError("covariance must be symmetric")
    tr = float(np.trace(m))
    evals = np.linalg.eigvalsh(0.5 * (m + m.T))
    if evals[0] < -1e-12 * max(tr, 1.0):
        raise ValueError(f"covariance must be positive semidefinite, "
                         f"min eigenvalue {evals[0]:g}")
    return m.copy()


# --- standard normal distribution -------------------------------------------

def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate to ~1 ulp."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1); exactly 0.0 at p = 0.5."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p!r}")
    return float(ndtri(p))
