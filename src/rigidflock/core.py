"""Shared geometric and statistical primitives.

Wrapped angles on the half-open interval (-pi, pi], planar z-axis rotations,
the agent pose container, the stacked relative-pose map, and the standard
normal CDF and its inverse from the standard library. Everything here is
pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

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


# --- standard normal distribution -------------------------------------------

def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate to ~1 ulp."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1), by statistics.NormalDist
    (Wichura's AS241); exactly 0.0 at p = 0.5."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p!r}")
    return NormalDist().inv_cdf(p)
