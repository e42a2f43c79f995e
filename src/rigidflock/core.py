"""Shared geometric and statistical primitives, all pure and stateless.

Wrapped angles on the half-open interval (-pi, pi], x, y, z planes of
vectors and their rotation about the z axis, the field check of every
config dataclass, the agent pose container, the stacked relative-pose map,
and the standard normal CDF and its inverse from the standard library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
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
    if isinstance(theta, np.ndarray) or not np.isscalar(theta):
        arr = np.asarray(theta, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("angle array must be finite")
        return math.pi - np.mod(math.pi - arr, TAU)
    t = float(theta)
    if not math.isfinite(t):
        raise ValueError(f"angle must be finite, got {t!r}")
    w = math.remainder(t, TAU)
    if w <= -math.pi:
        w += TAU
    return w


def turn(c, psi):
    """x, y, z planes c (3, ...) rotated about the z axis by angles psi
    (...), as planes; psi broadcasts against each plane."""
    cos, sin = np.cos(psi), np.sin(psi)
    x = cos * c[0] - sin * c[1]
    out = np.empty((3,) + x.shape)
    out[0], out[1], out[2] = x, sin * c[0] + cos * c[1], c[2]
    return out


def planes(v, ndim: int = 0):
    """The x, y, z planes (3, ..., E) of vectors (..., E, 3), each contiguous:
    a view of what vectors() returns, else a copy. Unit axes after the first
    pad them to ndim axes, so shared vectors broadcast against a batch's."""
    v = np.asarray(v, dtype=float)
    c = np.ascontiguousarray(v.transpose(_axes(v.ndim)[0]))
    pad = (1,) * (ndim - c.ndim)
    return c.reshape(c.shape[:1] + pad + c.shape[1:]) if pad else c


def vectors(c):
    """The vectors (..., E, 3) of planes c (3, ..., E), as a view."""
    return c.transpose(_axes(c.ndim)[1])


@functools.cache
def _axes(n: int):
    """Axis orders of planes() and vectors() for n axes."""
    return (n - 1, *range(n - 1)), (*range(1, n), 0)


def is_number(value) -> bool:
    """A Python or numpy real, not a bool, that is a finite double."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        return False


_KINDS = {"float": is_number, "str": lambda v: isinstance(v, str),
          "int": lambda v: isinstance(v, (int, np.integer))}


def check_fields(obj):
    """Raise ValueError naming the first float, int or str field of the
    dataclass obj that holds a bool or no finite number, integer or string."""
    for f in fields(obj):
        value, test = getattr(obj, f.name), _KINDS.get(f.type)
        if test and (isinstance(value, bool) or not test(value)):
            raise ValueError(f"{f.name} is not a valid {f.type}: {value!r}")


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
        check_fields(self)
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
    p_rel (..., E, 3) = R(psi_i)^T (p_j - p_i), a view of x, y, z planes
    (``vectors``), and psi_rel (..., E) = wrap(psi_j - psi_i).
    """
    headings = np.asarray(headings, dtype=float)
    psi_i = headings[..., obs_i]
    c = planes(positions)
    p_rel = turn(c[..., obs_j] - c[..., obs_i], -psi_i)
    return vectors(p_rel), wrap_angle(headings[..., obs_j] - psi_i)


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
