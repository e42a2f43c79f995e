"""Synthetic relative-pose measurement noise.

Models a vision-style relative localization sensor: range noise proportional
to distance, fixed angular noise on the bearing, fixed heading noise. The
position covariance is built with one radial eigenvalue (range) and two
equal tangential eigenvalues (bearing), so the ellipsoid elongates along the
line of sight. The controller receives exactly the covariance used to draw
the sample; no estimation error is modeled.

The model is three array calls: ``perturb`` turns true relative poses and
standard normals into measurements, ``covariance_sigmas`` gives the floored
radial and tangential sigmas at a range, and ``position_covariance`` the
covariance they span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import DELTA
from .core import check_fields, planes, vectors


@dataclass(frozen=True)
class SensorSpec:
    """Noise magnitudes and measurement rate.

    dist_frac_sigma: range noise as a fraction of the true distance.
    bearing_sigma:   angular noise of the direction (radians).
    heading_sigma:   relative heading noise (radians).
    rate_hz:         measurements per second.
    """

    dist_frac_sigma: float = 0.10
    bearing_sigma: float = 0.03
    heading_sigma: float = 0.26
    rate_hz: float = 10.0

    def __post_init__(self):
        check_fields(self)
        if min(self.dist_frac_sigma, self.bearing_sigma,
               self.heading_sigma) < 0.0:
            raise ValueError("noise magnitudes must be >= 0")
        if self.rate_hz <= 0.0:
            raise ValueError("rate_hz must be positive")


def covariance_sigmas(distance, spec: SensorSpec):
    """(radial, tangential) standard deviations at a given range, floored."""
    return (np.maximum(spec.dist_frac_sigma * distance, DELTA),
            np.maximum(spec.bearing_sigma * distance, DELTA))


def position_covariance(r_hat, s_r, s_t):
    """C = s_t^2 (I - r r^T) + s_r^2 r r^T for radial unit vectors (..., 3)
    as its upper-triangle entries (c00, c01, c02, c11, c12, c22), each (...);
    the sigmas broadcast. Off the diagonal, + 0.0 makes a zero +0.0."""
    x, y, z = planes(r_hat)
    t = np.square(s_t)
    d = np.square(s_r) - t
    return (t + d * (x * x), d * (x * y) + 0.0, d * (x * z) + 0.0,
            t + d * (y * y), d * (y * z) + 0.0, t + d * (z * z))


def perturb(p_rel, psi_rel, z, spec: SensorSpec):
    """Noisy relative poses from true ones and standard normals z (..., 4).

    The position moves by A z[..., :3], A the symmetric square root of the
    covariance at the raw (unfloored) sigmas, so zero noise stays exact; the
    heading moves by heading_sigma z[..., 3] and is left unwrapped. Returns
    (p_m, psi_m, distance, radial unit vector); the vectors are views of
    x, y, z planes (``core.vectors``).
    """
    v = planes(p_rel, z.ndim)
    sq = v * v
    dist = np.sqrt((sq[0] + sq[1]) + sq[2])  # the sum order of norm
    if not dist.all():
        raise ArithmeticError("two agents coincide; relative pose undefined")
    r = v / dist
    s_r = spec.dist_frac_sigma * dist
    s_t = spec.bearing_sigma * dist
    z_p = planes(z[..., :3], r.ndim)
    z_r = z_p * r
    z_r = (z_r[0] + z_r[2]) + z_r[1]  # the sum order of einsum
    p_m = (v + s_t * z_p) + (s_r - s_t) * z_r * r
    return (vectors(p_m), psi_rel + spec.heading_sigma * z[..., 3], dist,
            vectors(r))


def measurement_stream(master_seed: int, agent_id: int) -> np.random.Generator:
    """Independent, reproducible noise stream of one agent.

    Streams are keyed on (master_seed, agent_id) only, so two runs that
    share a seed see identical noise regardless of controller settings;
    parameter sweeps then compare controllers on the same realizations.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed,
                               spawn_key=(1, agent_id, 0)))


def init_stream(master_seed: int) -> np.random.Generator:
    """Stream for initial conditions, shared by all controller settings."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(0,)))
