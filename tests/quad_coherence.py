"""Expected coherence time by adaptive quadrature, as a test oracle.

The package sums the integrand on a fixed uniform grid
(``rigidflock.oned.expected_coherence_time``). This module keeps the
adaptive form it replaced, scipy's ``quad`` on +-8 sigma_ss with absolute
tolerance 1e-6, so the tests can hold the grid sum against it.
"""

import math

from scipy.integrate import quad

from rigidflock.oned import motion_probability, sigma_ss_restrained


def quad_coherence_time(cfg):
    """Reciprocal motion probability against the restrained steady-state
    Gaussian, integrated adaptively."""
    s_ss = sigma_ss_restrained(cfg)
    norm = 1.0 / (s_ss * math.sqrt(2.0 * math.pi))

    def integrand(z):
        return (norm * math.exp(-0.5 * (z / s_ss) ** 2)
                / motion_probability(z, cfg.sigma_m, cfg.ell))

    val, err = quad(integrand, -8.0 * s_ss, 8.0 * s_ss, epsabs=1e-6,
                    limit=200)
    assert err <= 1e-4 * max(abs(val), 1.0)
    return val
