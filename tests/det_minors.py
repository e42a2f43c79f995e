"""Leading principal minors by one determinant each, as a test oracle.

The package takes the minors from one LDL^T elimination pass
(``rigidflock.rigidity.is_positive_definite_minors``). This module keeps the
direct definition, one ``det`` per leading block, O(n^4) in all: the
property tests compare the elimination against it, and the audit tests run
the CLI with it in place of the elimination.
"""

import numpy as np


def det_minors(a):
    """(verdict, minors): PD iff every leading principal minor is positive."""
    a = np.asarray(a, dtype=float)
    minors = [float(np.linalg.det(a[:k, :k])) for k in range(1, len(a) + 1)]
    return all(m > 0.0 for m in minors), minors
