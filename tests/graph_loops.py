"""Per-vertex and per-edge graph queries, as test oracles.

The package answers its structural queries from the sorted (observer,
observed) index that an ``ObservationGraph`` builds once, with bincounts
and one fancy-indexed fill. This module keeps the loop forms they replaced:
degrees by a scan of the edge set per vertex, the passive-sink count vertex
by vertex and the Laplacian edge by edge. The tests hold the package to
them exactly.
"""

import numpy as np


def observations_by(g, i):
    """Out-degree of agent i: the agents it observes."""
    return sum(1 for a, _ in g.edges if a == i)


def observations_of(g, j):
    """In-degree of agent j: the agents that observe it."""
    return sum(1 for _, b in g.edges if b == j)


def count_passive_sinks(g):
    """Observed agents that observe nobody, one vertex at a time."""
    count = 0
    for v in range(g.n):
        if observations_of(g, v) >= 1 and observations_by(g, v) == 0:
            count += 1
    return count


def laplacian(g):
    """Unit-weight Laplacian of the undirected graph, one edge at a time."""
    lap = np.zeros((g.n, g.n))
    for i, j in {(min(e), max(e)) for e in g.edges}:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    return lap
