"""Rigidity matrices and stability audits of the formation gradient flow.

The stacked relative-pose map kappa takes all agent world poses to the
stacked observed relative poses (4 rows per directed edge, edges in
lexicographic order). Its Jacobian H is the rigidity matrix; k_e H^T applied
to the formation error is the gradient-descent action the per-agent
controller realizes. Every result here derives from H's per-vertex column
blocks C_v = H[:, 4v:4v+4], one (N, 4E, 4) array (`_columns`): H_world is
the (4E, 4N) matrix of them, H_local's blocks are C_v blkdiag(R(psi_v), 1)
by the chain rule, and M = H H^T, also assembled as the sum of C_v C_v^T,
with the Lyapunov decay rate -2 k_e e^T M e. The positive-definiteness
audit takes M's leading principal minors from one unpivoted LDL^T pass; they
run up to the first non-positive one, so fewer than 4E means "not PD".

H vanishes on the four rigid motions (a common translation, and a common
yaw about world z), so rank H <= 4N - 4 and M, which is 4E x 4E, can be
positive definite only when E <= N - 1.
"""

from __future__ import annotations

import numpy as np

from .core import (SKEW_Z, planes, pose_arrays, relative_poses, turn,
                   vectors, wrap_angle)
from .graphs import ObservationGraph

_SIGNS = np.array([-1.0, 1.0]).reshape(2, 1, 1, 1)  # observer, observed


def _kappa(poses, graph: ObservationGraph):
    """Headings (N,), then relative poses (E, 3), (E,) over sorted edges."""
    positions, headings = pose_arrays(poses)
    return headings, *relative_poses(positions, headings, *graph.edge_index())


def kappa_stack(poses, graph: ObservationGraph) -> np.ndarray:
    """Stacked relative poses [p_ij; psi_ij] over sorted edges."""
    return np.column_stack(_kappa(poses, graph)[1:]).ravel()


def _error(kappa, kappa_d) -> np.ndarray:
    """Stacked error kappa_d - kappa of _kappa results, headings wrapped."""
    return np.column_stack([kappa_d[1] - kappa[1],
                            wrap_angle(kappa_d[2] - kappa[2])]).ravel()


def formation_error_stack(poses, desired, graph: ObservationGraph
                          ) -> np.ndarray:
    """Stacked error kappa(desired) - kappa(current), headings wrapped."""
    return _error(_kappa(poses, graph), _kappa(desired, graph))


def _columns(kappa, graph: ObservationGraph):
    """H's column blocks C_v = H[:, 4v:4v+4] (N, 4E, 4) and the body frames
    blkdiag(R(psi_v), 1) (N, 4, 4), from one cos/sin of the headings.

    Band e = (i, j) holds R(psi_i)^T on the positions and +1 on the heading
    in C_j, and their negation in C_i, with S^T p_ij on i's heading column.
    """
    headings, p_rel, _ = kappa
    index = graph.edge_index()
    cos, sin = np.cos(headings), np.sin(headings)
    frames = np.zeros((graph.n, 4, 4))
    frames[:, 0, 0] = frames[:, 1, 1] = cos
    frames[:, 0, 1], frames[:, 1, 0] = -sin, sin
    frames[:, 2, 2] = frames[:, 3, 3] = 1.0
    pair = frames[index[0]].swapaxes(1, 2) * _SIGNS  # band e in C_i, C_j
    pair[0, :, :2, 3] = p_rel[:, 1::-1] * [1.0, -1.0]  # S^T p_ij
    cols = np.zeros((graph.n, index.shape[1], 4, 4))
    cols[index, np.arange(index.shape[1])] = pair
    return cols.reshape(graph.n, -1, 4), frames


def _matrix(cols) -> np.ndarray:
    """The (4E, 4N) matrix of column blocks (N, 4E, 4)."""
    return cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)


def rigidity_world(poses, graph: ObservationGraph) -> np.ndarray:
    """(4E, 4N) Jacobian of kappa for world-frame pose perturbations."""
    return _matrix(_columns(_kappa(poses, graph), graph)[0])


def rigidity_local(poses, graph: ObservationGraph) -> np.ndarray:
    """(4E, 4N) Jacobian for body-frame pose perturbations: a body-frame
    step of agent v is R(psi_v) times a world-frame step."""
    cols, frames = _columns(_kappa(poses, graph), graph)
    return _matrix(cols @ frames)


def _local_action(kappa, kappa_d, graph, k_e):
    cols, frames = _columns(kappa, graph)
    h = _matrix(cols @ frames)
    return (k_e * h.T @ _error(kappa, kappa_d)).reshape(-1, 4)


def stacked_local_action(poses, desired, graph: ObservationGraph,
                         k_e: float) -> np.ndarray:
    """Gradient action k_e H_local^T e, reshaped to (N, 4) body-frame rates."""
    return _local_action(_kappa(poses, graph), _kappa(desired, graph), graph,
                         k_e)


def _raw_commands(kappa, kappa_d, graph, k_e):
    _, p_ij, psi_ij = kappa
    dp = p_ij - kappa_d[1]
    dpsi = wrap_angle(psi_ij - kappa_d[2])
    terms = np.empty((2, len(dpsi), 4))  # the observers' rows, the observed's
    terms[0, :, :3], terms[1, :, :3] = dp, -vectors(turn(planes(dp), -psi_ij))
    terms[0, :, 3] = -np.einsum("ei,ij,ej->e", p_ij, SKEW_Z, dp) + dpsi
    terms[1, :, 3] = -dpsi
    # one bincount adds them in this order into +0.0, as two np.add.at did
    slots = 4 * graph.edge_index().reshape(-1, 1) + np.arange(4)
    return k_e * np.bincount(slots.ravel(), weights=terms.ravel(),
                             minlength=4 * graph.n).reshape(-1, 4)


def fec_raw_commands(poses, desired, graph: ObservationGraph,
                     k_e: float) -> np.ndarray:
    """Per-agent closed-form action using both edge directions: (N, 4) rows
    [u_i, omega_i] in body frames. Each edge (i, j) pushes its observer with
    the raw position error and its observed agent with the rotated, negated
    error; the heading rate collects -p_ij^T S (p_ij - p_ij^d) on the
    observer plus the heading error with the sign of each endpoint."""
    return _raw_commands(_kappa(poses, graph), _kappa(desired, graph), graph,
                         k_e)


def m_matrix(poses, graph: ObservationGraph) -> np.ndarray:
    """M = H_world H_world^T, the error-dynamics matrix of the flow."""
    h = rigidity_world(poses, graph)
    return h @ h.T


def is_positive_definite_minors(a: np.ndarray):
    """(verdict, minors) of a symmetric matrix from one LDL^T elimination.

    The pass is unpivoted and takes no square root: the k-th leading
    principal minor is the product of the first k pivots, and the matrix is
    positive definite iff every pivot is positive. It stops at the first
    pivot <= 0, so the minors run up to and including the first
    non-positive one: a list shorter than n means "not PD", and the verdict
    is true iff all n minors are positive. Each pivot column is the Schur
    complement column built from the earlier ones (left-looking), so a pass
    that stops at pivot k costs O(n k^2), and O(n^3) at most. An empty,
    non-square, non-symmetric or non-finite matrix raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n == 0:
        raise ValueError("matrix is empty")
    scale = max(float(a.max()), -float(a.min()))  # nan or inf iff an entry is
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if (a - a.T).max() > 1e-9 * max(scale, 1.0):  # max |.| of a - a^T
        raise ValueError("matrix must be symmetric")
    schur = np.empty((n, n))  # column j: pivot j times column j of L
    pivots = schur.diagonal()
    minors = []
    minor = 1.0
    for k in range(n):
        col = a[k:, k] - schur[k:, :k] @ (schur[k, :k] / pivots[:k])
        pivot = float(col[0])
        minor *= pivot
        minors.append(minor)
        if not pivot > 0.0:
            return False, minors
        schur[k:, k] = col
    return True, minors


def single_edge_m(p12_world) -> np.ndarray:
    """Closed-form M of a single observation edge at zero observer heading.

    [[2 + y^2, -x y,    0, -y],
     [-x y,    2 + x^2, 0,  x],
     [0,       0,       2,  0],
     [-y,      x,       0,  2]] for p12_world = (x, y, z). Its leading
    minors are 2 + y^2, 4 + 2x^2 + 2y^2, twice that, and 16 + 4x^2 + 4y^2,
    all positive for any relative position.
    """
    x, y = float(p12_world[0]), float(p12_world[1])
    return np.array([
        [2.0 + y * y, -x * y, 0.0, -y],
        [-x * y, 2.0 + x * x, 0.0, x],
        [0.0, 0.0, 2.0, 0.0],
        [-y, x, 0.0, 2.0],
    ])


def assemble_m_blockwise(graph: ObservationGraph, poses) -> np.ndarray:
    """M as the sum of C_v C_v^T over the rows of the bands at each v: block
    (a, b) sums 4x4 products over the vertices edges a and b share, zero for
    disjoint edges. No temporary is larger than M."""
    cols, _ = _columns(_kappa(poses, graph), graph)
    size = cols.shape[1]
    m = np.zeros(size * size)
    for c in cols:
        rows = np.flatnonzero(c.any(axis=1))  # the bands at v
        block = c[rows]
        m[(rows[:, None] * size + rows).ravel()] += (block @ block.T).ravel()
    return m.reshape(size, size)


def lyapunov_rate(poses, graph: ObservationGraph, e_f: np.ndarray,
                  k_e: float) -> float:
    """Decay rate of V = e^T e under the gradient flow: -2 k_e e^T M e."""
    m = m_matrix(poses, graph)
    e_f = np.asarray(e_f, dtype=float).ravel()
    return float(-2.0 * k_e * e_f @ m @ e_f)


def gradient_consistency_residual(poses, desired, graph: ObservationGraph,
                                  k_e: float = 0.5) -> float:
    """Max |stacked action - per-agent closed form| over all agents, both
    from one relative-pose pass per pose set."""
    args = _kappa(poses, graph), _kappa(desired, graph), graph, k_e
    return float(np.abs(_local_action(*args) - _raw_commands(*args)).max())
