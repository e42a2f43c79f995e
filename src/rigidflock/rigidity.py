"""Rigidity matrices and stability audits of the formation gradient flow.

The stacked relative-pose map kappa takes all agent world poses to the
stacked observed relative poses (4 rows per directed edge, edges in
lexicographic order). Its Jacobian H is the rigidity matrix; k_e H^T applied
to the formation error is the gradient-descent action the per-agent
controller realizes. Every result here derives from one array of world-frame
edge bands (`_bands`): H_world as a (4E, 4N) array, H_local = H_world
blkdiag(R(psi_v), 1) by the chain rule, M = H H^T with its leading principal
minors for positive-definiteness audits, M assembled blockwise from the
bands' 4x4 edge-pair products, and the Lyapunov decay rate -2 k_e e^T M e.
The positive-definiteness audit takes M's leading principal minors from one
unpivoted LDL^T elimination pass; they run up to the first non-positive
one, so a list shorter than 4E means "not PD".

H vanishes on the four rigid motions (a common translation, and a common
yaw about world z), so rank H <= 4N - 4 and M, which is 4E x 4E, can be
positive definite only when E <= N - 1.
"""

from __future__ import annotations

import numpy as np

from .core import (SKEW_Z, planes, pose_arrays, relative_poses, turn,
                   vectors, wrap_angle)
from .graphs import ObservationGraph


def _kappa(poses, graph: ObservationGraph):
    """Relative poses (E, 3), (E,) of a pose sequence over sorted edges."""
    return relative_poses(*pose_arrays(poses), *graph.edge_index())


def kappa_stack(poses, graph: ObservationGraph) -> np.ndarray:
    """Stacked relative poses [p_ij; psi_ij] over sorted edges."""
    p_rel, psi_rel = _kappa(poses, graph)
    return np.column_stack([p_rel, psi_rel]).ravel()


def formation_error_stack(poses, desired, graph: ObservationGraph
                          ) -> np.ndarray:
    """Stacked error kappa(desired) - kappa(current), headings wrapped."""
    err = (kappa_stack(desired, graph) - kappa_stack(poses, graph)
           ).reshape(-1, 4)
    err[:, 3] = wrap_angle(err[:, 3])
    return err.ravel()


def _rotations(psi: np.ndarray) -> np.ndarray:
    """R(psi) about z, (n, 3, 3) for angles (n,)."""
    # turn of the basis vectors' planes gives R(psi) with the rows first
    return turn(np.eye(3), psi[:, None]).swapaxes(0, 1)


def _bands(poses, graph: ObservationGraph):
    """obs_i, obs_j and the world-frame edge bands as (E, 2, 4, 4) blocks.

    blocks[e, 0] holds band e's columns of its observer i, blocks[e, 1]
    those of its observed agent j: -R(psi_i)^T and +R(psi_i)^T on the
    positions, a heading row of -1 and +1, and S^T p_ij on the observer
    heading.
    """
    positions, headings = pose_arrays(poses)
    obs_i, obs_j = graph.edge_index()
    p_rel, _ = relative_poses(positions, headings, obs_i, obs_j)
    rot_t = _rotations(-headings[obs_i])
    blocks = np.zeros((len(obs_i), 2, 4, 4))
    blocks[:, 0, :3, :3] = -rot_t
    blocks[:, 1, :3, :3] = rot_t
    blocks[:, 0, :3, 3] = p_rel @ SKEW_Z  # rows (S^T p_ij)^T
    blocks[:, :, 3, 3] = [-1.0, 1.0]
    return obs_i, obs_j, blocks


def rigidity_world(poses, graph: ObservationGraph) -> np.ndarray:
    """(4E, 4N) Jacobian of kappa for world-frame pose perturbations."""
    obs_i, obs_j, blocks = _bands(poses, graph)
    band = np.arange(len(obs_i))
    h = np.zeros((len(band), 4, graph.n, 4))
    h[band, :, obs_i] = blocks[:, 0]
    h[band, :, obs_j] = blocks[:, 1]
    return h.reshape(4 * len(band), 4 * graph.n)


def rigidity_local(poses, graph: ObservationGraph) -> np.ndarray:
    """(4E, 4N) Jacobian for body-frame pose perturbations.

    A body-frame step of agent v is R(psi_v) times a world-frame step, so
    H_local = H_world blkdiag(R(psi_v), 1).
    """
    _, headings = pose_arrays(poses)
    v = np.arange(graph.n)
    frames = np.zeros((graph.n, 4, graph.n, 4))
    frames[v, :3, v, :3] = _rotations(headings)
    frames[v, 3, v, 3] = 1.0
    return rigidity_world(poses, graph) @ frames.reshape(4 * graph.n, -1)


def stacked_local_action(poses, desired, graph: ObservationGraph,
                         k_e: float) -> np.ndarray:
    """Gradient action k_e H_local^T e, reshaped to (N, 4) body-frame rates."""
    h = rigidity_local(poses, graph)
    err = formation_error_stack(poses, desired, graph)
    return (k_e * h.T @ err).reshape(-1, 4)


def fec_raw_commands(poses, desired, graph: ObservationGraph,
                     k_e: float) -> np.ndarray:
    """Per-agent closed-form action using both edge directions.

    Each edge (i, j) pushes its observer with the raw position error and its
    observed agent with the rotated, negated error; the heading rate
    collects -p_ij^T S (p_ij - p_ij^d) on the observer plus the heading
    error with the sign of each endpoint. Returns (N, 4) rows
    [u_i, omega_i] in body frames.
    """
    obs_i, obs_j = graph.edge_index()
    p_ij, psi_ij = _kappa(poses, graph)
    p_d, psi_d = _kappa(desired, graph)
    dp = p_ij - p_d
    dpsi = wrap_angle(psi_ij - psi_d)
    out = np.zeros((graph.n, 4))
    np.add.at(out, obs_i, np.column_stack([
        dp, -np.einsum("ei,ij,ej->e", p_ij, SKEW_Z, dp) + dpsi]))
    np.add.at(out, obs_j, -np.column_stack([
        vectors(turn(planes(dp), -psi_ij)), dpsi]))
    return k_e * out


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
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(float(np.abs(a).max()), 1.0)
    if np.abs(a - a.T).max() > 1e-9 * scale:
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
    """M from its 4x4 edge-pair blocks, without forming H.

    Block (a, b) is the sum over the vertices v that edges a and b share of
    B_a,v B_b,v^T: zero for disjoint edges, the single-edge form on the
    diagonal. All pairs are one einsum over the shared-vertex mask.
    """
    obs_i, obs_j, blocks = _bands(poses, graph)
    ends = np.stack([obs_i, obs_j], axis=1)
    shared = ends[:, :, None, None] == ends[None, None]
    m = np.einsum("asbt,asij,btkj->aibk", shared, blocks, blocks)
    return m.reshape(4 * len(ends), 4 * len(ends))


def lyapunov_rate(poses, graph: ObservationGraph, e_f: np.ndarray,
                  k_e: float) -> float:
    """Decay rate of V = e^T e under the gradient flow: -2 k_e e^T M e."""
    m = m_matrix(poses, graph)
    e_f = np.asarray(e_f, dtype=float).ravel()
    return float(-2.0 * k_e * e_f @ m @ e_f)


def gradient_consistency_residual(poses, desired, graph: ObservationGraph,
                                  k_e: float = 0.5) -> float:
    """Max |stacked action - per-agent closed form| over all agents."""
    stacked = stacked_local_action(poses, desired, graph, k_e)
    raw = fec_raw_commands(poses, desired, graph, k_e)
    return float(np.abs(stacked - raw).max())
