"""Rigidity matrices and stability audits of the formation gradient flow.

The stacked relative-pose map kappa takes all agent world poses to the
stacked observed relative poses (4 rows per directed edge, edges in
lexicographic order). Its Jacobian H is the rigidity matrix; k_e H^T applied
to the formation error is the gradient-descent action the per-agent
controller realizes. This module builds H in the world frame and in the
observers' local frames, evaluates M = H H^T and its leading principal
minors for positive-definiteness audits, assembles M blockwise from
closed-form 4x4 edge-pair blocks, and evaluates the Lyapunov decay rate
-2 k_e e^T M e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (SKEW_Z, pose_arrays, relative_poses, rotate_z, rotz,
                   rotz_deriv, wrap_angle)
from .graphs import ObservationGraph


@dataclass(frozen=True)
class RigidityMatrix:
    """Dense (4E x 4N) Jacobian with its row-band edge ordering."""

    matrix: np.ndarray
    edges: tuple


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


def rigidity_world(poses, graph: ObservationGraph) -> RigidityMatrix:
    """Jacobian of kappa with respect to world-frame pose perturbations.

    Edge (i, j) band: -R(psi_i)^T on p_i, dR(psi_i)/dpsi^T (p_j - p_i) on
    psi_i, R(psi_i)^T on p_j; heading row carries -1 and +1.
    """
    edges = tuple(graph.sorted_edges())
    h = np.zeros((4 * len(edges), 4 * graph.n))
    for band, edge in enumerate(edges):
        r = 4 * band
        for v, (pos, w, hv) in _edge_vertex_blocks(edge, poses).items():
            h[r:r + 3, 4 * v:4 * v + 3] = pos
            h[r:r + 3, 4 * v + 3] = w
            h[r + 3, 4 * v + 3] = hv
    return RigidityMatrix(h, edges)


def rigidity_local(poses, graph: ObservationGraph) -> RigidityMatrix:
    """Jacobian with respect to body-frame pose perturbations.

    Edge band of (i, j) with relative pose (p_ij, psi_ij): -I3 on the
    observer position, S^T p_ij on the observer heading, R(psi_ij) on the
    observed position (the observed agent's motion is expressed in its own
    body frame); heading row -1/+1. Every band is scattered at once.
    """
    obs_i, obs_j = graph.edge_index()
    p_rel, psi_rel = _kappa(poses, graph)
    band = np.arange(len(obs_i))
    h = np.zeros((len(band), 4, graph.n, 4))
    h[band, :3, obs_i, :3] = -np.eye(3)
    h[band, :3, obs_i, 3] = p_rel @ SKEW_Z  # rows (S^T p_ij)^T
    # rotate_z of the basis vectors gives the columns of R(psi_ij)
    h[band, :3, obs_j, :3] = np.swapaxes(
        rotate_z(np.eye(3), psi_rel[:, None]), 1, 2)
    h[band, 3, obs_i, 3] = -1.0
    h[band, 3, obs_j, 3] = 1.0
    return RigidityMatrix(h.reshape(4 * len(band), 4 * graph.n),
                          tuple(graph.sorted_edges()))


def stacked_local_action(poses, desired, graph: ObservationGraph,
                         k_e: float) -> np.ndarray:
    """Gradient action k_e H_local^T e, reshaped to (N, 4) body-frame rates."""
    h = rigidity_local(poses, graph)
    err = formation_error_stack(poses, desired, graph)
    return (k_e * h.matrix.T @ err).reshape(-1, 4)


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
    np.add.at(out, obs_j, -np.column_stack([rotate_z(dp, -psi_ij), dpsi]))
    return k_e * out


def m_matrix(poses, graph: ObservationGraph) -> np.ndarray:
    """M = H_world H_world^T, the error-dynamics matrix of the flow."""
    h = rigidity_world(poses, graph).matrix
    return h @ h.T


def is_positive_definite_minors(a: np.ndarray):
    """(verdict, minors): PD iff every leading principal minor is positive."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(float(np.abs(a).max()), 1.0)
    if np.abs(a - a.T).max() > 1e-9 * scale:
        raise ValueError("matrix must be symmetric")
    minors = [float(np.linalg.det(a[:k, :k])) for k in range(1, n + 1)]
    return all(m > 0.0 for m in minors), minors


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


def _edge_vertex_blocks(edge, poses):
    """Per-vertex column blocks of one world-frame edge band.

    Returns {vertex: (P, w, h)} with P the 3x3 position block, w the 3-vector
    heading column and h the heading-row entry of that vertex.
    """
    i, j = edge
    p_w = poses[j].p - poses[i].p
    rot_t = rotz(poses[i].psi).T
    return {
        i: (-rot_t, rotz_deriv(poses[i].psi).T @ p_w, -1.0),
        j: (rot_t, np.zeros(3), 1.0),
    }


def e_ab_block(edge_a, edge_b, poses) -> np.ndarray:
    """Closed-form 4x4 block of M for one ordered edge pair.

    Zero when the edges share no vertex. Two edges into a shared vertex give
    a pure rotation block (the identity once headings agree); a repeated
    edge gives the single-edge form; tail-sharing and opposite-direction
    pairs mix the heading columns of both observers. Assembling every block
    reproduces M = H H^T without constructing H.
    """
    blocks_a = _edge_vertex_blocks(tuple(edge_a), poses)
    blocks_b = _edge_vertex_blocks(tuple(edge_b), poses)
    shared = set(blocks_a) & set(blocks_b)
    out = np.zeros((4, 4))
    for v in shared:
        pa, wa, ha = blocks_a[v]
        pb, wb, hb = blocks_b[v]
        out[:3, :3] += pa @ pb.T + np.outer(wa, wb)
        out[:3, 3] += wa * hb
        out[3, :3] += ha * wb
        out[3, 3] += ha * hb
    return out


def assemble_m_blockwise(graph: ObservationGraph, poses) -> np.ndarray:
    """M assembled from e_ab_block over all ordered edge pairs."""
    edges = graph.sorted_edges()
    m = np.zeros((4 * len(edges), 4 * len(edges)))
    for a, ea in enumerate(edges):
        for b, eb in enumerate(edges):
            m[4 * a:4 * a + 4, 4 * b:4 * b + 4] = e_ab_block(ea, eb, poses)
    return m


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
