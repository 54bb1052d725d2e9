"""Shared fixtures and finite-difference oracles for the test suite."""

from __future__ import annotations

import numpy as np

from spit.barrier import BarrierParams, barrier_value
from spit.dynamics import DynamicsState
from spit.geometry import LatticeBasis, PackingState, contacts_within


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def big_cell(n: int = 2, side: float = 50.0) -> LatticeBasis:
    return LatticeBasis(np.eye(n) * side)


def pair_state(dist: float, side: float = 50.0) -> PackingState:
    """Two spheres on the x-axis in a cell too large for image contacts."""
    x = np.array([[0.0, 0.0], [dist, 0.0]])
    return PackingState.make(x, big_cell(side=side))


def hex_single_sphere(scale: float = 1.0) -> PackingState:
    """One sphere per cell of the triangular contact lattice (6 self contacts)."""
    B = scale * np.array([[2.0, 1.0], [0.0, np.sqrt(3.0)]])
    return PackingState.make(np.zeros((1, 2)), LatticeBasis(B))


def square_single_sphere(scale: float = 1.0) -> PackingState:
    """One sphere per square cell at contact scale (4 axis contacts)."""
    return PackingState.make(np.zeros((1, 2)), LatticeBasis(np.eye(2) * 2.0 * scale))


def hex_two_sphere(inflate: float = 0.02) -> PackingState:
    """Rectangular two-sphere cell of the triangular lattice; strongly caged."""
    s = 1.0 + inflate
    B = np.diag([2.0 * s, 2.0 * np.sqrt(3.0) * s])
    x = np.array([[0.0, 0.0], [s, np.sqrt(3.0) * s]])
    return PackingState.make(x, LatticeBasis(B))


def sliding_column_state(spacing: float) -> PackingState:
    """Two vertical sphere columns that can shear past each other.

    Horizontal neighbor pairs sit at separation `spacing`; the vertical
    self-image contacts are basis-bound.  At the slack where the barrier
    force vanishes the shear direction is exactly flat.
    """
    B = np.diag([2.0 * spacing, spacing])
    x = np.array([[0.0, 0.0], [spacing, 0.0]])
    return PackingState.make(x, LatticeBasis(B))


def make_ds(state: PackingState, p: BarrierParams, L_hat: float,
            dt: float | None = None, eta_dt: float = 1.0,
            v: np.ndarray | None = None, x_prev: np.ndarray | None = None) -> DynamicsState:
    if dt is None:
        dt = 1.0 / np.sqrt(2.0 * L_hat)
    gamma = 1.0 / dt**2 - L_hat / 2.0
    return DynamicsState(
        packing=state,
        v=np.zeros_like(state.x) if v is None else np.asarray(v, dtype=float),
        x_prev=state.x.copy() if x_prev is None else np.asarray(x_prev, dtype=float),
        dt=float(dt), eta=float(eta_dt / dt), gamma=float(gamma))


def energy_of(ds: DynamicsState, p: BarrierParams, shifts, members=None) -> float:
    u = barrier_value(ds.packing, shifts, p, members=members)
    return u + 0.5 * float(np.sum(ds.v**2)) \
        + 0.5 * ds.gamma * float(np.sum((ds.packing.x - ds.x_prev) ** 2))


def dense_hessian_x(state: PackingState, shifts, p: BarrierParams, members=None) -> np.ndarray:
    """Explicit position Hessian assembled contact-by-contact (test oracle).

    Uses the analytic per-contact blocks 4 phi'' r r^T plus 2 phi' times the
    two-point Laplacian block, independent of the HVP code path.
    """
    from spit.barrier import phi
    from spit.geometry import r_vectors, slack_values

    contacts = members if members is not None else contacts_within(state, shifts, p.R)
    N, n = state.x.shape
    H = np.zeros((N * n, N * n))
    r = r_vectors(state, contacts)
    s = slack_values(state, contacts)
    for k in range(len(contacts)):
        i, j = int(contacts.i[k]), int(contacts.j[k])
        if i == j:
            continue
        _, d1, d2 = phi(float(s[k]), p)
        blk = 4.0 * d2 * np.outer(r[k], r[k]) + 2.0 * d1 * np.eye(n)
        sl_i = slice(i * n, (i + 1) * n)
        sl_j = slice(j * n, (j + 1) * n)
        H[sl_i, sl_i] += blk
        H[sl_j, sl_j] += blk
        H[sl_i, sl_j] -= blk
        H[sl_j, sl_i] -= blk
    return H


def gauge_basis(N: int, n: int) -> np.ndarray:
    """Orthonormal basis of mean-zero displacement fields, flattened."""
    cols = []
    for k in range(n):
        t = np.zeros((N, n))
        t[:, k] = 1.0 / np.sqrt(N)
        cols.append(t.ravel())
    T = np.stack(cols, axis=1)
    full = np.eye(N * n)
    proj = full - T @ (T.T @ full)
    q, r = np.linalg.qr(proj)
    keep = np.abs(np.diag(r)) > 1e-10
    return q[:, keep]
