"""Shared fixtures and finite-difference oracles for the test suite."""

from __future__ import annotations

import numpy as np

from spit.barrier import BarrierParams, barrier_value
from spit.dynamics import DynamicsState
from spit.geometry import LatticeBasis, PackingState, build_shift_set, contacts_within


def scan(state: PackingState, radius: float = 2.5):
    """`contacts_within(state, shifts, radius)`, the shift set built for `radius`."""
    return contacts_within(state, build_shift_set(state.basis, radius), radius)


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


def dense_hessian_x(state: PackingState, contacts, p: BarrierParams) -> np.ndarray:
    """Explicit position Hessian on `contacts` assembled contact-by-contact (test oracle).

    Uses the analytic per-contact blocks 4 phi'' r r^T plus 2 phi' times the
    two-point Laplacian block, independent of the HVP code path.
    """
    from spit.barrier import phi
    from spit.geometry import r_vectors, slack_values

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


def known_optimum_2d(N: int, delta: float) -> float:
    """V* = N 2 sqrt(3) ((4 + delta) / 4): N triangular-lattice disks at slack delta,
    the least cell volume any 2-D packing of N disks can reach (Thue; Fejes Toth)."""
    return N * 2.0 * np.sqrt(3.0) * ((4.0 + delta) / 4.0)


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


def gauge_eigs(H: np.ndarray, N: int, n: int, joint: bool = False) -> np.ndarray:
    """Eigenvalues of a position (or joint) Hessian on the gauge subspace, ascending,
    by explicit projection onto `gauge_basis` (test oracle)."""
    Q = gauge_basis(N, n)
    if joint:
        Q = np.block([[Q, np.zeros((N * n, n * n))],
                      [np.zeros((n * n, Q.shape[1])), np.eye(n * n)]])
    return np.linalg.eigvalsh(Q.T @ H @ Q)


def majorizer_gap(H: np.ndarray, N: int, n: int, w_x: float, W_B: tuple) -> float:
    """Least eigenvalue of diag(w_x I, W_B) - H on the joint gauge subspace, H a
    joint Hessian (test oracle): nonnegative when the weight majorizes H there.
    W_B = V diag(d) V^T is given as its eigenpairs (d, V), as the projection takes it."""
    d, V = W_B
    M = -H
    M[:N * n, :N * n] += w_x * np.eye(N * n)
    M[N * n:, N * n:] += (V * d) @ V.T
    return float(gauge_eigs(M, N, n, joint=True)[0])


# -- reference kernels -------------------------------------------------------
# The assembly the hot-path kernels replaced, kept verbatim as bit-identity
# oracles: the rewritten kernels must reproduce them with np.array_equal.

def ref_gauge_project(x: np.ndarray) -> np.ndarray:
    """`geometry.gauge_project` by `np.mean`."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x
    m = x.mean(axis=0)
    scale = max(1.0, float(np.max(np.abs(x))))
    if float(np.max(np.abs(m))) <= 64.0 * np.finfo(float).eps * scale:
        return x
    return x - m


def ref_slack_gradient(state: PackingState, contacts, r: np.ndarray, w: np.ndarray):
    """`geometry.slack_gradient` by `np.add.at` and `np.subtract.at`."""
    gx = np.zeros_like(state.x)
    coeff = (2.0 * w)[:, None] * r
    np.add.at(gx, contacts.i, coeff)
    np.subtract.at(gx, contacts.j, coeff)
    return gx, -2.0 * np.einsum("m,ma,mb->ab", w, r, contacts.z.astype(float))


def ref_barrier_energy(state: PackingState, contacts, p: BarrierParams):
    """(value, grad_x, grad_B, slack) of `barrier.barrier_energy` through `phi`."""
    from spit.barrier import phi
    from spit.geometry import r_vectors

    r = r_vectors(state, contacts)
    s = np.einsum("mk,mk->m", r, r) - 4.0
    val, d1, _ = phi(s, p)
    gx, gB = ref_slack_gradient(state, contacts, r, np.atleast_1d(d1))
    return float(np.sum(val)), gx, gB, s


def ref_hessian(state: PackingState, contacts, p: BarrierParams, joint: bool = False):
    """`barrier.hessian` by four `np.add.at` passes; with `joint`, two more and the
    basis block give the dense matrix of `barrier.hvp_joint` (test oracle)."""
    from spit.barrier import phi
    from spit.geometry import r_vectors

    N, n = state.x.shape
    D = N * n + (n * n if joint else 0)
    H = np.zeros((D, D))
    r = r_vectors(state, contacts)
    _, d1, d2 = phi(np.einsum("mk,mk->m", r, r) - 4.0, p)
    d1, d2 = np.atleast_1d(d1), np.atleast_1d(d2)
    K = (4.0 * d2)[:, None, None] * r[:, :, None] * r[:, None, :] \
        + (2.0 * d1)[:, None, None] * np.eye(n)
    pair = contacts.i != contacts.j
    i, j, Kp, all_ = contacts.i[pair], contacts.j[pair], K[pair], slice(None)
    Hx = np.zeros((N, n, N, n))
    np.add.at(Hx, (i, all_, i, all_), Kp)
    np.add.at(Hx, (j, all_, j, all_), Kp)
    np.subtract.at(Hx, (i, all_, j, all_), Kp)
    np.subtract.at(Hx, (j, all_, i, all_), Kp)
    H[:N * n, :N * n] = Hx.reshape(N * n, N * n)
    if joint:
        zf = contacts.z.astype(float)
        Kz = Kp[:, :, :, None] * zf[pair][:, None, None, :]
        C = np.zeros((N, n, n, n))
        np.subtract.at(C, i, Kz)
        np.add.at(C, j, Kz)
        H[:N * n, N * n:] = C.reshape(N * n, n * n)
        H[N * n:, :N * n] = H[:N * n, N * n:].T
        H[N * n:, N * n:] = np.einsum("mac,mb,md->abcd", K, zf, zf).reshape(n * n, n * n)
    return H


def ref_degrees(N: int, contacts) -> np.ndarray:
    """`spectral.build_contact_graph`'s vertex degrees by `np.add.at`."""
    degrees = np.zeros(N, dtype=np.int64)
    pair = contacts.i != contacts.j
    np.add.at(degrees, contacts.i[pair], 1)
    np.add.at(degrees, contacts.j[pair], 1)
    return degrees


def ref_laplacian(N: int, edges: np.ndarray) -> np.ndarray:
    """`spectral.laplacian` by `np.add.at` and `np.subtract.at`."""
    L = np.zeros((N, N))
    i, j = edges
    np.add.at(L, (i, i), 1.0)
    np.add.at(L, (j, j), 1.0)
    np.subtract.at(L, (i, j), 1.0)
    np.subtract.at(L, (j, i), 1.0)
    return L


def ref_lift_mode(state: PackingState, graph, v: np.ndarray) -> np.ndarray:
    """`spectral.lift_mode` by `np.add.at`."""
    from spit.geometry import gauge_project

    out = np.zeros_like(state.x)
    i, j = graph.pair_edges
    contrib = -(v[i] - v[j])[:, None] * graph.normals[~graph.loop_mask]
    np.add.at(out, i, contrib)
    np.add.at(out, j, contrib)
    out /= np.maximum(graph.degrees, 1).astype(float)[:, None]
    out[graph.degrees == 0] = 0.0
    return gauge_project(out)


def ref_contact_rows(state: PackingState, contacts, r: np.ndarray, c=None) -> np.ndarray:
    """`geometry.contact_rows` by fancy-indexed `+=` and `-=` per axis."""
    N, n = state.x.shape
    m = len(contacts)
    A = np.zeros((m, N * n + (n * n if c is not None else 0)))
    rows = np.arange(m)
    for axis in range(n):
        A[rows, contacts.i * n + axis] += r[:, axis]
        A[rows, contacts.j * n + axis] -= r[:, axis]
    if c is not None:
        A[:, N * n:] = -np.einsum("ma,mb->mab", r, c).reshape(m, n * n)
    return A


def ref_gauge_spectrum(H: np.ndarray, N: int, n: int):
    """`barrier._gauge_spectrum` with `np.linalg.norm` and a fresh translation basis."""
    D = H.shape[0]
    s = float(np.linalg.norm(H)) + 1.0
    T = np.zeros((D, n))
    for a in range(n):
        T[a:N * n:n, a] = 1.0 / np.sqrt(N)
    w = np.linalg.eigvalsh(H + s * (T @ T.T))
    return w[:D - n], D * float(np.finfo(float).eps) * (2.0 * s - 1.0)


def ref_is_periodically_rigid(state: PackingState, active, rank_tol: float = 1e-8):
    """`rigidity.is_periodically_rigid` as a kernel SVD of the motion operator,
    then a quotient SVD after projecting the trivial motions out of the kernel.
    Returns (rigid, nontrivial_dim, basis)."""
    from spit.rigidity import motion_operator, trivial_motion_basis

    N, n = state.x.shape
    dim = N * n + n * n
    T = trivial_motion_basis(state)
    if len(active) == 0:
        null = np.eye(dim)
    else:
        M = motion_operator(state, active)
        _, svals, Vt = np.linalg.svd(M, full_matrices=True)
        smax = svals[0] if svals.size else 0.0
        rank = int(np.sum(svals > rank_tol * max(smax, 1e-300)))
        null = Vt[rank:].T
    # project rigid-body motions out of the kernel
    W = null - T @ (T.T @ null)
    if W.shape[1]:
        U, ws, _ = np.linalg.svd(W, full_matrices=False)
        keep = ws > rank_tol * max(1.0, ws[0] if ws.size else 1.0)
        basis = U[:, keep]
    else:
        basis = W
    k = basis.shape[1]
    return k == 0, k, basis


def members_within(state: PackingState, shifts, members, radius: float):
    """The rows of `members` that `contacts_within(state, shifts, radius)` finds,
    in the order of `members`, matched by (i, j, z)."""
    found = contacts_within(state, shifts, radius)
    keys = {found.index(k) for k in range(len(found))}
    return members.take(np.array([members.index(k) in keys for k in range(len(members))],
                                 dtype=bool))


def ref_spectrum(state: PackingState, ev, shifts, eps: float, solved: dict):
    """`dynamics._spectrum` as it was with a contact graph every step, on the
    members a scan finds within 2 + eps, and the Fiedler pair from `fiedler`'s
    `eigh`: (graph, lambda2, vector)."""
    from spit.spectral import build_contact_graph, fiedler

    if ev.min_slack > (2.0 + eps) ** 2 - 4.0 + 1e-12:
        return None, 0.0, None
    graph = build_contact_graph(state, members_within(state, shifts, ev.contacts, 2.0 + eps))
    pair = ~graph.loop_mask
    if not pair.any():  # also every graph of one sphere
        return graph, 0.0, None
    edges = np.stack([graph.edges.i[pair], graph.edges.j[pair]])
    if not np.array_equal(edges, solved.get("edges")):
        lam2, vec = fiedler(graph)
        vec.flags.writeable = False
        solved.update(edges=edges, spectrum=(lam2, vec))
    return graph, *solved["spectrum"]
