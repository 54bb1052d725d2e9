"""Periodic infinitesimal rigidity, prestress certification, KKT residuals.

A periodic motion is a pair (u, A): vertex velocities plus a cell velocity
A = dB/dt B^{-1}.  Active contacts impose r^T (u_i - u_j - A t) = 0 in the
default "shift" convention (the cell term acts on the lattice shift t = B z),
which is the convention under which rigid-body motions are exactly in the
kernel.  A "literal" convention with the cell term acting on r itself is kept
behind a switch for comparison; rigid rotations then fail the kernel test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .barrier import BarrierParams, phi
from .geometry import (
    Contacts,
    PackingState,
    ShiftIndexSet,
    contact_rows,
    contacts_within,
    r_vectors,
    slack_values,
    volume_gradient,
)

_RANK_TOL = 1e-8  # singular values below this share of the largest count as zero


@dataclass(frozen=True)
class MotionVector:
    """Vertex velocities u (N, n) and cell velocity A (n, n)."""

    u: np.ndarray
    A: np.ndarray

    def flat(self) -> np.ndarray:
        return np.concatenate([self.u.ravel(), self.A.ravel()])

    @staticmethod
    def from_flat(vec: np.ndarray, N: int, n: int) -> "MotionVector":
        vec = np.asarray(vec, dtype=float)
        return MotionVector(u=vec[: N * n].reshape(N, n).copy(),
                            A=vec[N * n:].reshape(n, n).copy())


def active_set(state: PackingState, shifts: ShiftIndexSet, tol_active: float) -> Contacts:
    """Contacts with |slack| at most tol_active (separation within tol of 2)."""
    near = contacts_within(state, shifts, shifts.R)
    s = slack_values(state, near)
    return near.take(np.abs(s) <= tol_active)


def _cell_term(state: PackingState, active: Contacts, convention: str) -> np.ndarray:
    r = r_vectors(state, active)
    if convention == "shift":
        return active.z.astype(float) @ state.basis.B.T, r
    if convention == "literal":
        return r, r
    raise ValueError(f"unknown motion convention {convention!r}")


def motion_operator(state: PackingState, active: Contacts,
                    convention: str = "shift") -> np.ndarray:
    """Dense operator whose kernel is the space of periodic motions.

    Row per active contact: m -> r^T (u_i - u_j - A t), acting on the
    flattened (u, A) vector.  For z = 0 contacts the cell block vanishes and
    the row reduces to r^T (u_i - u_j).
    """
    t, r = _cell_term(state, active, convention)
    return contact_rows(state, active, r, t)


def trivial_motion_basis(state: PackingState) -> np.ndarray:
    """Orthonormal basis of rigid-body motions: translations plus rotations.

    Translations: u_i = e_k, A = 0.  Rotations: u_i = W x_i, A = W for each
    elementary skew generator W.  Dimension n + n(n-1)/2.
    """
    N, n = state.x.shape
    cols = []
    for k in range(n):
        u = np.zeros((N, n))
        u[:, k] = 1.0
        cols.append(MotionVector(u, np.zeros((n, n))).flat())
    for a, b in combinations(range(n), 2):
        W = np.zeros((n, n))
        W[a, b] = -1.0
        W[b, a] = 1.0
        cols.append(MotionVector(state.x @ W.T, W).flat())
    T = np.stack(cols, axis=1)
    q, rdiag = np.linalg.qr(T)
    if np.min(np.abs(np.diag(rdiag))) < 1e-12:
        raise ValueError("trivial motions are degenerate for this state")
    return q


@dataclass(frozen=True)
class RigidityResult:
    rigid: bool
    nontrivial_dim: int
    basis: np.ndarray          # (N*n + n*n, nontrivial_dim)
    null_dim: int
    singular_values: np.ndarray
    rank_margin: float         # smallest kept / largest dropped singular value


def is_periodically_rigid(state: PackingState, active: Contacts,
                          convention: str = "shift") -> RigidityResult:
    """Nullspace of the motion operator, quotiented by rigid-body motions.

    Rank decisions use singular values against _RANK_TOL times the largest one.
    Rigid iff no nontrivial motion survives the quotient.
    """
    N, n = state.x.shape
    dim = N * n + n * n
    T = trivial_motion_basis(state)
    if len(active) == 0:
        null = np.eye(dim)
        svals = np.zeros(0)
        rank_margin = np.inf
    else:
        M = motion_operator(state, active, convention)
        _, svals, Vt = np.linalg.svd(M, full_matrices=True)
        smax = svals[0] if svals.size else 0.0
        rank = int(np.sum(svals > _RANK_TOL * max(smax, 1e-300)))
        kept = svals[rank - 1] if rank else np.inf
        dropped = svals[rank] if rank < svals.size else 0.0
        rank_margin = float(kept / dropped) if dropped > 0 else np.inf
        null = Vt[rank:].T
    # project rigid-body motions out of the kernel
    W = null - T @ (T.T @ null)
    if W.shape[1]:
        U, ws, _ = np.linalg.svd(W, full_matrices=False)
        keep = ws > _RANK_TOL * max(1.0, ws[0] if ws.size else 1.0)
        basis = U[:, keep]
    else:
        basis = W
    k = basis.shape[1]
    return RigidityResult(rigid=(k == 0), nontrivial_dim=k, basis=basis,
                          null_dim=null.shape[1], singular_values=svals,
                          rank_margin=rank_margin)


def _omega_array(active: Contacts, omega) -> np.ndarray:
    arr = np.asarray(omega, dtype=float)
    if arr.shape != (len(active),):
        raise ValueError("stress array must align with the active contacts")
    return arr


def stress_energy(state: PackingState, active: Contacts, omega,
                  motion: MotionVector, convention: str = "shift") -> float:
    """Quadratic form of an equilibrium stress on a motion:
    sum_c omega_c (n_c^T (u_i - u_j - A t_c))^2 with unit normals n = r/||r||."""
    w = _omega_array(active, omega)
    t, r = _cell_term(state, active, convention)
    rel = motion.u[active.i] - motion.u[active.j] - t @ motion.A.T
    norms = np.linalg.norm(r, axis=1)
    vals = np.einsum("mk,mk->m", r, rel) / np.maximum(norms, 1e-300)
    return float(np.sum(w * vals * vals))


def prestress_stable(state: PackingState, active: Contacts, omega,
                     convention: str = "shift") -> tuple[bool, float]:
    """Is the stress quadratic form positive definite on nontrivial motions?

    Returns the flag plus the smallest restricted eigenvalue; an already-rigid
    framework has no nontrivial motions and reports (True, +inf).
    """
    rig = is_periodically_rigid(state, active, convention)
    if rig.nontrivial_dim == 0:
        return True, float("inf")
    w = _omega_array(active, omega)
    t, r = _cell_term(state, active, convention)
    norms = np.maximum(np.linalg.norm(r, axis=1), 1e-300)
    N, n = state.x.shape
    k = rig.nontrivial_dim
    P = np.zeros((len(active), k))
    for col in range(k):
        mv = MotionVector.from_flat(rig.basis[:, col], N, n)
        rel = mv.u[active.i] - mv.u[active.j] - t @ mv.A.T
        P[:, col] = np.einsum("mk,mk->m", r, rel) / norms
    G = P.T @ (w[:, None] * P)
    G = 0.5 * (G + G.T)
    min_eig = float(np.linalg.eigvalsh(G)[0])
    return min_eig > 1e-10, min_eig


@dataclass(frozen=True)
class MultiplierSet:
    """Barrier-implied contact forces mu = -phi'(s), raw and clamped at zero."""

    contacts: Contacts
    slack: np.ndarray
    raw: np.ndarray
    clamped: np.ndarray


def recover_multipliers(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
                        members: Contacts | None = None) -> MultiplierSet:
    """mu_c = nu/s_c - nu (s_c - delta)/delta per included contact."""
    contacts = members if members is not None else contacts_within(state, shifts, p.R)
    s = slack_values(state, contacts)
    _, d1, _ = phi(s, p)
    raw = -np.atleast_1d(d1)
    return MultiplierSet(contacts=contacts, slack=s, raw=raw,
                         clamped=np.maximum(raw, 0.0))


def kkt_residual(state: PackingState, shifts: ShiftIndexSet, contacts: Contacts,
                 mu: np.ndarray) -> tuple[float, float, float]:
    """Stationarity and complementarity residuals for min volume s.t. slacks >= 0.

    res_B = ||grad |det B| - sum mu_c grad_B s_c||_F, res_x the gauge-projected
    norm of sum mu_c grad_x s_c, comp = sum mu_c max(s_c, 0).
    """
    mu = np.asarray(mu, dtype=float)
    r = r_vectors(state, contacts)
    s = np.einsum("mk,mk->m", r, r) - 4.0
    gB = -2.0 * np.einsum("m,ma,mb->ab", mu, r, contacts.z.astype(float))
    res_B = float(np.linalg.norm(volume_gradient(state.basis) - gB))
    gx = np.zeros_like(state.x)
    coeff = (2.0 * mu)[:, None] * r
    np.add.at(gx, contacts.i, coeff)
    np.subtract.at(gx, contacts.j, coeff)
    gx = gx - gx.mean(axis=0)
    res_x = float(np.linalg.norm(gx))
    comp = float(np.sum(mu * np.maximum(s, 0.0)))
    return res_B, res_x, comp


def licq_sigma_min(state: PackingState, active: Contacts) -> float:
    """Smallest singular value of the stacked active constraint gradients.

    Diagnostic for the constraint-qualification constant; not a certificate.
    """
    if len(active) == 0:
        return float("inf")
    # the joint slack Jacobian, as the joint projection builds its constraint rows
    J = 2.0 * contact_rows(state, active, r_vectors(state, active), active.z.astype(float))
    return float(np.linalg.svd(J, compute_uv=False)[-1])
