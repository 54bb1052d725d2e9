"""Periodic infinitesimal rigidity, prestress certification, KKT residuals.

A periodic motion is a pair (u, A): vertex velocities plus a cell velocity
A = dB/dt B^{-1}.  Active contacts impose r^T (u_i - u_j - A t) = 0 with the
cell term acting on the lattice shift t = B z, under which rigid translations
and rotations are exactly in the kernel of this motion operator M.  Both
verdicts come from M on C, an orthonormal basis of the complement of the
trivial motions: the framework is rigid when M C has full column rank, and a
stress is strictly prestress stable when its quadratic form, built from M
with unit-normal rows, is positive definite on C.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .barrier import BarrierParams, phi
from .geometry import (
    Contacts,
    PackingState,
    basis_slack_gradient,
    contact_rows,
    lattice_shifts,
    r_vectors,
    separations,
    slack_gradient,
    slack_values,
    volume_gradient,
)

_RANK_TOL = 1e-8  # values below this share of the largest count as zero (rank, prestress)


@dataclass(frozen=True)
class MotionVector:
    """Vertex velocities u (N, n) and cell velocity A (n, n)."""

    u: np.ndarray
    A: np.ndarray

    def flat(self) -> np.ndarray:
        return np.concatenate([self.u.ravel(), self.A.ravel()])


def active_set(state: PackingState, near: Contacts, tol_active: float) -> Contacts:
    """The contacts of `near` with |slack| at most tol_active (separation within tol of 2)."""
    return near.take(np.abs(slack_values(state, near)) <= tol_active)


def motion_operator(state: PackingState, active: Contacts) -> np.ndarray:
    """Dense operator whose kernel is the space of periodic motions.

    Row per active contact: m -> r^T (u_i - u_j - A t) with t = B z, acting
    on the flattened (u, A) vector.  For z = 0 contacts the cell block
    vanishes and the row reduces to r^T (u_i - u_j).
    """
    return contact_rows(state, active, r_vectors(state, active),
                        lattice_shifts(active, state.basis.B))


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


def _nontrivial_motions(state: PackingState) -> np.ndarray:
    """Orthonormal basis C of the complement of the trivial motions."""
    T = trivial_motion_basis(state)
    return np.linalg.qr(T, mode="complete")[0][:, T.shape[1]:]


def _normal_rows(state: PackingState, active: Contacts) -> np.ndarray:
    """The motion operator with each row divided by ||r||: n^T (u_i - u_j - A t)."""
    r = r_vectors(state, active)  # once, for the rows and their norms
    return contact_rows(state, active, r, lattice_shifts(active, state.basis.B)) \
        / np.maximum(np.linalg.norm(r, axis=1), 1e-300)[:, None]


@dataclass(frozen=True)
class RigidityResult:
    rigid: bool
    nontrivial_dim: int
    basis: np.ndarray          # (N*n + n*n, nontrivial_dim)
    rank_margin: float         # least kept / largest singular value, 0 if none is kept


def is_periodically_rigid(state: PackingState, active: Contacts) -> RigidityResult:
    """Nullspace of the motion operator M on the nontrivial motions C.

    One SVD of M C; rank decisions use singular values against _RANK_TOL
    times the largest one.  Rigid iff M C has full column rank.  The rank margin,
    the least kept singular value over the largest, says how far that is from failing.
    """
    C = _nontrivial_motions(state)
    _, svals, Vt = np.linalg.svd(motion_operator(state, active) @ C, full_matrices=True)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > _RANK_TOL * max(smax, 1e-300)))
    basis = C @ Vt[rank:].T
    k = basis.shape[1]
    return RigidityResult(rigid=(k == 0), nontrivial_dim=k, basis=basis,
                          rank_margin=float(svals[rank - 1] / smax) if rank else 0.0)


def _omega_array(active: Contacts, omega) -> np.ndarray:
    arr = np.asarray(omega, dtype=float)
    if arr.shape != (len(active),):
        raise ValueError("stress array must align with the active contacts")
    return arr


def stress_energy(state: PackingState, active: Contacts, omega,
                  motion: MotionVector) -> float:
    """Quadratic form of an equilibrium stress on a motion:
    sum_c omega_c (n_c^T (u_i - u_j - A t_c))^2 with unit normals n = r/||r||."""
    vals = _normal_rows(state, active) @ motion.flat()
    return float(np.sum(_omega_array(active, omega) * vals * vals))


def prestress_stable(state: PackingState, active: Contacts, omega) -> tuple[bool, float]:
    """Is the stress quadratic form positive definite on nontrivial motions?

    The form of claim (iv) (Connelly & Whiteley, SIAM J. Discrete Math. 9,
    1996) on a motion m = (u, A) is

        sum_c omega_c (n_c^T (u_i - u_j - A t_c))^2 = m^T M^T diag(omega/||r||^2) M m.

    Returns the flag and the form's least eigenvalue on the complement C of
    the trivial motions, that of (P C)^T diag(omega) (P C) with P the motion
    operator M in unit-normal rows (the flag: above _RANK_TOL times the
    largest, whatever the stress scale).  A nontrivial flex m has M m = 0, and
    so has its nonzero component in the span of C (M annihilates the trivial
    motions), where the form therefore vanishes.  Positive definiteness on C
    thus rules out every nontrivial flex: strict prestress stability implies
    periodic infinitesimal rigidity.
    """
    PC = _normal_rows(state, active) @ _nontrivial_motions(state)
    G = PC.T @ (_omega_array(active, omega)[:, None] * PC)
    w = np.linalg.eigvalsh(0.5 * (G + G.T))
    return float(w[0]) > _RANK_TOL * float(w[-1]), float(w[0])


@dataclass(frozen=True)
class MultiplierSet:
    """Barrier-implied contact forces mu = -phi'(s), raw and clamped at zero, with r and s."""

    contacts: Contacts
    r: np.ndarray
    slack: np.ndarray
    raw: np.ndarray
    clamped: np.ndarray


def recover_multipliers(state: PackingState, contacts: Contacts, p: BarrierParams) -> MultiplierSet:
    """mu_c = nu/s_c - nu (s_c - delta)/delta per contact of `contacts`."""
    r, s = separations(state, contacts)
    _, d1, _ = phi(s, p)
    raw = -np.atleast_1d(d1)
    return MultiplierSet(contacts=contacts, r=r, slack=s, raw=raw,
                         clamped=np.maximum(raw, 0.0))


def kkt_residual(state: PackingState, mus: MultiplierSet, mu: np.ndarray) -> tuple[float, float, float]:
    """Stationarity and complementarity residuals for min volume s.t. slacks >= 0,
    of multipliers mu on the contacts of `mus` (its r and s).

    res_B = ||grad |det B| - sum mu_c grad_B s_c||_F, res_x the gauge-projected
    norm of sum mu_c grad_x s_c, comp = sum mu_c max(s_c, 0).
    """
    mu = np.asarray(mu, dtype=float)
    gx = slack_gradient(state, mus.contacts, mus.r, mu)
    gB = basis_slack_gradient(mus.contacts, mus.r, mu)
    res_B = float(np.linalg.norm(volume_gradient(state.basis) - gB))
    res_x = float(np.linalg.norm(gx - gx.mean(axis=0)))
    comp = float(np.sum(mu * np.maximum(mus.slack, 0.0)))
    return res_B, res_x, comp


def licq_sigma_min(state: PackingState, active: Contacts) -> tuple[bool, float]:
    """LICQ verdict and sigma_min / sigma_max of the m >= 1 active constraint gradients,
    the joint slack Jacobian J (m x D) of the joint projection: LICQ holds when
    sigma_m exceeds D eps sigma_max, below which the SVD cannot tell it from 0
    and the ratio reads 0, as it does for m > D.  A diagnostic, not a certificate."""
    J = 2.0 * contact_rows(state, active, r_vectors(state, active), active.zf)
    sv = np.linalg.svd(J, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if len(active) <= J.shape[1] else 0.0
    return (True, ratio) if ratio > J.shape[1] * float(np.finfo(float).eps) else (False, 0.0)
