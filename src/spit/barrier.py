"""Interior barrier on pair slacks: values, gradients, HVPs, curvature bounds.

The per-contact potential is

    phi(s) = -nu * log(s) + (nu / (2 delta)) * (s - delta)^2,   s > 0,

summed over canonical contacts within the interaction radius.  The log term
enforces strict feasibility; the quadratic term keeps the potential C^2 and
pulls pairs toward a finite preferred slack, which is what packs the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleSlackError
from .geometry import (
    Contacts,
    PackingState,
    ShiftIndexSet,
    contacts_within,
    r_vectors,
)


@dataclass(frozen=True)
class BarrierParams:
    """Barrier strength nu, safety margin delta, interaction radius R."""

    nu: float
    delta: float
    R: float

    def __post_init__(self):
        # the boundary delta = 1 is admissible for formula-level use; run
        # configurations keep the margin strictly interior
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")
        if self.R < 0.0:
            raise ValueError("interaction radius must be nonnegative")


def phi(s, p: BarrierParams):
    """Barrier value and first two derivatives at slack s (scalar or array).

    Raises on any nonpositive slack since the log term is undefined there.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise InfeasibleSlackError("infeasible slack")
    nu, d = p.nu, p.delta
    value = -nu * np.log(s) + (nu / (2.0 * d)) * (s - d) ** 2
    d1 = -nu / s + (nu / d) * (s - d)
    d2 = nu / s**2 + nu / d
    if value.ndim == 0:
        return float(value), float(d1), float(d2)
    return value, d1, d2


@dataclass(frozen=True)
class BarrierEval:
    """One barrier evaluation: scalar value, both gradients, per-contact slacks."""

    value: float
    grad_x: np.ndarray
    grad_B: np.ndarray
    contacts: Contacts
    slack: np.ndarray


def _included(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
              members: Contacts | None) -> Contacts:
    return members if members is not None else contacts_within(state, shifts, p.R)


def barrier_energy(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
                   members: Contacts | None = None) -> BarrierEval:
    """Sum phi over included contacts and assemble both gradients by chain rule."""
    contacts = _included(state, shifts, p, members)
    r = r_vectors(state, contacts)
    s = np.einsum("mk,mk->m", r, r) - 4.0
    val, d1, _ = phi(s, p)
    gx = np.zeros_like(state.x)
    coeff = (2.0 * np.atleast_1d(d1))[:, None] * r
    np.add.at(gx, contacts.i, coeff)
    np.subtract.at(gx, contacts.j, coeff)
    gB = -2.0 * np.einsum("m,ma,mb->ab", np.atleast_1d(d1), r, contacts.z.astype(float))
    return BarrierEval(value=float(np.sum(val)), grad_x=gx, grad_B=gB,
                       contacts=contacts, slack=s)


def barrier_value(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
                  members: Contacts | None = None) -> float:
    """Value-only fast path."""
    contacts = _included(state, shifts, p, members)
    s = np.einsum("mk,mk->m", (r := r_vectors(state, contacts)), r) - 4.0
    val, _, _ = phi(s, p)
    return float(np.sum(val))


def _phi12(state: PackingState, contacts: Contacts, p: BarrierParams):
    r = r_vectors(state, contacts)
    s = np.einsum("mk,mk->m", r, r) - 4.0
    _, d1, d2 = phi(s, p)
    return r, np.atleast_1d(d1), np.atleast_1d(d2)


def hvp_x(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
          direction: np.ndarray, members: Contacts | None = None) -> np.ndarray:
    """Apply the position block of the barrier Hessian to a direction field.

    Per contact the i-block receives 4 phi'' <r, p_i - p_j> r + 2 phi' (p_i - p_j),
    with the opposite sign on the j-block.
    """
    contacts = _included(state, shifts, p, members)
    r, d1, d2 = _phi12(state, contacts, p)
    q = direction[contacts.i] - direction[contacts.j]
    rq = np.einsum("mk,mk->m", r, q)
    g = (4.0 * d2 * rq)[:, None] * r + (2.0 * d1)[:, None] * q
    out = np.zeros_like(direction, dtype=float)
    np.add.at(out, contacts.i, g)
    np.subtract.at(out, contacts.j, g)
    return out


def hvp_joint(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
              dir_x: np.ndarray, dir_B: np.ndarray,
              members: Contacts | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Apply the full (x, B) barrier Hessian to a joint direction.

    With w = p_i - p_j - H z (the first-order change of r along the direction)
    each contact contributes g = 4 phi'' <r, w> r + 2 phi' w to the i-block,
    -g to the j-block, and -g z^T to the basis block, which makes the operator
    symmetric by construction.
    """
    contacts = _included(state, shifts, p, members)
    r, d1, d2 = _phi12(state, contacts, p)
    zf = contacts.z.astype(float)
    w = dir_x[contacts.i] - dir_x[contacts.j] - zf @ np.asarray(dir_B, dtype=float).T
    rw = np.einsum("mk,mk->m", r, w)
    g = (4.0 * d2 * rw)[:, None] * r + (2.0 * d1)[:, None] * w
    out_x = np.zeros_like(dir_x, dtype=float)
    np.add.at(out_x, contacts.i, g)
    np.subtract.at(out_x, contacts.j, g)
    out_B = -np.einsum("ma,mb->ab", g, zf)
    return out_x, out_B


def hessian(state: PackingState, contacts: Contacts, p: BarrierParams,
            joint: bool = False) -> np.ndarray:
    """Dense barrier Hessian: the operator of `hvp_x` (or of `hvp_joint`) as a matrix.

    Rows and columns follow `x.ravel()`, then `B.ravel()` when `joint`.  Each
    contact adds K = 4 phi'' r r^T + 2 phi' I to the (i, i) and (j, j) position
    blocks and subtracts it from (i, j) and (j, i); jointly it also adds -K z^T
    (resp. +K z^T) to the i (resp. j) rows of the basis columns and K (x) z z^T
    to the basis block.  Self-image contacts cancel out of every position row,
    so only pairs are assembled there, and those rows stay exactly zero.
    """
    N, n = state.x.shape
    D = N * n + (n * n if joint else 0)
    H = np.zeros((D, D))
    r, d1, d2 = _phi12(state, contacts, p)
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


class CurvatureBound(NamedTuple):
    value: float
    iters: int  # eigensolves
    converged: bool


def _gauge_spectrum(H: np.ndarray, N: int, n: int) -> tuple[np.ndarray, float]:
    """Eigenvalues of `H` on the gauge (mean-zero position) subspace, ascending,
    with a roundoff margin that brackets each of them.

    The n translation modes are null vectors of every barrier Hessian;
    they are shifted to s = ||H||_F + 1, above the whole spectrum, so one
    `eigvalsh` returns them as its n largest values.  For the symmetric
    eigensolver each computed eigenvalue lies within D eps ||A||_2 of an exact
    one (A the shifted matrix, ||A||_2 <= ||H||_F + s), which is the margin.
    """
    D = H.shape[0]
    s = float(np.linalg.norm(H)) + 1.0
    T = np.zeros((D, n))
    for a in range(n):
        T[a:N * n:n, a] = 1.0 / np.sqrt(N)
    w = np.linalg.eigvalsh(H + s * (T @ T.T))
    return w[:D - n], D * float(np.finfo(float).eps) * (2.0 * s - 1.0)


def _max_abs_bound(H: np.ndarray, N: int, n: int) -> CurvatureBound:
    w, margin = _gauge_spectrum(H, N, n)
    return CurvatureBound(max(float(np.max(np.abs(w), initial=0.0)) + margin, 1e-12), 1, True)


def estimate_L(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
               members: Contacts | None = None) -> CurvatureBound:
    """Certified upper bound on the largest-magnitude eigenvalue of the
    gauge-restricted position Hessian: one dense eigensolve plus its roundoff
    margin, floored at 1e-12."""
    contacts = _included(state, shifts, p, members)
    return _max_abs_bound(hessian(state, contacts, p), *state.x.shape)


def estimate_m(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
               members: Contacts | None = None) -> CurvatureBound:
    """Certified lower bound on the smallest eigenvalue of the gauge-restricted
    position Hessian, clipped at zero so flat directions report m = 0."""
    contacts = _included(state, shifts, p, members)
    w, margin = _gauge_spectrum(hessian(state, contacts, p), *state.x.shape)
    return CurvatureBound(max(float(w[0]) - margin, 0.0) if w.size else 0.0, 1, True)


def estimate_L_joint(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
                     members: Contacts | None = None) -> CurvatureBound:
    """Certified upper bound on the spectral norm of the joint Hessian
    (gauge positions and basis together)."""
    contacts = _included(state, shifts, p, members)
    return _max_abs_bound(hessian(state, contacts, p, joint=True), *state.x.shape)


def lipschitz_bound(p: BarrierParams, slack_cap: float, radius: float, count: int) -> float:
    """Closed-form gradient Lipschitz constant on the slab delta <= s <= slack_cap.

    Assembled from |phi'| <= nu (1/delta + S/delta), phi'' <= nu (1/delta^2 +
    1/delta), separation norms bounded by the interaction radius, and the
    number of included contacts; each contact's position Hessian block has
    norm at most 4 phi''_max R^2 + 4 |phi'|_max.
    """
    c1 = p.nu * (1.0 / p.delta + slack_cap / p.delta)
    c2 = p.nu * (1.0 / p.delta**2 + 1.0 / p.delta)
    return count * (4.0 * c2 * radius**2 + 4.0 * c1)


def observed_slack_cap(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
                       members: Contacts | None = None) -> float:
    """Largest included slack, used as the cap in closed-form constants."""
    contacts = _included(state, shifts, p, members)
    if len(contacts) == 0:
        return p.delta
    r = r_vectors(state, contacts)
    return max(float(np.max(np.einsum("mk,mk->m", r, r) - 4.0)), p.delta)
