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
    gauge_project,
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


class PowerEstimate(NamedTuple):
    value: float
    iters: int
    converged: bool


def estimate_L(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
               tol: float = 1e-6, max_iters: int = 500,
               members: Contacts | None = None, seed: int = 0,
               floor: float = 1e-12) -> PowerEstimate:
    """Largest-magnitude eigenvalue of the position Hessian by power iteration.

    Iterates are kept in the gauge (mean-zero) subspace; the start vector is
    seeded so step-size selection is reproducible.
    """
    contacts = _included(state, shifts, p, members)
    rng = np.random.default_rng(seed)
    v = gauge_project(rng.standard_normal(state.x.shape))
    nv = np.linalg.norm(v)
    if nv == 0.0 or len(contacts) == 0:
        return PowerEstimate(floor, 0, True)
    v = v / nv
    lam = 0.0
    for it in range(1, max_iters + 1):
        w = gauge_project(hvp_x(state, shifts, p, v, members=contacts))
        lam_new = float(np.sum(v * w))
        nw = float(np.linalg.norm(w))
        if nw <= 1e-300:
            return PowerEstimate(max(abs(lam_new), floor), it, True)
        v = w / nw
        if abs(lam_new - lam) <= tol * max(abs(lam_new), floor):
            return PowerEstimate(max(abs(lam_new), floor), it, True)
        lam = lam_new
    return PowerEstimate(max(abs(lam), floor), max_iters, False)


def estimate_m(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
               tol: float = 1e-6, max_iters: int = 500,
               members: Contacts | None = None, seed: int = 1,
               L_hat: float | None = None) -> PowerEstimate:
    """Smallest eigenvalue of the gauge-restricted position Hessian.

    Runs shifted power iteration on (L_hat I - H) and clips the result at
    zero so flat directions report m = 0 rather than a small negative number.
    """
    contacts = _included(state, shifts, p, members)
    if L_hat is None:
        L_hat = estimate_L(state, shifts, p, tol=tol, max_iters=max_iters,
                           members=contacts, seed=seed).value
    rng = np.random.default_rng(seed)
    v = gauge_project(rng.standard_normal(state.x.shape))
    nv = np.linalg.norm(v)
    if nv == 0.0 or len(contacts) == 0:
        return PowerEstimate(0.0, 0, True)
    v = v / nv
    mu = 0.0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        w = L_hat * v - gauge_project(hvp_x(state, shifts, p, v, members=contacts))
        w = gauge_project(w)
        mu_new = float(np.sum(v * w))
        nw = float(np.linalg.norm(w))
        if nw <= 1e-300:
            mu, converged = mu_new, True
            break
        v = w / nw
        if abs(mu_new - mu) <= tol * max(abs(mu_new), 1e-12):
            mu, converged = mu_new, True
            break
        mu = mu_new
    return PowerEstimate(max(L_hat - mu, 0.0), it, converged)


def estimate_L_joint(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
                     tol: float = 1e-6, max_iters: int = 500,
                     members: Contacts | None = None, seed: int = 2,
                     floor: float = 1e-12) -> PowerEstimate:
    """Spectral norm of the full joint Hessian (positions and basis together)."""
    contacts = _included(state, shifts, p, members)
    rng = np.random.default_rng(seed)
    vx = gauge_project(rng.standard_normal(state.x.shape))
    vB = rng.standard_normal((state.n, state.n))
    norm = float(np.sqrt(np.sum(vx * vx) + np.sum(vB * vB)))
    if norm == 0.0 or len(contacts) == 0:
        return PowerEstimate(floor, 0, True)
    vx, vB = vx / norm, vB / norm
    lam = 0.0
    for it in range(1, max_iters + 1):
        wx, wB = hvp_joint(state, shifts, p, vx, vB, members=contacts)
        wx = gauge_project(wx)
        lam_new = float(np.sum(vx * wx) + np.sum(vB * wB))
        nw = float(np.sqrt(np.sum(wx * wx) + np.sum(wB * wB)))
        if nw <= 1e-300:
            return PowerEstimate(max(abs(lam_new), floor), it, True)
        vx, vB = wx / nw, wB / nw
        if abs(lam_new - lam) <= tol * max(abs(lam_new), floor):
            return PowerEstimate(max(abs(lam_new), floor), it, True)
        lam = lam_new
    return PowerEstimate(max(abs(lam), floor), max_iters, False)


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
