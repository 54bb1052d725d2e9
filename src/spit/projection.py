"""Strict-feasibility safeguards and energy-nonexpansive projections.

Three layers, used in escalation order by the trajectory loop:

1. `gs_project_once` - one Gauss-Seidel sweep that repairs violated pair
   slacks exactly by symmetric radial moves (cheap, best-effort).
2. `e_project_x` - minimize a quadratic majorizer of the Lyapunov energy over
   the linearized feasible set in positions only.
3. `e_project_joint` - the same with a basis update block, optionally with a
   volume-descent term for cell shrinking.

2 and 3 share one loop, `_e_project`, and one constraint-row builder,
`geometry.contact_rows`; they differ only in the basis block.  The QP behind
them is a small dense active-set solve with deterministic tie-breaking, sized
for desk-scale problems (N <= 256).
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .barrier import BarrierParams, barrier_energy, barrier_value
from .errors import FeasibilityError, LinearizedInfeasibleError, SingularBasisError
from .geometry import (
    Contacts,
    LatticeBasis,
    PackingState,
    ShiftIndexSet,
    contact_rows,
    contacts_within,
    gauge_project,
    min_slack_of,
    r_vectors,
    slack_values,
    volume_gradient,
)

logger = logging.getLogger("spit")

_SLACK_GUARD = 1e-6  # accepted states keep min_slack >= delta * (1 - _SLACK_GUARD)
_HORIZON = 1.0  # contacts with slack up to delta + _HORIZON are linearized
_QP_TOL = 1e-10  # multiplier sign and relative feasibility tolerance of solve_qp


def gs_project_once(state: PackingState, shifts: ShiftIndexSet, delta: float,
                    base: Contacts | None = None) -> tuple[PackingState, bool]:
    """One Gauss-Seidel sweep repairing violated pair slacks in canonical order.

    Each violated pair is moved symmetrically along its contact normal so the
    exact post-move slack equals delta (the constraint is radial, so the
    minimal exact repair is available in closed form).  Self-image contacts
    are skipped: they depend on the basis only.  Best-effort: later repairs
    may re-violate earlier pairs.
    """
    near = contacts_within(state, shifts, shifts.R, base=base)
    if len(near) == 0:
        return state, False
    s = slack_values(state, near)
    margin = 0.25  # re-check anything close enough that an earlier repair could push it under
    worklist = np.flatnonzero(s < delta + margin)
    if worklist.size == 0 or float(np.min(s)) >= delta * (1.0 - 1e-12):
        return state, False
    x = state.x.copy()
    B = state.basis.B
    target = float(np.sqrt(4.0 + delta))
    changed = False
    for k in worklist:
        i, j = int(near.i[k]), int(near.j[k])
        if i == j:
            continue
        r = x[i] - x[j] - B @ near.z[k].astype(float)
        dist = float(np.linalg.norm(r))
        if dist * dist - 4.0 >= delta * (1.0 - 1e-12):
            continue
        direction = r / dist if dist > 1e-12 else np.eye(1, state.n, 0, dtype=float).ravel()
        t = 0.5 * (target - dist)
        x[i] += t * direction
        x[j] -= t * direction
        changed = True
    if not changed:
        return state, False
    return state.with_x(gauge_project(x)), True


@dataclass
class QuadraticProgram:
    """min 0.5 u^T diag(q) u + c^T u  subject to  A u >= b, with q > 0."""

    diag: np.ndarray
    linear: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if np.any(self.diag <= 0.0):
            raise ValueError("quadratic weights must be strictly positive")


@dataclass
class QPSolution:
    u: np.ndarray
    multipliers: np.ndarray
    active: list
    iterations: int


def solve_qp(qp: QuadraticProgram) -> QPSolution:
    """Dense primal active-set solve of a strictly convex diagonal QP.

    Deterministic: the most violated constraint enters the working set first,
    with ties broken by the lowest constraint index; blocking multipliers are
    dropped most-negative-first under the same tie rule.
    """
    qinv = 1.0 / qp.diag
    c = qp.linear
    m = qp.b.shape[0]
    feas_tol = _QP_TOL * max(1.0, float(np.max(np.abs(qp.b))) if m else 1.0)

    def kkt(working: list[int]) -> tuple[np.ndarray, np.ndarray]:
        if not working:
            return -qinv * c, np.zeros(0)
        Aw = qp.A[working]
        G = (Aw * qinv) @ Aw.T
        rhs = qp.b[working] + Aw @ (qinv * c)
        try:
            mu = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            mu = np.linalg.lstsq(G, rhs, rcond=None)[0]
        return qinv * (Aw.T @ mu - c), mu

    working: list[int] = []
    for it in range(1, 3 * max(m, 1) + 31):
        u, mu_w = kkt(working)
        if working and float(np.min(mu_w)) < -_QP_TOL:
            working.pop(int(np.argmin(mu_w)))
            continue
        if m:
            viol = qp.b - qp.A @ u
            k = int(np.argmax(viol))
            if viol[k] > feas_tol:
                if k in working:
                    raise LinearizedInfeasibleError("linearized infeasible")
                working.append(k)
                continue
        multipliers = np.zeros(m)
        for idx, w in enumerate(working):
            multipliers[w] = mu_w[idx]
        return QPSolution(u=u, multipliers=multipliers, active=sorted(working), iterations=it)
    raise LinearizedInfeasibleError("linearized infeasible")


def _constraint_rows(state: PackingState, near: Contacts, p: BarrierParams,
                     joint: bool) -> tuple[np.ndarray, np.ndarray]:
    """Linearized slack constraints A u >= b of the contacts in `near` whose
    slack is within _HORIZON of delta (pairs only, unless joint).

    Rows are the slack gradients, twice `contact_rows` with c = z, over the
    flattened position move (and basis move for joint projections).
    """
    keep = slack_values(state, near) <= p.delta + _HORIZON
    if not joint:
        keep &= near.i != near.j
    cons = near.take(keep)
    r = r_vectors(state, cons)
    A = 2.0 * contact_rows(state, cons, r, cons.z.astype(float) if joint else None)
    return A, p.delta - (np.einsum("mk,mk->m", r, r) - 4.0)


def lyapunov(ds, U: float) -> float:
    """Lyapunov energy U + 0.5 ||v||^2 + (gamma / 2) ||x - x_prev||^2 of a
    dynamics state whose barrier value is U."""
    return U + 0.5 * float(np.sum(ds.v * ds.v)) \
        + 0.5 * ds.gamma * float(np.sum((ds.x - ds.x_prev) ** 2))


def e_project_x(ds, p: BarrierParams, shifts: ShiftIndexSet, L_hat: float,
                members: Contacts | None = None):
    """Energy-nonexpansive feasibility projection in positions only.

    Minimizes the quadratic majorizer of the Lyapunov energy built from the
    current gradient, curvature weight and step-memory anchor, subject to all
    linearized slack constraints; the velocity is kept unchanged.  Returns the
    updated dynamics state plus an info dict with the before/after energies.
    """
    return _e_project(ds, p, shifts, L_hat, None, 0.0, members)


def e_project_joint(ds, p: BarrierParams, shifts: ShiftIndexSet, L_x: float, L_B: float,
                    volume_weight: float = 0.0, members: Contacts | None = None):
    """Joint (positions, basis) energy-nonexpansive projection.

    Minimizes the joint majorizer subject to jointly linearized constraints
    and applies (x, B) <- (y*, B + H*), keeping the velocity.  With a positive
    `volume_weight` a cell-volume descent term is added to the basis block and
    the energy-nonexpansiveness backoff is disabled (the energy may then rise
    by design).  Basis nondegeneracy is re-checked; a violating basis move is
    halved up to 10 times, else dropped.
    """
    return _e_project(ds, p, shifts, L_x, L_B, volume_weight, members)


def _e_project(ds, p: BarrierParams, shifts: ShiftIndexSet, wx: float, wB: float | None,
               volume_weight: float, members: Contacts | None):
    """The projection loop of both entry points; positions only when wB is None.

    Each round re-anchors the linear model at the current point and solves the
    QP.  A candidate below the slack margin gets a Gauss-Seidel sweep and a new
    round (at most 6); one that raises the energy doubles the curvature weights
    (at most 30 times) unless the volume term is on or the move is pinned.
    Every state visited is scanned for contacts once; a backoff keeps the
    anchor, so it keeps the constraint rows and the gradient too.
    """
    joint = wB is not None
    state: PackingState = ds.packing
    N, n = state.x.shape
    floor = p.delta * (1.0 - _SLACK_GUARD)
    near = contacts_within(state, shifts, p.R)
    # positions cannot move self-image slacks, so they must already hold
    if not joint and min_slack_of(state, near.take(near.i == near.j)) < floor:
        raise FeasibilityError(
            "cell-bound (self-image) slack below margin; a joint basis update is required")
    ev = barrier_energy(state, shifts, p, members=members)
    e_before = lyapunov(ds, ev.value)
    backoffs = 0
    rounds = 0
    cur = state
    A = prev_u = None
    info = {"E_before": e_before, "kind": "qp_joint" if joint else "qp_x"}
    if joint:
        info["volume_weight"] = volume_weight
    while True:
        if A is None:  # a new anchor
            A, b = _constraint_rows(cur, near, p, joint)
            evc = barrier_energy(cur, shifts, p, members=members) if cur is not state else ev
            linear = (evc.grad_x + ds.gamma * (cur.x - ds.x_prev)).ravel()
            if joint:
                gB = evc.grad_B + (volume_weight * volume_gradient(cur.basis)
                                   if volume_weight else 0.0)
                linear = np.concatenate([linear, gB.ravel()])
        diag = np.full(N * n, wx + ds.gamma)
        if joint:
            diag = np.concatenate([diag, np.full(n * n, wB)])
        sol = solve_qp(QuadraticProgram(diag=diag, linear=linear, A=A, b=b))
        basis = _admissible_basis(cur.basis, sol.u[N * n:].reshape(n, n)) if joint else cur.basis
        cand = PackingState.make(gauge_project(cur.x + sol.u[: N * n].reshape(N, n)), basis)
        near_cand = contacts_within(cand, shifts, p.R)
        if min_slack_of(cand, near_cand) < floor:
            rounds += 1
            if rounds > 6:
                raise FeasibilityError(("joint " if joint else "")
                                       + "projection could not restore the slack margin")
            cur, changed = gs_project_once(cand, shifts, p.delta, base=near_cand)
            near = contacts_within(cur, shifts, p.R) if changed else near_cand
            A = prev_u = None
            continue
        out = dataclasses.replace(ds, packing=cand)
        e_after = lyapunov(out, barrier_value(cand, shifts, p, members=members))
        pinned = prev_u is not None and np.allclose(sol.u, prev_u, atol=1e-14, rtol=0.0)
        if volume_weight == 0.0 and e_after > e_before + 1e-12 and backoffs < 30 and not pinned:
            # the curvature weight under-majorized; a larger weight shrinks the
            # move (a pinned solution means the move is a mandatory repair)
            backoffs += 1
            wx *= 2.0
            if joint:
                wB *= 2.0
            prev_u = sol.u
            continue
        info.update(E_after=e_after, backoffs=backoffs, guard_rounds=rounds,
                    n_constraints=A.shape[0], n_active=len(sol.active),
                    nonexpansive=bool(volume_weight > 0.0 or e_after <= e_before + 1e-10))
        if joint:
            info["basis_moved"] = bool(np.any(basis.B != state.basis.B))
        return out, info


def _admissible_basis(basis: LatticeBasis, H: np.ndarray) -> LatticeBasis:
    """Apply B <- B + H, halving H while the nondegeneracy window is violated."""
    step = np.asarray(H, dtype=float)
    for _ in range(10):
        try:
            return LatticeBasis(basis.B + step)
        except SingularBasisError:
            step = 0.5 * step
    logger.warning("basis update rejected after 10 halvings; keeping the old cell")
    return basis
