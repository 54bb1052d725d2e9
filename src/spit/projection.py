"""Strict-feasibility safeguards and energy-nonexpansive projections.

Three layers:

1. `gs_project_once` - one Gauss-Seidel sweep that repairs violated pair
   slacks exactly by symmetric radial moves (cheap, best-effort).
2. `e_project_x` - minimize a quadratic majorizer of the Lyapunov energy over
   the linearized feasible set in positions only.
3. `e_project_joint` - the same with a basis update block, optionally with a
   volume-descent term for cell shrinking.

The trajectory loop escalates 1 to 2 for every Verlet step and nudge trial
(slack below delta, then below delta (1 - 1e-6) or energy rose) and runs 3 on
its cadence.  2 and 3 take the barrier evaluation at their input, evaluate on
its contacts, and hand back the evaluation at their result.  They share one
loop, `_e_project`, and one constraint-row builder, `geometry.contact_rows`;
they differ only in the basis block.  The QP behind them is a small dense
active-set solve with deterministic tie-breaking, sized for desk-scale
problems (N <= 256).
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .barrier import BarrierEval, BarrierParams, barrier_energy, barrier_from_separations
from .errors import (
    FeasibilityError,
    InfeasibleSlackError,
    LinearizedInfeasibleError,
    SingularBasisError,
)
from .geometry import (
    Contacts,
    LatticeBasis,
    PackingState,
    ShiftIndexSet,
    contact_rows,
    contacts_within,
    gauge_project,
    lattice_shifts,
    min_slack_of,
    separations,
    slack_values,
    volume_gradient,
    volume_hessian_bound,
)

logger = logging.getLogger("spit")

_SLACK_GUARD = 1e-6  # accepted states keep min_slack >= delta * (1 - _SLACK_GUARD)
_GS_GUARD = 1e-12  # Gauss-Seidel repairs the slacks below delta * (1 - _GS_GUARD)
_HORIZON = 1.0  # contacts with slack up to delta + _HORIZON are linearized
_QP_TOL = 1e-10  # multiplier sign and relative feasibility tolerance of solve_qp


def gs_project_once(state: PackingState, near: Contacts, delta: float) -> tuple[PackingState, bool]:
    """One Gauss-Seidel sweep repairing the violated pair slacks of `near` in canonical order.

    Each violated pair is moved symmetrically along its contact normal so the
    exact post-move slack equals delta (the constraint is radial, so the
    minimal exact repair is available in closed form).  Self-image contacts
    are skipped: they depend on the basis only.  Best-effort: later repairs
    may re-violate earlier pairs.
    """
    s = slack_values(state, near)
    margin = 0.25  # re-check anything close enough that an earlier repair could push it under
    worklist = np.flatnonzero(s < delta + margin)
    floor = delta * (1.0 - _GS_GUARD)
    if worklist.size == 0 or float(np.min(s)) >= floor:
        return state, False
    x = state.x.copy()
    shift = lattice_shifts(near, state.basis.B)
    target = float(np.sqrt(4.0 + delta))
    changed = False
    for k in worklist:
        i, j = int(near.i[k]), int(near.j[k])
        if i == j:
            continue
        r = x[i] - x[j] - shift[k]
        dist = float(np.linalg.norm(r))
        if dist * dist - 4.0 >= floor:
            continue
        direction = r / dist if dist > 1e-12 else np.eye(1, state.n, 0, dtype=float).ravel()
        t = 0.5 * (target - dist)
        x[i] += t * direction
        x[j] -= t * direction
        changed = True
    return (state.with_x(gauge_project(x)), True) if changed else (state, False)


@dataclass
class QuadraticProgram:
    """min 0.5 u^T diag(q) u + c^T u  subject to  A u >= b, with q > 0."""

    diag: np.ndarray
    linear: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if (self.diag <= 0.0).any():
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
    feas_tol = _QP_TOL * max(1.0, float(abs(qp.b).max()) if m else 1.0)

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
        if working and float(mu_w.min()) < -_QP_TOL:
            working.pop(int(mu_w.argmin()))
            continue
        if m:
            viol = qp.b - qp.A @ u
            k = int(viol.argmax())
            if viol[k] > feas_tol:
                if k in working:
                    raise LinearizedInfeasibleError("linearized infeasible")
                working.append(k)
                continue
        multipliers = np.zeros(m)
        multipliers[working] = mu_w  # the working set holds each row once
        return QPSolution(u=u, multipliers=multipliers, active=sorted(working), iterations=it)
    raise LinearizedInfeasibleError("linearized infeasible")


def _constraint_rows(state: PackingState, near: Contacts, p: BarrierParams,
                     joint: bool) -> tuple[np.ndarray, np.ndarray]:
    """Linearized slack constraints A u >= b of the contacts in `near` whose
    slack is within _HORIZON of delta (pairs only, unless joint).

    Rows are the slack gradients, twice `contact_rows` with c = z, over the
    flattened position move (and basis move for joint projections).
    """
    r, s = separations(state, near)
    keep = s <= p.delta + _HORIZON
    if not joint:
        keep &= near.i != near.j
    cons = near.take(keep)
    A = contact_rows(state, cons, r[keep], cons.zf if joint else None)
    A *= 2.0  # in place: the rows are a view of their buffer, so 2.0 * A would copy
    return A, p.delta - s[keep]


def lyapunov(ds, U: float) -> float:
    """Lyapunov energy U + 0.5 ||v||^2 + (gamma / 2) ||x - x_prev||^2 of a
    dynamics state whose barrier value is U."""
    return U + 0.5 * float((ds.v * ds.v).sum()) \
        + 0.5 * ds.gamma * float(((ds.x - ds.x_prev) ** 2).sum())


def e_project_x(ds, ev: BarrierEval, p: BarrierParams, shifts: ShiftIndexSet, L_hat: float):
    """Energy-nonexpansive feasibility projection in positions only.

    Minimizes the quadratic majorizer of the Lyapunov energy built from the
    current gradient, curvature weight and step-memory anchor, subject to all
    linearized slack constraints; the velocity is kept unchanged.  `ev` is the
    barrier evaluation at `ds`.  Returns the updated dynamics state, an info
    dict with the before/after energies, and the evaluation at the result.
    """
    return _e_project(ds, ev, p, shifts, L_hat, None, 0.0)


def e_project_joint(ds, ev: BarrierEval, p: BarrierParams, shifts: ShiftIndexSet,
                    L_x: float, W_B: tuple, volume_weight: float = 0.0):
    """Joint (positions, basis) energy-nonexpansive projection.

    Minimizes the joint majorizer with the block-diagonal weight diag(L_x I,
    W_B) subject to jointly linearized constraints and applies (x, B) <- (y*,
    B + H*), keeping the velocity.  W_B = V diag(d) V^T, an SPD n^2 x n^2
    matrix over `B.ravel()`, is given as its eigenpairs (d, V), as the basis
    weight of `estimate_L_joint` is.  With a positive `volume_weight` a
    cell-volume descent term is added to the basis block, and its curvature
    bound `volume_weight * volume_hessian_bound` is added to W_B, so the weight
    majorizes the sum; the energy-nonexpansiveness backoff is then disabled
    (the energy may rise by design).  A basis move H is tried as H, H/2, ...,
    H/2^9 until the cell is nondegenerate and its self-image slacks keep the
    margin (contacts beyond R are not linearized); if none is, the old cell is
    kept with a warning.  Returns as `e_project_x`; `info["near"]` holds the
    result's contacts within R.
    """
    d, V = W_B
    d = d + volume_weight * volume_hessian_bound(ds.packing.basis)
    return _e_project(ds, ev, p, shifts, L_x, (V / np.sqrt(d)) @ V.T, volume_weight)


def _e_project(ds, ev: BarrierEval, p: BarrierParams, shifts: ShiftIndexSet, wx: float,
               S: np.ndarray | None, volume_weight: float):
    """The projection loop of both entry points; positions only when S is None.

    Each round re-anchors the linear model at the current point and solves the
    QP.  Jointly the basis move is u_B = S w, S = W^(-1/2) for the basis weight
    W: each anchor's basis columns and gradient are whitened, A_B <- A_B S and
    g_B <- S g_B, so the QP stays diagonal with basis weight 1 and its
    multipliers keep their meaning.  A candidate below the slack margin gets a
    Gauss-Seidel sweep and a new round (at most 6, and a FeasibilityError if
    the sweep leaves a member slack <= 0); one that raises the energy doubles
    the curvature weights (at most 30 times; W doubles with the basis weight)
    unless the volume term is on or the move is pinned.  Every state visited is
    scanned for contacts once; a backoff keeps the anchor, so it keeps the
    constraint rows and the gradient too.
    """
    joint = S is not None
    wB = 1.0  # the basis weight in whitened coordinates
    state: PackingState = ds.packing
    N, n = state.x.shape
    floor = p.delta * (1.0 - _SLACK_GUARD)
    near = contacts_within(state, shifts, p.R)
    # positions cannot move self-image slacks, so they must already hold
    if not joint and min_slack_of(state, near.take(near.i == near.j)) < floor:
        raise FeasibilityError(
            "cell-bound (self-image) slack below margin; a joint basis update is required")
    e_before = lyapunov(ds, ev.value)
    backoffs = rounds = 0
    cur, A, prev_u = state, None, None
    info = {"E_before": e_before, "kind": "qp_joint" if joint else "qp_x"}
    if joint:
        info["volume_weight"] = volume_weight
    while True:
        if A is None:  # a new anchor
            A, b = _constraint_rows(cur, near, p, joint)
            try:
                evc = ev if cur is state else barrier_energy(cur, shifts, p, members=ev.contacts)
            except InfeasibleSlackError as exc:  # a guard round's sweep left a member slack <= 0
                raise FeasibilityError("projection repair left a slack nonpositive") from exc
            linear = (evc.grad_x + ds.gamma * (cur.x - ds.x_prev)).ravel()
            if joint:
                gB = evc.grad_B + (volume_weight * volume_gradient(cur.basis)
                                   if volume_weight else 0.0)
                A[:, N * n:] = A[:, N * n:] @ S
                linear = np.concatenate([linear, S @ gB.ravel()])
        diag = np.concatenate([np.full(N * n, wx + ds.gamma), np.full(n * n * joint, wB)])
        sol = solve_qp(QuadraticProgram(diag=diag, linear=linear, A=A, b=b))
        x = gauge_project(cur.x + sol.u[: N * n].reshape(N, n))
        uB = (S @ sol.u[N * n:]).reshape(n, n) if joint else None
        # only a shorter basis move restores nondegeneracy or a self-image slack
        for halvings in range(11 if joint else 1):
            basis = cur.basis
            if halvings == 10:
                logger.warning("basis update rejected after 10 halvings; keeping the old cell")
            elif joint:
                try:
                    basis = LatticeBasis(cur.basis.B + 0.5**halvings * uB)
                except SingularBasisError:
                    continue
            cand = PackingState.make(x, basis)
            near_cand = contacts_within(cand, shifts, p.R)
            r, s = separations(cand, near_cand)
            least = float(s.min(initial=np.inf))
            if least >= floor or basis is cur.basis or \
                    s.min(initial=np.inf, where=near_cand.i == near_cand.j) >= floor:
                break
        if least < floor:
            rounds += 1
            if rounds > 6:
                raise FeasibilityError(("joint " if joint else "")
                                       + "projection could not restore the slack margin")
            cur, changed = gs_project_once(cand, near_cand, p.delta)
            near = contacts_within(cur, shifts, p.R) if changed else near_cand
            A = prev_u = None
            continue
        out = dataclasses.replace(ds, packing=cand)
        ev_out = (barrier_from_separations(cand, ev.contacts, r, s, least, p)
                  if near_cand.key == ev.contacts.key  # r and s of the member list
                  else barrier_energy(cand, shifts, p, members=ev.contacts))
        e_after = lyapunov(out, ev_out.value)
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
            info["basis_moved"] = bool((basis.B != state.basis.B).any())
            info["near"] = near_cand  # the result's contacts within R, for the caller to reuse
        return out, info, ev_out

