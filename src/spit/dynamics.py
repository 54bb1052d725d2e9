"""Damped velocity-Verlet dynamics on the interior barrier.

One step applies exactly four lines (gradient always taken at fixed basis):

    v_half = v - (eta dt / 2) v - (dt / 2) grad U(x)
    x_half = x + dt v_half
    v_new  = (1 - eta dt / 2) v_half - (dt / 2) grad U(x_half)
    x_new  = x_half            (feasibility projection happens afterwards)

The certified quantity is the Lyapunov energy

    E = U + 0.5 ||v||^2 + (gamma / 2) ||x - x_prev||^2,
    gamma = 1 / dt^2 - L_hat / 2,

which is non-increasing across a step whenever 0 < eta dt < 2 and
L_hat dt^2 <= 1/2 hold for a valid curvature bound L_hat.  L_hat comes from
the run's `CurvatureAnchors`: either a dense eigensolve of the position
Hessian plus its roundoff margin (an anchor), or the anchor's bound plus a
block-Gershgorin bound on how far the Hessian has changed since (Weyl's
inequality).  Either way it is a certified upper bound at the state where it
is taken, at most THETA above the anchor's or ADMIT above a Rayleigh quotient
below lambda_max.  The joint projection's weight is block-diagonal: a 2 x 2
block-norm bound from that bound and two O(contacts) blocks on the positions,
and a certified n^2 x n^2 matrix on the basis; no joint Hessian is formed.
After a basis move dt is the step rule's at the new L_hat, up or down (eta dt
kept); where gamma rises x_prev = x drops the step memory first, so on the same
member list E cannot exceed the projection's.  The curvature can still grow
between refreshes, so the loop checks descent too: a step that raises E (or
leaves the feasible region) is redone at half the dt.

`run_trajectory` evaluates the barrier once per accepted step: a step's
second gradient is taken at the gauge-projected new state, so that one
`BarrierEval` serves as the next step's first (first same as last) and for
every energy, slack, curvature bound and logged value.  Its contacts are the
member list.  Verlet steps and nudge trials pass one acceptance rule,
`_safeguard`; it and the joint cadence call projections that hand back the
evaluation at their result.  Only a Gauss-Seidel repair, a nudge trial, a
member-list refresh and a basis move whose scanned contacts differ from the
member list evaluate afresh; a backtrack changes only dt, eta, gamma.

Each step's Fiedler value is solved, values only, when the contact graph's
pair edges, read off the evaluation's slacks, change (`_spectrum`); only a
nudge builds the graph, from the same rows, and its Fiedler vector (`_apply_nudge`).
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from .barrier import (
    BarrierEval,
    BarrierParams,
    HessianChange,
    barrier_energy,
    barrier_value,
    contact_blocks,
    estimate_L,
    estimate_L_joint,
    estimate_m,
    pair_mode_rayleigh,
)
from .errors import FeasibilityError, InfeasibleSlackError, RunAbort
from .geometry import (
    PackingState,
    ShiftIndexSet,
    build_shift_set,
    cell_volume,
    contacts_within,
    frobenius,
    gauge_project,
    volume_gradient,
)
from .projection import (_GS_GUARD, _SLACK_GUARD, e_project_joint, e_project_x,
                         gs_project_once, lyapunov)
from .spectral import (
    NudgeHistory,
    build_contact_graph,
    fiedler,
    fiedler_value,
    lift_mode,
    near_rows,
    nudge_alpha,
    nudge_trigger,
    pair_edges_of,
)

logger = logging.getLogger("spit")

CSV_COLUMNS = ("step", "E", "U", "kinetic", "min_slack", "lambda2", "dt",
               "backtracked", "nudged", "projection")
REFRESH_STEPS = 25  # the member list and curvature bounds are rebuilt this often
# an anchor's spectrum serves while the Hessian change bound stays within this
# share of its L; at 0.1 a bound is at most 10 % above the anchor's L
THETA = 0.1
# past THETA an update serves while within this share above a Rayleigh quotient
# l <= lambda_max, so dt is at least 0.99 of a dense solve's; at 0.1 certify-n4
# seed 2 took 4 % more steps than with dense bounds, at 0.02 none qualifies
ADMIT = 0.02


@dataclass(frozen=True)
class DynamicsState:
    """Packing plus velocity, previous positions, and step parameters."""

    packing: PackingState
    v: np.ndarray
    x_prev: np.ndarray
    dt: float
    eta: float
    gamma: float

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if not (0.0 < self.eta * self.dt < 2.0):
            raise ValueError("damping-step product must lie in (0, 2)")

    @classmethod
    def at_rest(cls, packing: PackingState) -> "DynamicsState":
        """`packing` with v = 0 and x_prev = x.  dt = eta = 1 and gamma = 0 are
        placeholders: `run_trajectory` sets its own by the step rule."""
        return cls(packing=packing, v=np.zeros_like(packing.x), x_prev=packing.x.copy(),
                   dt=1.0, eta=1.0, gamma=0.0)

    @property
    def x(self) -> np.ndarray:
        return self.packing.x


def lyapunov_energy(ds: DynamicsState, p: BarrierParams, shifts: ShiftIndexSet) -> float:
    """Barrier value plus kinetic energy plus the gamma-weighted step memory."""
    return lyapunov(ds, barrier_value(ds.packing, shifts, p))


def verlet_update(x, v, dt: float, eta: float, grad_fn):
    """The four update lines on arbitrary arrays; grad_fn(x) -> same shape.

    Kept free of packing bookkeeping so scalar surrogates can exercise the
    identical arithmetic.
    """
    half = 1.0 - eta * dt / 2.0
    v_half = half * v - (dt / 2.0) * grad_fn(x)
    x_half = x + dt * v_half
    v_new = half * v_half - (dt / 2.0) * grad_fn(x_half)
    return x_half, v_new


def spit_step(ds: DynamicsState, p: BarrierParams, shifts: ShiftIndexSet,
              ev: BarrierEval) -> tuple[DynamicsState, BarrierEval]:
    """One damped Verlet step at fixed basis from `ev`, the evaluation at `ds`.

    The second gradient is taken on `ev.contacts` at the gauge-projected
    midpoint, which is the new state's packing, so that evaluation is
    returned with the new state.  Raises the barrier's `InfeasibleSlackError`
    when the midpoint leaves the feasible region, so the caller can backtrack
    instead of projecting mid-step.
    """
    state = ds.packing
    half = []  # (packing, evaluation) at x_half

    def grad_fn(x):
        if x is state.x:
            return ev.grad_x
        packing = state.with_x(x)
        half.append((packing, barrier_energy(packing, shifts, p, members=ev.contacts)))
        return half[0][1].grad_x

    _, v_new = verlet_update(state.x, ds.v, ds.dt, ds.eta, grad_fn)
    packing, ev_new = half[0]
    return DynamicsState(packing, gauge_project(v_new), state.x, ds.dt, ds.eta, ds.gamma), ev_new


def select_steps(L_hat: float, m_hat: float, target_eta_dt: float, c: float) -> tuple[float, float]:
    """Explicit non-circular step rule:

    dt = min(1 / sqrt(2 L), c / sqrt(L + m)) with c < 2, eta = target / dt,
    which satisfies both eta dt < 2 and L dt^2 <= 1/2 by construction.
    Checks only L > 0 and m >= 0: `RunConfig.validate` owns the ranges of
    target and c, and `DynamicsState` refuses dt <= 0 and eta dt outside (0, 2).
    """
    if L_hat <= 0.0:
        raise ValueError("curvature estimate must be positive")
    if m_hat < 0.0:
        raise ValueError("lower curvature estimate must be nonnegative")
    dt = min(1.0 / np.sqrt(2.0 * L_hat), c / np.sqrt(L_hat + m_hat))
    return float(dt), float(target_eta_dt / dt)


class CurvatureAnchors:
    """Weyl-anchored curvature bounds for one run, on one position-Hessian anchor.

    An estimate on the anchor's member list is L_hat = L_a + d and m_hat =
    max(m_a - d, 0) with d = `HessianChange.bound` >= ||H - H_a||_2 (Weyl's
    inequality on the gauge subspace), while d <= THETA L_a or, past that, L_a
    + d <= (1 + ADMIT) l with l <= lambda_max the `pair_mode_rayleigh` (tight when
    one pair squeezed toward delta is the change; m_hat then mostly reads 0).
    l only decides; Weyl certifies.  Any other estimate is a dense solve that
    becomes the anchor.  A joint estimate takes L_x so, then returns the
    block-norm bound and the basis weight W_B of `estimate_L_joint`.  `solves`
    and `updates` count the two, `admitted` the updates past THETA.
    """

    def __init__(self, p: BarrierParams):
        self.p = p
        self.key, self.change, self.L, self.m = None, None, 0.0, 0.0  # of the anchor
        self.solves = self.updates = self.admitted = 0

    def bounds(self, state: PackingState, ev: BarrierEval, joint: bool = False) -> tuple:
        """(L_hat, m_hat) of the position Hessian at `state`, or (L_hat, W_B) of the
        joint one, W_B as eigenpairs (d, V), on the contacts of `ev`, the
        evaluation there, from its separations and slacks."""
        members, K = ev.contacts, contact_blocks(ev.r, ev.slack, self.p)
        d = self.change.bound(K) if self.key == members.key else None
        admitted = d is not None and d > THETA * self.L  # past THETA, if the probe admits it
        if d is not None and (not admitted or self.L + d <= (1.0 + ADMIT)
                              * pair_mode_rayleigh(members, ev.r, K)):
            self.updates += 1
            self.admitted += admitted
            L, m = self.L + d, max(self.m - d, 0.0)
        else:
            L = self.L = estimate_L(state, members, self.p).value
            m = self.m = estimate_m(state, members, self.p).value
            self.key, self.change = members.key, HessianChange(members, K)
            self.solves += 1
        bound = estimate_L_joint(state, members, K, L) if joint else None
        return (bound.value, bound.W_B) if joint else (L, m)


def step_rule(anchors: CurvatureAnchors, state: PackingState, ev: BarrierEval,
              config) -> tuple[float, float, float, float]:
    """(dt, eta, L_hat, m_hat): `select_steps` with the config's eta_dt and c at
    the bounds of `anchors.bounds` on the contacts of `ev`, the evaluation at `state`."""
    L_hat, m_hat = anchors.bounds(state, ev)
    dt, eta = select_steps(L_hat, max(m_hat, 1e-12), config.eta_dt, config.c)
    return dt, eta, L_hat, m_hat


def _with_step(ds: DynamicsState, dt: float, eta: float, L_hat: float) -> DynamicsState:
    """`ds` under time step dt and damping eta, with gamma = 1/dt^2 - L_hat/2."""
    return dataclasses.replace(ds, dt=dt, eta=eta, gamma=1.0 / dt**2 - L_hat / 2.0)


def backtrack(ds: DynamicsState, L_hat: float) -> DynamicsState:
    """Halve the step, keep eta*dt by rescaling eta, refresh gamma."""
    dt = ds.dt / 2.0
    if dt < 1e-12:
        raise RunAbort("time step collapsed below 1e-12 while backtracking")
    return _with_step(ds, dt, ds.eta * 2.0, L_hat)


def companion_coefficients(lam: float, dt: float, eta: float) -> tuple[float, float]:
    """Exact two-term recursion coefficients of the scalar mode with curvature lam.

    Eliminating the velocity from the four update lines gives
    e_{k+1} = alpha e_k - beta e_{k-1} with, writing b = 1 - eta dt / 2,
    alpha = 1 + b^2 - (lam dt^2 / 2)(1 + b) and beta = b^2.
    """
    b = 1.0 - eta * dt / 2.0
    return 1.0 + b * b - (lam * dt * dt / 2.0) * (1.0 + b), b * b


def companion_rate(lam: float, dt: float, eta: float) -> float:
    """Largest companion-root modulus of the scalar-mode recursion."""
    alpha, beta = companion_coefficients(lam, dt, eta)
    roots = np.roots([1.0, -alpha, beta])
    return float(np.max(np.abs(roots)))


def jury_stable(alpha: float, beta: float) -> bool:
    """Both roots of z^2 - alpha z + beta strictly inside the unit circle."""
    return (1.0 - alpha + beta > 0.0) and (1.0 + alpha + beta > 0.0) and (abs(beta) < 1.0)


@dataclass
class StepRow:
    step: int
    E: float
    U: float
    kinetic: float
    min_slack: float
    lambda2: float
    dt: float
    backtracked: int
    nudged: bool
    projection: str
    # per-step descent instrument (not part of the CSV contract)
    E_before: float = float("nan")
    E_unprojected: float = float("nan")


@dataclass
class TrajectoryRecord:
    rows: list
    events: list
    final_state: DynamicsState
    terminated: str
    counts: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join([
                str(r.step),
                repr(float(r.E)), repr(float(r.U)), repr(float(r.kinetic)),
                repr(float(r.min_slack)), repr(float(r.lambda2)), repr(float(r.dt)),
                str(r.backtracked), str(int(r.nudged)), r.projection,
            ]))
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        # a zero-step run reports the initial metrics as its finals
        last = self.rows[-1] if self.rows else None
        return {
            "steps_total": len(self.rows),
            "final_E": float(last.E) if last else self.initial.get("E"),
            "final_min_slack": (float(last.min_slack) if last
                                else self.initial.get("min_slack")),
            "final_lambda2": (float(last.lambda2) if last
                              else self.initial.get("lambda2")),
            "final_volume": cell_volume(self.final_state.packing.basis),
            "initial": dict(self.initial),
            "terminated": self.terminated,
            "counts": dict(self.counts),
        }


def run_trajectory(config, initial: DynamicsState | None = None) -> TrajectoryRecord:
    """Run the full trajectory loop under a harness configuration.

    Per step: (1) reuse or refresh the curvature estimates, (2) one Verlet step
    with backtracking on energy increase or an infeasible trial, (3)
    `_safeguard`: one-pass Gauss-Seidel, escalated to the position QP when the
    margin or the energy check fails, (4) joint projection on its cadence, then
    dt by the step rule if the basis moved, (5) spectral bookkeeping and, if
    triggered, an energy-safe nudge, (6) one log row; ends on the gradient norm or max_steps.
    """
    if initial is None:
        from .harness import make_testbed
        ds = make_testbed(config)
    else:
        ds = initial

    p = BarrierParams(nu=config.nu, delta=config.delta, R=config.R)
    shifts = build_shift_set(ds.packing.basis, config.R)
    ev = barrier_energy(ds.packing, shifts, p)
    anchors = CurvatureAnchors(p)  # per run, like `solved`: repeats stay identical
    dt, eta, L_hat, m_hat = step_rule(anchors, ds.packing, ev, config)
    ds = _with_step(ds, dt, eta, L_hat)

    history = NudgeHistory(window=config.W)
    rows: list[StepRow] = []
    events: list[dict] = []
    counts = {"accepted": 0, "backtracks": 0, "nudges": 0,
              "projections_x": 0, "projections_joint": 0, "gs_repairs": 0}
    E_prev = lyapunov(ds, ev.value)
    terminated = "max_steps"
    last_joint_shift = None  # Frobenius norm of the latest basis move
    solved = {}  # the last Fiedler value and its pair edges, for `_spectrum`
    initial_metrics = {
        "E": E_prev,
        "U": ev.value,
        "min_slack": ev.min_slack,
        "lambda2": _spectrum(ds.packing, ev, config.eps_active, solved)[1],
        "volume": cell_volume(ds.packing.basis),
    }

    for k in range(1, config.max_steps + 1):
        if k > 1 and (k - 1) % REFRESH_STEPS == 0:
            ev = barrier_energy(ds.packing, shifts, p)
            L_hat, m_hat = anchors.bounds(ds.packing, ev)
            E_prev = lyapunov(ds, ev.value)

        if frobenius(ev.grad_x) <= config.grad_tol \
                and _joint_quiescent(ds, ev, config, last_joint_shift):
            terminated = "gradient"
            break

        backtracks = 0
        while True:
            try:
                tentative, ev_cand = spit_step(ds, p, shifts, ev)
                E_unproj = lyapunov(tentative, ev_cand.value)
                accepted = _safeguard(tentative, ev_cand, E_unproj, E_prev, p, shifts, L_hat,
                                      counts, events, k)
            except InfeasibleSlackError:  # the midpoint or its repair left the region
                E_unproj, accepted = float("nan"), None
            if accepted is not None:
                break
            backtracks += 1
            counts["backtracks"] += 1
            if backtracks % 2 == 0:
                L_hat, m_hat = anchors.bounds(ds.packing, ev)
            ds = backtrack(ds, L_hat)
            E_prev = lyapunov(ds, ev.value)

        E_before = E_prev
        ds, ev, E_prev, projection = accepted
        dt_step = ds.dt
        counts["accepted"] += 1

        if config.joint_period and k % config.joint_period == 0:
            Lj, W_B = anchors.bounds(ds.packing, ev, joint=True)
            try:
                B_old = ds.packing.basis.B
                ds, info, ev = e_project_joint(ds, ev, p, shifts, L_x=max(Lj, L_hat), W_B=W_B,
                                               volume_weight=config.volume_weight)
                near = info.pop("near")
                events.append({"step": k, **info})
                counts["projections_joint"] += 1
                last_joint_shift = frobenius(ds.packing.basis.B - B_old)
                projection += "+joint"
                if info["basis_moved"]:  # the projection has scanned the new cell
                    if near.key != ev.contacts.key:  # `ev` was taken on the old member list
                        ev = barrier_energy(ds.packing, shifts, p, members=near)
                    dt, _, L_hat, m_hat = step_rule(anchors, ds.packing, ev, config)
                    ds, gamma = _with_step(ds, dt, ds.eta * (ds.dt / dt), L_hat), ds.gamma
                    if ds.gamma > gamma:  # it would weigh the step memory more: drop that
                        ds = dataclasses.replace(ds, x_prev=ds.x)
                E_prev = lyapunov(ds, ev.value)
            except FeasibilityError as exc:
                logger.warning("joint projection skipped at step %d: %s", k, exc)

        edges, lam2 = _spectrum(ds.packing, ev, config.eps_active, solved)
        nudged = False
        if (edges is not None and len(history) > 0
                and nudge_trigger(history, lam2, config.kappa, m_hat, L_hat, k, config.K)):
            applied = _apply_nudge(ds, ev, p, shifts, L_hat, config, E_prev, counts, events, k)
            if applied is not None:
                ds, ev, E_prev = applied
                history.last_nudge = k
                counts["nudges"] += 1
                nudged = True
        history.push(lam2)

        rows.append(StepRow(step=k, E=E_prev, U=ev.value,
                            kinetic=0.5 * float((ds.v * ds.v).sum()), min_slack=ev.min_slack,
                            lambda2=lam2, dt=dt_step, backtracked=backtracks, nudged=nudged,
                            projection=projection, E_before=E_before, E_unprojected=E_unproj))

    counts.update(curvature_solves=anchors.solves, curvature_updates=anchors.updates,
                  curvature_admitted=anchors.admitted)
    return TrajectoryRecord(rows=rows, events=events, final_state=ds, terminated=terminated,
                            counts=counts, initial=initial_metrics)


def _spectrum(state, ev, eps, solved) -> tuple:
    """(`pair_edges_of(ev, eps)`, lambda2), or (None, 0) without an edge;
    lambda2 is solved only when the edges differ from the last solve's in `solved`."""
    edges = pair_edges_of(ev, eps)
    if edges is None:
        return None, 0.0
    if not np.array_equal(edges, solved.get("edges")):
        solved.update(edges=edges, lambda2=fiedler_value(state.N, edges))
    return edges, solved["lambda2"]


def _joint_quiescent(ds, ev, config, last_joint_shift) -> bool:
    """Is the basis subproblem converged enough to stop the run?

    Cheap gradient termination alone is wrong when joint projections carry a
    pending cell update: the position gradient scales with the barrier
    strength and says nothing about the basis block.
    """
    if not config.joint_period:
        return True
    bscale = max(1.0, frobenius(ds.packing.basis.B))
    if last_joint_shift is not None and last_joint_shift <= 1e-9 * bscale:
        return True
    gB = ev.grad_B
    if config.volume_weight:
        gB = gB + config.volume_weight * volume_gradient(ds.packing.basis)
    return frobenius(gB) <= config.grad_tol * bscale


def _safeguard(cand, ev, E, E_ref, p, shifts, L_hat, counts, events, step):
    """Accept a move to `cand` (evaluation `ev`, energy `E`) or return None.

    A slack below delta gets a Gauss-Seidel sweep; a slack below delta
    (1 - _SLACK_GUARD) or E above `E_ref` escalates to the position QP, whose
    result must not exceed `E_ref`.  Returns (state, evaluation, energy, tag);
    a sweep that leaves a slack <= 0 raises the barrier's `InfeasibleSlackError`.
    """
    tag = "none"
    if ev.min_slack < p.delta * (1.0 - _GS_GUARD):
        near = contacts_within(cand.packing, shifts, p.R)
        repaired, changed = gs_project_once(cand.packing, near, p.delta)
        if changed:
            cand = dataclasses.replace(cand, packing=repaired)
            ev = barrier_energy(repaired, shifts, p, members=ev.contacts)
            E = lyapunov(cand, ev.value)
            tag = "gs"
            counts["gs_repairs"] += 1
    if ev.min_slack >= p.delta * (1.0 - _SLACK_GUARD) and E <= E_ref + 1e-10:
        return cand, ev, E, tag
    try:
        proj, info, ev_proj = e_project_x(cand, ev, p, shifts, L_hat)
    except FeasibilityError as exc:
        logger.debug("projection failed at step %d: %s", step, exc)
        return None
    events.append({"step": step, **info})
    counts["projections_x"] += 1
    if info["E_after"] > E_ref + 1e-10:
        return None
    return proj, ev_proj, info["E_after"], "gs+qp" if tag == "gs" else "qp"


def _apply_nudge(ds, ev, p, shifts, L_hat, config, E_ref, counts, events, step):
    """Lift the contact graph's Fiedler mode, size the step, and halve it until
    `_safeguard` accepts it (an infeasible trial is halved too).  Returns (state,
    its evaluation, energy) or None.  `ev` is the evaluation at `ds` on the member list.
    """
    graph = build_contact_graph(ds.packing, ev.contacts.take(near_rows(ev, config.eps_active)))
    dxm = lift_mode(ds.packing, graph, fiedler(graph)[1])
    near = build_contact_graph(ds.packing, ev.contacts.take(near_rows(ev, config.eps_near)))
    gbar = ev.grad_x + ds.gamma * (ds.packing.x - ds.x_prev)
    a, flipped = nudge_alpha(ds, dxm, near, L_hat, gbar)
    if a <= 0.0 or not np.isfinite(a):
        return None
    dxs = -dxm if flipped else dxm
    for _ in range(30):
        trial = dataclasses.replace(
            ds, packing=ds.packing.with_x(gauge_project(ds.packing.x + a * dxs)))
        try:
            ev_trial = barrier_energy(trial.packing, shifts, p, members=ev.contacts)
            accepted = _safeguard(trial, ev_trial, lyapunov(trial, ev_trial.value), E_ref,
                                  p, shifts, L_hat, counts, events, step)
        except InfeasibleSlackError:
            accepted = None
        if accepted is not None:
            trial, ev_trial, e_new, tag = accepted
            events.append({"step": step, "kind": "nudge", "alpha": a, "flipped": flipped,
                           "projection": tag, "E_before": E_ref, "E_after": e_new})
            return trial, ev_trial, e_new
        a *= 0.5
    return None
