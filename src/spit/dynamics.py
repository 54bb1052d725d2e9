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
`barrier.estimate_L`, a dense eigensolve of the position Hessian plus its
roundoff margin, so it is a certified upper bound at the state where it is
taken.  Between refreshes the curvature can still grow, so the trajectory
loop also checks descent directly: steps that raise E (or leave the feasible
region) are redone with a halved time step.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from .barrier import (
    BarrierParams,
    barrier_energy,
    barrier_value,
    estimate_L,
    estimate_L_joint,
    estimate_m,
)
from .errors import (
    FeasibilityError,
    InfeasibleSlackError,
    LinearizedInfeasibleError,
    MidpointInfeasibleError,
    RunAbort,
)
from .geometry import (
    Contacts,
    PackingState,
    ShiftIndexSet,
    build_shift_set,
    cell_volume,
    contacts_within,
    gauge_project,
    min_slack_of,
    volume_gradient,
)
from .projection import e_project_joint, e_project_x, gs_project_once, lyapunov
from .spectral import (
    NudgeHistory,
    build_contact_graph,
    fiedler,
    lift_mode,
    nudge_alpha,
    nudge_trigger,
)

logger = logging.getLogger("spit")

CSV_COLUMNS = ("step", "E", "U", "kinetic", "min_slack", "lambda2", "dt",
               "backtracked", "nudged", "projection")
REFRESH_STEPS = 25  # the member list and curvature bounds are rebuilt this often


@dataclass(frozen=True)
class DynamicsState:
    """Packing plus velocity, previous positions, and step parameters."""

    packing: PackingState
    v: np.ndarray
    x_prev: np.ndarray
    dt: float
    eta: float
    gamma: float
    step_index: int = 0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if not (0.0 < self.eta * self.dt < 2.0):
            raise ValueError("damping-step product must lie in (0, 2)")

    @property
    def x(self) -> np.ndarray:
        return self.packing.x


def lyapunov_energy(ds: DynamicsState, p: BarrierParams, shifts: ShiftIndexSet,
                    members: Contacts | None = None) -> float:
    """Barrier value plus kinetic energy plus the gamma-weighted step memory."""
    return lyapunov(ds, barrier_value(ds.packing, shifts, p, members=members))


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
              members: Contacts | None = None,
              grad0: np.ndarray | None = None) -> DynamicsState:
    """One damped Verlet step at fixed basis; output is gauge-projected.

    Signals "midpoint infeasible" when the second gradient cannot be
    evaluated, so the caller can backtrack instead of projecting mid-step.
    """
    state = ds.packing

    def grad_fn(x):
        if grad0 is not None and x is state.x:
            return grad0
        try:
            return barrier_energy(state.with_x(x), shifts, p, members=members).grad_x
        except InfeasibleSlackError as exc:
            raise MidpointInfeasibleError("midpoint infeasible") from exc

    # the first gradient is at the current (feasible) state: surface its errors as-is
    if grad0 is None:
        grad0 = barrier_energy(state, shifts, p, members=members).grad_x
    x_new, v_new = verlet_update(state.x, ds.v, ds.dt, ds.eta, grad_fn)
    return dataclasses.replace(
        ds,
        packing=state.with_x(gauge_project(x_new)),
        v=gauge_project(v_new),
        x_prev=state.x,
        step_index=ds.step_index + 1,
    )


def select_steps(L_hat: float, m_hat: float, target_eta_dt: float, c: float) -> tuple[float, float]:
    """Explicit non-circular step rule:

    dt = min(1 / sqrt(2 L), c / sqrt(L + m)) with c < 2, eta = target / dt,
    which satisfies both eta dt < 2 and L dt^2 <= 1/2 by construction.
    """
    if L_hat <= 0.0:
        raise ValueError("curvature estimate must be positive")
    if m_hat < 0.0:
        raise ValueError("lower curvature estimate must be nonnegative")
    if not (0.5 < target_eta_dt < 1.5):
        raise ValueError("target damping-step product must lie in (0.5, 1.5)")
    if not (0.0 < c < 2.0):
        raise ValueError("rate constant c must lie in (0, 2)")
    dt = min(1.0 / np.sqrt(2.0 * L_hat), c / np.sqrt(L_hat + m_hat))
    return float(dt), float(target_eta_dt / dt)


def rest_state(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams, config,
               members: Contacts) -> tuple[DynamicsState, float, float]:
    """`state` at rest (v = 0, x_prev = x) under the step rule at its curvature.

    Bounds L_hat from above and m_hat from below on `members`, and picks
    (dt, eta) by `select_steps` with the config's eta_dt and c.  Returns the
    resting state, whose gamma is 1/dt^2 - L_hat/2, with (L_hat, m_hat).
    """
    L_hat = estimate_L(state, shifts, p, members=members).value
    m_hat = estimate_m(state, shifts, p, members=members).value
    dt, eta = select_steps(L_hat, max(m_hat, 1e-12), config.eta_dt, config.c)
    ds = DynamicsState(packing=state, v=np.zeros_like(state.x), x_prev=state.x.copy(),
                       dt=dt, eta=eta, gamma=1.0 / dt**2 - L_hat / 2.0)
    return ds, L_hat, m_hat


def backtrack(ds: DynamicsState, L_hat: float) -> DynamicsState:
    """Halve the step, keep eta*dt by rescaling eta, refresh gamma."""
    dt = ds.dt / 2.0
    if dt < 1e-12:
        raise RunAbort("time step collapsed below 1e-12 while backtracking")
    return dataclasses.replace(ds, dt=dt, eta=ds.eta * 2.0,
                               gamma=1.0 / dt**2 - L_hat / 2.0)


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

    Per step: (1) reuse or refresh the curvature estimates, (2) one Verlet
    step with backtracking on energy increase or midpoint infeasibility,
    (3) one-pass Gauss-Seidel, escalated to the position QP when the margin
    or the energy check fails, (4) joint basis projection on its cadence,
    (5) spectral bookkeeping and, when triggered, an energy-safe nudge,
    (6) one log row.  Terminates on the gradient norm or max_steps.
    """
    if initial is None:
        from .harness import make_testbed
        ds = make_testbed(config)
    else:
        ds = initial

    p = BarrierParams(nu=config.nu, delta=config.delta, R=config.R)
    shifts = build_shift_set(ds.packing.basis, config.R)
    members = contacts_within(ds.packing, shifts, config.R)
    rest, L_hat, m_hat = rest_state(ds.packing, shifts, p, config, members)
    ds = dataclasses.replace(ds, dt=rest.dt, eta=rest.eta, gamma=rest.gamma)

    history = NudgeHistory(window=config.W)
    rows: list[StepRow] = []
    events: list[dict] = []
    counts = {"accepted": 0, "backtracks": 0, "nudges": 0,
              "projections_x": 0, "projections_joint": 0, "gs_repairs": 0}
    margin = config.delta * (1.0 - 1e-6)
    E_prev = lyapunov_energy(ds, p, shifts, members)
    terminated = "max_steps"
    last_joint_shift = None  # Frobenius norm of the latest basis move
    if ds.packing.N >= 2:
        lam2_init = fiedler(build_contact_graph(ds.packing, shifts, config.eps_active,
                                                base=members))[0]
    else:
        lam2_init = 0.0
    initial_metrics = {
        "E": E_prev,
        "U": barrier_value(ds.packing, shifts, p, members=members),
        "min_slack": min_slack_of(ds.packing, members),
        "lambda2": lam2_init,
        "volume": cell_volume(ds.packing.basis),
    }

    for k in range(1, config.max_steps + 1):
        if k > 1 and (k - 1) % REFRESH_STEPS == 0:
            members = contacts_within(ds.packing, shifts, config.R)
            _, L_hat, m_hat = rest_state(ds.packing, shifts, p, config, members)
            E_prev = lyapunov_energy(ds, p, shifts, members)

        ev = barrier_energy(ds.packing, shifts, p, members=members)
        if float(np.linalg.norm(ev.grad_x)) <= config.grad_tol \
                and _joint_quiescent(ds, ev, config, last_joint_shift):
            terminated = "gradient"
            break

        backtracks = 0
        while True:
            projection = "none"
            try:
                tentative = spit_step(ds, p, shifts, members=members, grad0=ev.grad_x)
                E_unproj = lyapunov_energy(tentative, p, shifts, members)
            except MidpointInfeasibleError:
                tentative = None
                E_unproj = float("nan")
            accepted = None
            if tentative is not None:
                cand = tentative
                if min_slack_of(cand.packing, members) < config.delta * (1.0 - 1e-12):
                    repaired, changed = gs_project_once(cand.packing, shifts, config.delta)
                    if changed:
                        cand = dataclasses.replace(cand, packing=repaired)
                        projection = "gs"
                        counts["gs_repairs"] += 1
                E_cand = lyapunov_energy(cand, p, shifts, members)
                need_qp = (min_slack_of(cand.packing, members) < margin
                           or E_cand > E_prev + 1e-10)
                if not need_qp:
                    accepted = (cand, E_cand)
                else:
                    try:
                        proj, info = e_project_x(cand, p, shifts, L_hat, members=members)
                        events.append({"step": k, **info})
                        counts["projections_x"] += 1
                        E_proj = info["E_after"]
                        if E_proj <= E_prev + 1e-10:
                            projection = "gs+qp" if projection == "gs" else "qp"
                            accepted = (proj, E_proj)
                    except (LinearizedInfeasibleError, FeasibilityError) as exc:
                        logger.debug("projection failed at step %d: %s", k, exc)
            if accepted is not None:
                break
            backtracks += 1
            counts["backtracks"] += 1
            if backtracks > 60:
                raise RunAbort(f"no acceptable step after {backtracks} backtracks at step {k}")
            if backtracks % 2 == 0:
                _, L_hat, m_hat = rest_state(ds.packing, shifts, p, config, members)
            ds = backtrack(ds, L_hat)
            E_prev = lyapunov_energy(ds, p, shifts, members)

        cand, E_cand = accepted
        row = StepRow(step=k, E=E_cand, U=0.0, kinetic=0.0, min_slack=0.0,
                      lambda2=0.0, dt=cand.dt, backtracked=backtracks, nudged=False,
                      projection=projection, E_before=E_prev, E_unprojected=E_unproj)
        ds = cand
        E_prev = E_cand
        counts["accepted"] += 1

        if config.joint_period and k % config.joint_period == 0:
            Lj = estimate_L_joint(ds.packing, shifts, p, members=members).value
            try:
                B_old = ds.packing.basis.B
                ds2, info = e_project_joint(ds, p, shifts, L_x=max(Lj, L_hat), L_B=Lj,
                                            volume_weight=config.volume_weight,
                                            members=members)
                events.append({"step": k, **info})
                counts["projections_joint"] += 1
                basis_moved = info.get("basis_moved", False)
                last_joint_shift = float(np.linalg.norm(ds2.packing.basis.B - B_old))
                ds = ds2
                row.projection = row.projection + "+joint"
                if basis_moved:
                    shifts = build_shift_set(ds.packing.basis, config.R)
                    members = contacts_within(ds.packing, shifts, config.R)
                    rest, L_hat, m_hat = rest_state(ds.packing, shifts, p, config, members)
                    if rest.dt < ds.dt:
                        scale = ds.dt / rest.dt
                        ds = dataclasses.replace(ds, dt=rest.dt, eta=ds.eta * scale)
                    ds = dataclasses.replace(ds, gamma=1.0 / ds.dt**2 - L_hat / 2.0)
                E_prev = lyapunov_energy(ds, p, shifts, members)
            except (LinearizedInfeasibleError, FeasibilityError) as exc:
                logger.warning("joint projection skipped at step %d: %s", k, exc)

        graph = build_contact_graph(ds.packing, shifts, config.eps_active, base=members)
        if ds.packing.N >= 2:
            lam2, fvec = fiedler(graph)
        else:
            lam2, fvec = 0.0, None
        nudged = False
        if (fvec is not None and len(history) > 0
                and nudge_trigger(history, lam2, config.kappa, m_hat, L_hat, k, config.K)):
            applied = _apply_nudge(ds, p, shifts, members, graph, fvec, L_hat,
                                   config, E_prev, events, k)
            if applied is not None:
                ds, E_prev = applied
                history.last_nudge = k
                counts["nudges"] += 1
                nudged = True
        history.push(lam2)

        row.E = E_prev
        row.U = barrier_value(ds.packing, shifts, p, members=members)
        row.kinetic = 0.5 * float(np.sum(ds.v * ds.v))
        row.min_slack = min_slack_of(ds.packing, members)
        row.lambda2 = lam2
        row.nudged = nudged
        rows.append(row)

    record = TrajectoryRecord(rows=rows, events=events, final_state=ds,
                              terminated=terminated, counts=counts,
                              initial=initial_metrics)
    return record


def _joint_quiescent(ds, ev, config, last_joint_shift) -> bool:
    """Is the basis subproblem converged enough to stop the run?

    Cheap gradient termination alone is wrong when joint projections carry a
    pending cell update: the position gradient scales with the barrier
    strength and says nothing about the basis block.
    """
    if not config.joint_period:
        return True
    bscale = max(1.0, float(np.linalg.norm(ds.packing.basis.B)))
    if last_joint_shift is not None and last_joint_shift <= 1e-9 * bscale:
        return True
    gB = ev.grad_B
    if config.volume_weight:
        gB = gB + config.volume_weight * volume_gradient(ds.packing.basis)
    return float(np.linalg.norm(gB)) <= config.grad_tol * bscale


def _apply_nudge(ds, p, shifts, members, graph, fvec, L_hat, config, E_ref, events, step):
    """Lift the Fiedler mode, size the step, apply with the energy guard.

    Halves the step size until the post-enforcement energy is nonexpansive;
    returns (state, energy) or None when no admissible size survives.
    """
    dxm = lift_mode(ds.packing, graph, fvec)
    near = build_contact_graph(ds.packing, shifts, config.eps_near, base=members)
    ev = barrier_energy(ds.packing, shifts, p, members=members)
    gbar = ev.grad_x + ds.gamma * (ds.packing.x - ds.x_prev)
    alpha, flipped = nudge_alpha(ds, dxm, near, L_hat, gbar)
    if alpha <= 0.0 or not np.isfinite(alpha):
        return None
    dxs = -dxm if flipped else dxm
    a = alpha
    margin = config.delta * (1.0 - 1e-6)
    for _ in range(30):
        trial = dataclasses.replace(
            ds, packing=ds.packing.with_x(gauge_project(ds.packing.x + a * dxs)))
        if min_slack_of(trial.packing, members) < margin:
            repaired, _ = gs_project_once(trial.packing, shifts, config.delta)
            trial = dataclasses.replace(trial, packing=repaired)
            if min_slack_of(trial.packing, members) < margin:
                try:
                    trial, info = e_project_x(trial, p, shifts, L_hat, members=members)
                    events.append({"step": step, **info})
                except (LinearizedInfeasibleError, FeasibilityError):
                    a *= 0.5
                    continue
        e_new = lyapunov_energy(trial, p, shifts, members)
        if e_new <= E_ref + 1e-10:
            events.append({"step": step, "kind": "nudge", "alpha": a,
                           "flipped": flipped, "E_before": E_ref, "E_after": e_new})
            return trial, e_new
        a *= 0.5
    return None
