"""Integrator arithmetic, step rules, Lyapunov descent, trajectory loop."""

import dataclasses
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import floats as st_floats
from hypothesis.strategies import integers as st_integers
from hypothesis.strategies import lists as st_lists
from hypothesis.strategies import sampled_from
from util import (
    big_cell,
    gauge_eigs,
    hex_two_sphere,
    majorizer_gap,
    make_ds,
    members_within,
    pair_state,
    ref_hessian,
    ref_spectrum,
)

from spit import barrier, dynamics, geometry, harness, projection
from spit.barrier import (
    BarrierParams,
    HessianChange,
    barrier_energy,
    barrier_value,
    contact_blocks,
    estimate_L,
    estimate_L_joint,
    estimate_m,
    hessian,
    pair_mode_rayleigh,
)
from spit.dynamics import (
    CurvatureAnchors,
    DynamicsState,
    backtrack,
    companion_coefficients,
    companion_rate,
    jury_stable,
    lyapunov_energy,
    run_trajectory,
    select_steps,
    spit_step,
    step_rule,
    verlet_update,
)
from spit.errors import InfeasibleSlackError, RunAbort, SingularBasisError
from spit.geometry import (
    LatticeBasis,
    PackingState,
    ShiftIndexSet,
    build_shift_set,
    contacts_within,
    gauge_project,
    min_slack,
    min_slack_of,
    r_vectors,
)
from spit.harness import RunConfig, certify, config_from_preset, make_testbed, random_feasible_state
from spit.spectral import build_contact_graph, near_rows, pair_edges_of

P = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)


def test_lyapunov_reduces_to_barrier_at_rest():
    st = pair_state(2.1)
    shifts = build_shift_set(st.basis, P.R)
    ds = make_ds(st, P, L_hat=1.0)
    assert lyapunov_energy(ds, P, shifts) == barrier_value(st, shifts, P)


def test_lyapunov_kinetic_term():
    st = pair_state(2.1)
    shifts = build_shift_set(st.basis, P.R)
    v = np.array([[2.0, 0.0], [0.0, 0.0]])  # ||v|| = 2
    ds = make_ds(st, P, L_hat=1.0, v=v)
    ds = dataclasses.replace(ds, gamma=0.0)
    assert lyapunov_energy(ds, P, shifts) == pytest.approx(
        barrier_value(st, shifts, P) + 2.0)


def test_lyapunov_deterministic():
    st = hex_two_sphere()
    shifts = build_shift_set(st.basis, P.R)
    ds = make_ds(st, P, L_hat=5.0, v=np.full_like(st.x, 0.1),
                 x_prev=st.x + 0.01)
    assert lyapunov_energy(ds, P, shifts) == lyapunov_energy(ds, P, shifts)


def test_spit_step_fixed_point():
    st = pair_state(10.0)  # no contacts: zero gradient
    shifts = build_shift_set(st.basis, P.R)
    ds = make_ds(st, P, L_hat=1.0)
    out, ev = spit_step(ds, P, shifts, barrier_energy(st, shifts, P))
    assert np.array_equal(out.packing.x, st.x)
    assert ev.value == 0.0 and np.all(ev.grad_x == 0.0)
    assert np.all(out.v == 0.0)


def test_scalar_recursion_matches_symbolic_elimination():
    """Drive the update lines on a scalar quadratic and compare against the
    two-term recursion obtained by eliminating the velocity symbolically."""
    sp = pytest.importorskip("sympy")
    dt_s, eta_s, lam_s, x_s, v_s = sp.symbols("dt eta lam x v")
    v_half = v_s - (eta_s * dt_s / 2) * v_s - (dt_s / 2) * lam_s * x_s
    x_new = x_s + dt_s * v_half
    v_new = (1 - eta_s * dt_s / 2) * v_half - (dt_s / 2) * lam_s * x_new
    A = sp.Matrix([[sp.expand(x_new).coeff(x_s), sp.expand(x_new).coeff(v_s)],
                   [sp.expand(v_new).coeff(x_s), sp.expand(v_new).coeff(v_s)]])
    alpha_sym = sp.lambdify((lam_s, dt_s, eta_s), sp.simplify(A.trace()))
    beta_sym = sp.lambdify((lam_s, dt_s, eta_s), sp.simplify(A.det()))

    lam, dt, eta = 3.7, 0.25, 2.0
    alpha, beta = alpha_sym(lam, dt, eta), beta_sym(lam, dt, eta)
    a_imp, b_imp = companion_coefficients(lam, dt, eta)
    assert a_imp == pytest.approx(alpha, rel=1e-14)
    assert b_imp == pytest.approx(beta, rel=1e-14)

    # iterate the actual update lines and the recursion side by side
    x, v = np.array(1.0), np.array(0.0)
    xs = [float(x)]
    for _ in range(60):
        x, v = verlet_update(x, v, dt, eta, lambda q: lam * q)
        xs.append(float(x))
    for k in range(2, len(xs)):
        want = alpha * xs[k - 1] - beta * xs[k - 2]
        assert xs[k] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_select_steps_formula():
    dt, eta = select_steps(2.0, 0.0, target_eta_dt=1.0, c=1.9)
    assert dt == pytest.approx(0.5)
    assert eta == pytest.approx(2.0)
    assert eta * dt == pytest.approx(1.0)
    assert 2.0 * dt**2 == pytest.approx(0.5)  # the curvature branch binds
    with pytest.raises(ValueError):
        select_steps(0.0, 0.0, 1.0, 1.9)


def test_select_steps_respects_both_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        L = float(rng.uniform(1e-3, 1e5))
        m = float(rng.uniform(0, L))
        t = float(rng.uniform(0.51, 1.49))
        dt, eta = select_steps(L, m, t, c=1.9)
        assert 0 < eta * dt < 2
        assert L * dt**2 <= 0.5 + 1e-12


def test_backtrack_halves_and_preserves_product():
    st = hex_two_sphere()
    ds = make_ds(st, P, L_hat=8.0, dt=0.5)
    out = backtrack(ds, L_hat=8.0)
    assert out.dt == pytest.approx(0.25)
    assert out.eta * out.dt == pytest.approx(ds.eta * ds.dt)
    assert out.gamma == pytest.approx(1.0 / 0.25**2 - 4.0)
    assert out.gamma > ds.gamma


def test_backtrack_aborts_below_floor():
    st = hex_two_sphere()
    ds = make_ds(st, P, L_hat=8.0, dt=1e-12)
    with pytest.raises(RunAbort):
        backtrack(ds, L_hat=8.0)


def test_backtracking_reaches_descent():
    # start with a wildly underestimated curvature: halvings restore descent
    st = hex_two_sphere()
    shifts = build_shift_set(st.basis, P.R)
    L_true = estimate_L(st, contacts_within(st, shifts, P.R), P).value
    L_bad = L_true / 1e4
    rng = np.random.default_rng(2)
    v = rng.standard_normal(st.x.shape)
    v -= v.mean(axis=0)
    v *= 0.05 / np.linalg.norm(v)
    ds = make_ds(st, P, L_hat=L_bad, v=v)
    for halvings in range(41):
        e0 = lyapunov_energy(ds, P, shifts)
        try:
            out, _ = spit_step(ds, P, shifts, barrier_energy(ds.packing, shifts, P))
            e1 = lyapunov_energy(out, P, shifts)
            if e1 <= e0 + 1e-10:
                break
        except InfeasibleSlackError:
            pass
        ds = backtrack(ds, L_hat=L_bad)
    else:
        pytest.fail("no descending step within 40 halvings")
    assert halvings <= 40


def _five_spheres(ab_slack: float, hub_slack: float) -> PackingState:
    """A at -x of the hub B, then C, D, E around B at 0 and +-60 degrees."""
    a, r = np.sqrt(4.0 + ab_slack), np.sqrt(4.0 + hub_slack)
    hub = [[r * np.cos(t), r * np.sin(t)] for t in np.radians([0, 60, -60])]
    x = [[-a, 0.0], [0.0, 0.0]] + hub
    return PackingState.make(np.array(x), LatticeBasis(40.0 * np.eye(2)))


def test_safeguard_repair_into_an_overlap_is_backtracked(monkeypatch):
    # the sweep repairs A-B first; B's three later repairs all push B toward A,
    # so the best-effort sweep leaves A-B at -0.18 delta, where the barrier
    # cannot be evaluated: the loop must redo the step, not abort
    cand = make_ds(_five_spheres(0.2 * P.delta, 1e-7), P, L_hat=1.0)
    shifts = build_shift_set(cand.packing.basis, P.R)
    ev = barrier_energy(cand.packing, shifts, P)
    with pytest.raises(InfeasibleSlackError):
        dynamics._safeguard(cand, ev, lyapunov_energy(cand, P, shifts), np.inf, P, shifts, 1.0,
                            {"gs_repairs": 0}, [], 1)
    # a run from a roomy five-sphere state whose first trial lands on `cand`
    step, calls = dynamics.spit_step, []

    def first_lands_on_cand(ds, p, shifts, ev):
        calls.append(ds.dt)
        if len(calls) > 1:
            return step(ds, p, shifts, ev)
        return dataclasses.replace(ds, packing=cand.packing), \
            barrier_energy(cand.packing, shifts, p, members=ev.contacts)

    start = DynamicsState.at_rest(_five_spheres(0.05, 0.05))
    monkeypatch.setattr(dynamics, "spit_step", first_lands_on_cand)
    record = run_trajectory(RunConfig(N=5, max_steps=3, joint_period=0, unsafe=True), start)
    assert len(record.rows) == 3 and record.counts["backtracks"] == 1
    assert record.rows[0].backtracked == 1 and record.rows[0].dt == calls[0] / 2


def test_run_backtracks_a_trial_whose_safeguard_raises(monkeypatch):
    safeguard, calls = dynamics._safeguard, []

    def third_raises(*args):
        calls.append(args[-1])
        if len(calls) == 3:
            raise InfeasibleSlackError("repair left a slack nonpositive")
        return safeguard(*args)

    monkeypatch.setattr(dynamics, "_safeguard", third_raises)
    record = run_trajectory(config_from_preset("stub32", max_steps=20))
    assert len(record.rows) == 20 and record.counts["backtracks"] == 1
    assert [r.backtracked for r in record.rows][:4] == [0, 0, 1, 0]


def test_jury_conditions_along_selected_steps():
    st = hex_two_sphere()
    near = contacts_within(st, build_shift_set(st.basis, P.R), P.R)
    L = estimate_L(st, near, P).value
    m = estimate_m(st, near, P).value
    dt, eta = select_steps(L, max(m, 1e-12), 1.0, 1.9)
    for lam in np.linspace(max(m, 1e-12), L, 64):
        alpha, beta = companion_coefficients(lam, dt, eta)
        assert jury_stable(alpha, beta)
        assert companion_rate(lam, dt, eta) < 1.0


def test_unprojected_descent_short_run():
    cfg = RunConfig(N=8, max_steps=120, joint_period=0, seed=3, unsafe=True)
    rec = run_trajectory(cfg)
    assert len(rec.rows) == 120
    for r in rec.rows:
        assert r.E_unprojected <= r.E_before + 1e-10


def test_gauge_preserved_along_trajectory():
    cfg = RunConfig(N=8, max_steps=60, seed=5, unsafe=True)
    rec = run_trajectory(cfg)
    ds = rec.final_state
    N = ds.packing.N
    assert np.max(np.abs(ds.packing.x.sum(axis=0))) <= 1e-10 * N
    assert np.max(np.abs(ds.v.sum(axis=0))) <= 1e-10 * N


def test_run_terminates_immediately_at_zero_gradient():
    st = pair_state(10.0)
    shifts = build_shift_set(st.basis, P.R)
    ds = make_ds(st, P, L_hat=1.0)
    cfg = RunConfig(N=2, max_steps=50, unsafe=True)
    rec = run_trajectory(cfg, initial=ds)
    assert rec.terminated == "gradient"
    assert len(rec.rows) == 0


def test_run_gradient_termination_and_event_log():
    cfg = RunConfig(N=4, max_steps=4000, grad_tol=1e-6, joint_period=0,
                    seed=11, unsafe=True)
    rec = run_trajectory(cfg)
    assert rec.terminated in ("gradient", "max_steps")
    if rec.terminated == "gradient":
        assert len(rec.rows) < 4000
    assert rec.counts["accepted"] == len(rec.rows)


def test_trajectory_rows_are_well_formed():
    cfg = config_from_preset("stub32", max_steps=30)
    rec = run_trajectory(cfg)
    csv = rec.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "step,E,U,kinetic,min_slack,lambda2,dt,backtracked,nudged,projection"
    assert len(lines) == 31
    for r in rec.rows:
        assert r.min_slack >= cfg.delta * (1 - 1e-6)
        assert np.isfinite(r.E) and np.isfinite(r.U)


def test_apply_nudge_inside_loop_is_energy_safe():
    # drive the loop's nudge body directly: the trigger rarely fires on the
    # healthy testbeds, but the applied move must respect the energy guard
    from spit.dynamics import _apply_nudge
    from spit.harness import random_feasible_state
    from spit.geometry import contacts_within
    from spit.projection import lyapunov

    applied_any = False
    for seed in range(8):
        st = random_feasible_state(seed=900 + seed, N=6, delta=0.02)
        shifts = build_shift_set(st.basis, P.R)
        members = contacts_within(st, shifts, P.R)
        L = estimate_L(st, members, P).value
        ds = make_ds(st, P, L_hat=L)
        if len(contacts_within(st, shifts, 2.1)) == 0:  # no edge at eps_active
            continue
        cfg = RunConfig(N=6, eps_active=0.1, unsafe=True)
        events = []
        E_ref = lyapunov(ds, barrier_value(st, shifts, P, members=members))
        ev = barrier_energy(st, shifts, P, members=members)
        counts = {"gs_repairs": 0, "projections_x": 0}
        out = _apply_nudge(ds, ev, P, shifts, L, cfg, E_ref, counts, events, step=1)
        if out is None:
            continue
        ds_new, ev_new, e_new = out
        applied_any = True
        assert e_new <= E_ref + 1e-10
        assert e_new == lyapunov(ds_new,
                                 barrier_value(ds_new.packing, shifts, P, members=members))
        assert np.array_equal(ev_new.grad_x,
                              barrier_energy(ds_new.packing, shifts, P, members=members).grad_x)
        assert min_slack(ds_new.packing, shifts, P.R) >= cfg.delta * (1 - 1e-6)
        assert any(e.get("kind") == "nudge" for e in events)
    assert applied_any


def test_apply_nudge_repairs_through_the_safeguard():
    # the mode's geometric cap only keeps gaps open, so on this testbed the
    # first admissible trial squeezes a pair below delta: Gauss-Seidel and the
    # position QP repair it, and the repairs land in the run's counts (a rare
    # testbed: of seeds 0-299 only this one takes both repairs)
    from spit.dynamics import _apply_nudge
    from spit.projection import lyapunov

    st = random_feasible_state(seed=284, N=6, delta=P.delta, inflate=0.0, jitter=0.02)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    L = estimate_L(st, members, P).value
    ds = make_ds(st, P, L_hat=L)
    ev = barrier_energy(st, shifts, P, members=members)
    E_ref = lyapunov(ds, ev.value)
    counts = {"gs_repairs": 0, "projections_x": 0}
    events = []
    out = _apply_nudge(ds, ev, P, shifts, L, RunConfig(N=6, eps_active=0.1, unsafe=True), E_ref,
                       counts, events, step=1)
    assert out is not None
    ds_new, ev_new, e_new = out
    nudge = [e for e in events if e.get("kind") == "nudge"]
    assert len(nudge) == 1 and nudge[0]["projection"] == "gs+qp"
    assert counts["gs_repairs"] >= 1 and counts["projections_x"] >= 1
    assert sum(e.get("kind") == "qp_x" for e in events) == counts["projections_x"]
    assert e_new <= E_ref + 1e-10
    assert min_slack(ds_new.packing, shifts, P.R) >= P.delta * (1 - 1e-6)
    assert e_new == lyapunov(ds_new, barrier_energy(ds_new.packing, shifts, P,
                                                    members=members).value)


def test_local_linear_rate_two_sphere():
    """Near a strict minimizer the error decays at the companion-root rate.

    The sliding-column pair is stationary by symmetry and strongly but
    anisotropically convex (the shear stiffness is much softer than the
    radial one), so the slow mode survives a 200-step fit window.
    """
    from util import sliding_column_state
    st_star = sliding_column_state(float(np.sqrt(4.0 + 0.05)))
    shifts = build_shift_set(st_star.basis, P.R)
    g = barrier_energy(st_star, shifts, P).grad_x
    assert float(np.linalg.norm(g)) <= 1e-12  # exactly at the minimizer
    x_star = st_star.x

    near = contacts_within(st_star, shifts, P.R)
    L = estimate_L(st_star, near, P).value
    m = estimate_m(st_star, near, P).value
    assert m > 0
    dt, eta = select_steps(L, m, 1.0, 1.9)
    rho_pred = max(companion_rate(lam, dt, eta) for lam in (m, L))
    assert rho_pred < 1.0

    rng = np.random.default_rng(0)
    d = rng.standard_normal(x_star.shape)
    d -= d.mean(axis=0)
    d *= 1e-4 / np.linalg.norm(d)
    ds = DynamicsState(packing=st_star.with_x(x_star + d), v=np.zeros_like(x_star),
                       x_prev=(x_star + d).copy(), dt=dt, eta=eta,
                       gamma=1.0 / dt**2 - L / 2.0)
    errs = []
    ev = barrier_energy(ds.packing, shifts, P)
    for _ in range(400):
        ds, ev = spit_step(ds, P, shifts, ev)
        errs.append(float(np.linalg.norm(ds.packing.x - x_star)))
    tail = np.array(errs[-200:])
    assert np.all(tail > 1e-13)
    ks = np.arange(tail.size)
    slope = np.polyfit(ks, np.log(tail), 1)[0]
    rho_fit = float(np.exp(slope))
    assert rho_fit < 1.0
    assert abs(rho_fit - rho_pred) <= 0.1


def test_runs_never_build_the_oracle_table(monkeypatch):
    def refuse(self, N):
        raise AssertionError("a run built the all-pairs candidate table")

    monkeypatch.setattr(ShiftIndexSet, "candidates", refuse)
    config = config_from_preset("stub32", max_steps=20)
    ds = make_testbed(config)
    record = run_trajectory(config, initial=ds)
    assert len(record.rows) == 20 and record.counts["projections_joint"] == 2


def test_step_rule_takes_one_eigensolve(monkeypatch):
    config = config_from_preset("stub32", N=16)
    st = make_testbed(config).packing
    shifts = build_shift_set(st.basis, config.R)
    members = contacts_within(st, shifts, config.R)
    calls = []
    spectrum = barrier._gauge_spectrum

    def counting(H, N, n):
        calls.append(H.shape)
        return spectrum(H, N, n)

    monkeypatch.setattr(barrier, "_gauge_spectrum", counting)
    ev = barrier_energy(st, shifts, P, members=members)
    dt, eta, L_hat, m_hat = step_rule(CurvatureAnchors(P), st, ev, config)
    assert len(calls) == 1
    assert (dt, eta) == select_steps(L_hat, max(m_hat, 1e-12), config.eta_dt, config.c)
    # the same bounds as from two eigensolves of copies of the member list
    copy = members.take(slice(None))
    assert L_hat == estimate_L(st, copy, P).value
    assert m_hat == estimate_m(st, members.take(slice(None)), P).value
    assert len(calls) == 3


def test_make_testbed_takes_no_eigensolve(monkeypatch):
    # the run derives dt, eta and gamma from its own curvature bound, so
    # set-up takes none
    calls = []
    spectrum = barrier._gauge_spectrum

    def counting(H, N, n):
        calls.append(H.shape)
        return spectrum(H, N, n)

    monkeypatch.setattr(barrier, "_gauge_spectrum", counting)
    ds = make_testbed(RunConfig(N=16, seed=3))
    assert calls == []
    assert np.all(ds.v == 0.0) and np.array_equal(ds.x_prev, ds.packing.x)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st_integers(0, 10_000), N=st_integers(1, 7), n=sampled_from([2, 3]),
       speed=st_floats(0.0, 0.05), drift=st_floats(-1.0, 1.0))
def test_spit_step_returns_the_evaluation_at_its_new_state(seed, N, n, speed, drift):
    # the trajectory loop reuses this evaluation as the next step's first
    # gradient, so it must be the fresh one bit for bit
    st = random_feasible_state(seed=seed, N=N, n=n)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    rng = np.random.default_rng(seed)
    v = speed * rng.standard_normal(st.x.shape) + drift * speed  # a nonzero mean too
    ds = make_ds(st, P, L_hat=estimate_L(st, members, P).value, v=v)
    ev0 = barrier_energy(st, shifts, P, members=members)
    try:
        new, ev = spit_step(ds, P, shifts, ev0)
    except InfeasibleSlackError:
        return
    assert ev.contacts is ev0.contacts  # the member list travels with the evaluation
    assert gauge_project(new.packing.x) is new.packing.x
    fresh = barrier_energy(new.packing, shifts, P, members=members)
    assert ev.value == fresh.value
    for name in ("grad_x", "grad_B", "slack"):
        assert np.array_equal(getattr(ev, name), getattr(fresh, name)), name


def _first_order_certify(monkeypatch):
    """Center no certify level by Newton: each level's dynamics start where it
    began, as they do whenever a center is discarded, and take thousands of steps."""
    monkeypatch.setattr(harness, "NEWTON_MAX_ITER", 0)


@pytest.mark.parametrize("workload", ["stub32", "certify"])
def test_one_barrier_evaluation_per_accepted_step(workload, monkeypatch):
    # every module that evaluates the barrier during a run, through any binding
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    if workload == "stub32":
        config = config_from_preset("stub32", max_steps=200)
        ds = make_testbed(config)
    else:
        config = RunConfig(N=4, seed=2, cert_max_steps=20000, unsafe=True)
        st = make_testbed(config).packing
        _first_order_certify(monkeypatch)
    for module in (dynamics, projection, harness):
        for name in ("barrier_energy", "barrier_value"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    if workload == "stub32":
        accepted = run_trajectory(config, initial=ds).counts["accepted"]
    else:
        accepted = sum(level["steps"] for level in certify(config, st)["levels"])
    assert accepted >= 200
    assert len(calls) <= 1.3 * accepted, (len(calls), accepted)


@pytest.mark.parametrize("workload", ["stub32", "certify"])
def test_dt_follows_the_step_rule_after_each_basis_move(workload, monkeypatch):
    # after a basis move the next step runs at the step rule's dt and gamma at
    # the post-move L_hat, up or down, with eta dt kept; where gamma rises the
    # step memory is dropped, so the logged E stays at or below the projection's
    # E_after; and no unprojected step raises E (criterion 3)
    log, records = [], []

    def logged(module, name, entry):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            log.append((name, entry(args, out)))
            return out
        monkeypatch.setattr(module, name, wrapper)

    logged(dynamics, "e_project_joint", lambda args, out: out[1]["basis_moved"])
    logged(dynamics, "step_rule", lambda args, out: out[2:])  # (L_hat, m_hat)
    step = dynamics.spit_step
    monkeypatch.setattr(dynamics, "spit_step", lambda ds, *args: log.append(("spit_step", ds))
                        or step(ds, *args))
    if workload == "stub32":
        config = config_from_preset("stub32")
        records.append(dynamics.run_trajectory(config))
    else:
        config = RunConfig(N=4, seed=2, cert_max_steps=20000, unsafe=True)
        _first_order_certify(monkeypatch)
        logged(harness, "run_trajectory", lambda args, out: records.append(out))
        certify(config, make_testbed(config).packing)
    moved = rule = None  # a basis move waits for its L_hat, then for the next step
    checked, rises = 0, 0
    for name, entry in log:
        if name == "e_project_joint":
            moved, rule = entry, None
        elif name == "step_rule" and moved:
            moved, rule = False, entry
        elif name == "spit_step" and rule is not None:
            L_hat, m_hat = rule
            dt = select_steps(L_hat, max(m_hat, 1e-12), config.eta_dt, config.c)[0]
            assert (entry.dt, entry.gamma) == (dt, 1.0 / dt**2 - L_hat / 2.0)
            assert entry.eta * entry.dt == pytest.approx(config.eta_dt, rel=1e-12)
            checked, rises, rule = checked + 1, rises + (dt > dt_before), None
        elif name == "spit_step":
            dt_before = entry.dt
        elif name == "run_trajectory":
            moved = rule = None
    assert checked >= 90 and rises > 0
    for record in records:
        for event in record.events:
            if event["kind"] == "qp_joint" and event["basis_moved"]:
                assert record.rows[event["step"] - 1].E <= event["E_after"] + 1e-10
        assert all(r.E_unprojected <= r.E_before + 1e-10 for r in record.rows)


@pytest.mark.parametrize("N, steps, seed", [(32, 200, 7), (256, 50, 13)])
def test_fiedler_solved_once_per_contact_graph(N, steps, seed, monkeypatch):
    # lambda2 depends only on the pair edges, so the loop solves once per
    # change of the edge list and hands back that value bit for bit; without
    # a nudge it builds no contact graph and no Fiedler vector
    values, spectra, built = [], [], []
    value, spectrum = dynamics.fiedler_value, dynamics._spectrum

    def counting(*args):
        values.append(args)
        return value(*args)

    def recording(state, ev, eps, solved):
        spectra.append((state, ev, eps, spectrum(state, ev, eps, solved)))
        return spectra[-1][-1]

    monkeypatch.setattr(dynamics, "fiedler_value", counting)
    monkeypatch.setattr(dynamics, "_spectrum", recording)
    for name in ("build_contact_graph", "fiedler"):
        monkeypatch.setattr(dynamics, name, lambda *a, name=name, **k: built.append(name))
    config = config_from_preset("stub32", N=N, max_steps=steps, seed=seed)
    run_trajectory(config)
    assert built == []
    last, changes, ref_solved = None, 0, {}
    for state, ev, eps, (edges, lam2) in spectra:
        shifts = build_shift_set(state.basis, config.R)
        graph, ref_lam2, ref_vec = ref_spectrum(state, ev, shifts, eps, ref_solved)
        assert (edges is None) == (ref_vec is None)
        if edges is None:
            assert lam2 == 0.0
            continue
        assert edges.tobytes() == graph.pair_edges.tobytes()
        changes += last is None or not np.array_equal(edges, last)
        last = edges
        assert lam2 == value(state.N, edges)
        assert abs(lam2 - ref_lam2) <= 1e-12 * abs(ref_lam2)
    assert len(spectra) == steps + 1
    assert len(values) == changes == {32: 3, 256: 5}[N]


@pytest.mark.parametrize("gap", [-1e-9, 0.0, 1e-9, 1e-3])
def test_spectrum_skips_only_edgeless_graphs(gap):
    # the slack test finds no edge only when the graph has none, down to a
    # pair at exactly d = 2 + eps
    eps = 0.05
    st = pair_state(2.0 + eps + gap)
    shifts = build_shift_set(st.basis, P.R)
    ev = barrier_energy(st, shifts, P)
    graph = build_contact_graph(st, members_within(st, shifts, ev.contacts, 2.0 + eps))
    assert len(graph) == (gap <= 0.0)
    edges, lam2 = dynamics._spectrum(st, ev, eps, {})
    assert (edges is None) == (len(graph) == 0)
    assert lam2 == pytest.approx(2.0 * len(graph))
    if edges is not None:
        assert edges.tobytes() == graph.pair_edges.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=sampled_from([2, 3]), N=st_integers(2, 6), seed=st_integers(0, 10_000),
       ulps=st_integers(-2, 2))
def test_slack_mask_is_the_contact_graph(n, N, seed, ulps):
    # one edge rule: on the member list, a shuffled or a subset table, the
    # evaluation's `near_rows` are exactly the members a scan within 2 + eps
    # finds, in the table's order, and the nudge's graph on them has the edges,
    # normals and gaps of `build_contact_graph` on the scan, bit for bit: on a
    # random state at a scale through one of its member distances, and on a pair
    # at d = 2 + eps, each scale or distance moved by a few ulps
    rng = np.random.default_rng(seed)
    st = random_feasible_state(seed=seed, N=N, n=n)
    ev = barrier_energy(st, build_shift_set(st.basis, P.R), P)
    eps = float(np.sqrt(4.0 + rng.choice(ev.slack))) - 2.0
    eps = float(np.clip(eps + ulps * np.spacing(eps), 0.0, 0.5))
    d = 2.0 + rng.uniform(1e-3, 0.5)
    u = rng.standard_normal(n)
    x = np.stack([np.zeros(n), (d + ulps * np.spacing(d)) * u / np.linalg.norm(u)])
    pair = PackingState.make(x, big_cell(n))
    for state, scale in ((st, eps), (pair, d - 2.0)):
        shifts = build_shift_set(state.basis, P.R)
        ev = barrier_energy(state, shifts, P)
        scanned = build_contact_graph(state, contacts_within(state, shifts, 2.0 + scale))
        row_of = {scanned.edges.index(k): k for k in range(len(scanned))}
        m = len(ev.contacts)
        for rows in (np.arange(m), rng.permutation(m), np.flatnonzero(rng.random(m) < 0.5)):
            # the evaluation's numbers in those rows, not recomputed
            seen = dataclasses.replace(ev, contacts=ev.contacts.take(rows), r=ev.r[rows],
                                       slack=ev.slack[rows],
                                       min_slack=float(ev.slack[rows].min(initial=np.inf)))
            want = members_within(state, shifts, seen.contacts, 2.0 + scale)
            graph = build_contact_graph(state, seen.contacts.take(near_rows(seen, scale)))
            assert graph.edges.key == want.key
            at = [row_of[graph.edges.index(k)] for k in range(len(graph))]
            assert graph.normals.tobytes() == scanned.normals[at].tobytes()
            assert graph.gaps.tobytes() == scanned.gaps[at].tobytes()
            edges = pair_edges_of(seen, scale)
            if edges is None:
                assert graph.pair_edges.shape[1] == 0
            else:
                assert edges.tobytes() == graph.pair_edges.tobytes()


def test_certify_builds_no_contact_graph(monkeypatch):
    # eps_active = 1e-6 lies below every slack the safeguard lets through, so
    # each evaluation proves the graph edgeless before one is built
    built = []
    build = dynamics.build_contact_graph

    def counting(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(dynamics, "build_contact_graph", counting)
    _first_order_certify(monkeypatch)
    config = RunConfig(N=4, seed=2, cert_max_steps=20000, unsafe=True)
    report = certify(config, make_testbed(config).packing)
    assert sum(level["steps"] for level in report["levels"]) >= 200
    assert built == []


def _evaluation(state, members):
    return barrier_energy(state, build_shift_set(state.basis, P.R), P, members=members)


def _blocks(state, members):
    ev = _evaluation(state, members)
    return contact_blocks(ev.r, ev.slack, P)


def _moved(state, members, op, rng):
    """`state` after a random position ("x") or basis move, unchanged if the move
    leaves a member slack nonpositive or the cell degenerate."""
    step = 0.03 * rng.standard_normal(state.x.shape if op == "x" else state.basis.B.shape)
    try:
        moved = (state.with_x(state.x + step) if op == "x"
                 else PackingState.make(state.x, LatticeBasis(state.basis.B + step)))
    except SingularBasisError:
        return state
    return moved if min_slack_of(moved, members) > 0.0 else state


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st_integers(0, 10_000), N=st_integers(1, 5), n=sampled_from([2, 3]),
       ops=st_lists(sampled_from(["x", "B", "drop", "copy"]), min_size=1, max_size=6))
def test_anchored_curvature_bounds_hold_after_moves_and_member_changes(seed, N, n, ops):
    rng = np.random.default_rng(seed)
    state = random_feasible_state(seed=seed, N=N, n=n)
    shifts = build_shift_set(state.basis, P.R)
    members = contacts_within(state, shifts, P.R)
    anchors = CurvatureAnchors(P)
    anchor_state = None  # of the latest position anchor
    spectrum, probe = barrier._gauge_spectrum, dynamics.pair_mode_rayleigh
    # THETA = inf: every estimate on the anchor's member list is an update, however
    # far the state has moved since, so the change bound alone carries the certificate
    with mock.patch.object(dynamics, "THETA", np.inf), \
            mock.patch.object(barrier, "_gauge_spectrum", wraps=spectrum) as dense, \
            mock.patch.object(dynamics, "pair_mode_rayleigh", wraps=probe) as probes:
        for op in ["start"] + ops:
            if op == "drop":
                members = members.take(rng.random(len(members)) < 0.7)
            elif op == "copy":  # equal by value, a new object
                members = members.take(slice(None))
            elif op != "start":
                state = _moved(state, members, op, rng)
            for joint in (False, True):
                solves, dense_calls = anchors.solves, dense.call_count
                L_hat, second = anchors.bounds(state, _evaluation(state, members), joint=joint)
                H = ref_hessian(state, members, P, joint=True) if joint else \
                    hessian(state, members, P)
                if joint:  # after a position estimate at its state: an update, nothing dense
                    assert (anchors.solves, dense.call_count) == (solves, dense_calls)
                elif anchors.solves > solves:
                    anchor_state = state
                else:
                    change = HessianChange(members, _blocks(anchor_state, members))
                    d = change.bound(_blocks(state, members))
                    assert d >= np.linalg.norm(H - hessian(anchor_state, members, P), 2)
                w = gauge_eigs(H, N, n, joint=joint)  # empty for positions at N = 1
                assert L_hat >= float(np.abs(w).max(initial=0.0))
                if joint:  # the second bound is the basis weight W_B, as eigenpairs
                    assert majorizer_gap(H, N, n, L_hat, second) >= -1e-12 * L_hat
                else:
                    assert 0.0 <= second <= (max(float(w[0]), 0.0) if w.size else 0.0)
        assert probes.call_count == 0


def _squeezed(state, members, rng):
    """`state` with one random pair contact's slack set to 1-3 delta by moving one
    of its spheres along its separation (the stiff change behind admitted Weyl
    updates), unchanged if that leaves a member slack nonpositive."""
    pairs = np.flatnonzero(members.i != members.j)
    if not pairs.size:
        return state
    c = int(rng.choice(pairs))
    r = r_vectors(state, members.take([c]))[0]
    norm = float(np.linalg.norm(r))
    x = state.x.copy()
    x[members.i[c]] += (np.sqrt(4.0 + P.delta * rng.uniform(1.0, 3.0)) - norm) / norm * r
    moved = state.with_x(x)
    return moved if min_slack_of(moved, members) > 0.0 else state


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st_integers(0, 10_000), N=st_integers(2, 5), n=sampled_from([2, 3]),
       ops=st_lists(sampled_from(["x", "B", "squeeze"]), min_size=1, max_size=5))
def test_admitted_curvature_updates_stay_certified_and_tight(seed, N, n, ops):
    # THETA as shipped: an update past it serves only when the pair-mode Rayleigh
    # quotient admits it, which a squeeze of one pair toward delta brings about
    rng = np.random.default_rng(seed)
    state = random_feasible_state(seed=seed, N=N, n=n)
    shifts = build_shift_set(state.basis, P.R)
    members = contacts_within(state, shifts, P.R)
    anchors = CurvatureAnchors(P)
    for op in ["start", "squeeze"] + ops:
        if op == "squeeze":
            state = _squeezed(state, members, rng)
        elif op != "start":
            state = _moved(state, members, op, rng)
        ev = _evaluation(state, members)
        ell = pair_mode_rayleigh(members, ev.r, contact_blocks(ev.r, ev.slack, P))
        for joint in (False, True):
            admitted = anchors.admitted
            L_hat, second = anchors.bounds(state, ev, joint=joint)
            H = ref_hessian(state, members, P, joint=True) if joint else hessian(state, members, P)
            w = gauge_eigs(H, N, n, joint=joint)
            top, scale = float(w[-1]), float(np.abs(w).max())
            assert ell <= top + 1e-12 * scale
            assert L_hat >= scale
            if joint:  # the second bound is the basis weight W_B, as eigenpairs
                assert majorizer_gap(H, N, n, L_hat, second) >= -1e-12 * L_hat
            else:
                assert 0.0 <= second <= max(float(w[0]), 0.0)
            if anchors.admitted > admitted:  # an update adds at most ADMIT top to the
                # bound at the exact position norm: top itself, or for the joint Hessian
                # the block-norm bound there, which alone can lie far above top
                exact = estimate_L_joint(state, members, contact_blocks(ev.r, ev.slack, P),
                                         estimate_L(state, members, P).value).value \
                    if joint else top
                assert L_hat <= exact + 0.02 * top + 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st_integers(0, 10_000), N=st_integers(1, 6), n=sampled_from([2, 3]),
       ops=st_lists(sampled_from(["x", "B", "squeeze"]), max_size=3),
       anchored=sampled_from([True, False]))
def test_joint_bound_is_certified(seed, N, n, ops, anchored):
    # the block-norm bound is at least the joint Hessian's gauge norm, and diag(Lj I,
    # W_B) majorizes that Hessian, whether L_x is a Weyl update of a position anchor
    # taken at the start (past THETA only where the probe admits it) or a dense
    # solve, after moves and squeezed pairs alike
    rng = np.random.default_rng(seed)
    state = random_feasible_state(seed=seed, N=N, n=n)
    members = contacts_within(state, build_shift_set(state.basis, P.R), P.R)
    anchors = CurvatureAnchors(P)
    anchors.bounds(state, _evaluation(state, members))
    for op in ops:
        state = _squeezed(state, members, rng) if op == "squeeze" else _moved(state, members, op, rng)
    ev = _evaluation(state, members)
    L_x = anchors.bounds(state, ev)[0] if anchored else estimate_L(state, members, P).value
    Lj, _, _, W_B = estimate_L_joint(state, members, contact_blocks(ev.r, ev.slack, P), L_x)
    H = ref_hessian(state, members, P, joint=True)
    assert Lj >= float(np.abs(gauge_eigs(H, N, n, joint=True)).max())
    assert majorizer_gap(H, N, n, Lj, W_B) >= -1e-12 * Lj


def test_joint_estimates_add_no_dense_solve_or_probe(monkeypatch):
    # a joint estimate takes L_x by the position path, then the block-norm bound:
    # it makes the solves and probes a position estimate at its state makes and
    # no more, and never solves the joint Hessian densely
    probes, sizes = [], []

    def probe(*args):
        probes.append(args)
        return pair_mode_rayleigh(*args)

    def spectrum(H, N, n, original=barrier._gauge_spectrum):
        sizes.append(H.shape[0])
        return original(H, N, n)

    monkeypatch.setattr(dynamics, "pair_mode_rayleigh", probe)
    monkeypatch.setattr(barrier, "_gauge_spectrum", spectrum)
    state = random_feasible_state(seed=4, N=5)
    shifts = build_shift_set(state.basis, P.R)
    ev = barrier_energy(state, shifts, P)
    moved = state.with_x(state.x + 1e-4 * np.random.default_rng(4).standard_normal(state.x.shape))
    ev_moved = barrier_energy(moved, shifts, P, members=ev.contacts)
    seen = {}
    for joint in (False, True):
        anchors = CurvatureAnchors(P)
        anchors.bounds(state, ev, joint=joint)  # the position anchor: one dense solve
        anchors.bounds(state, ev, joint=joint)  # within THETA of it: no probe
        assert (anchors.solves, anchors.updates, probes) == (1, 1, [])
        with mock.patch.object(dynamics, "THETA", 0.0), \
                mock.patch.object(dynamics, "ADMIT", np.inf):
            seen[joint] = anchors.bounds(moved, ev_moved, joint=joint)  # the probe decides
        assert (anchors.solves, anchors.updates, anchors.admitted, len(probes)) == (1, 2, 1, 1)
        probes.clear()
    assert set(sizes) == {state.N * 2}  # position anchors (memoized), no joint Hessian
    K = contact_blocks(ev_moved.r, ev_moved.slack, P)
    want = estimate_L_joint(moved, ev.contacts, K, seen[False][0])
    assert seen[True][0] == want.value
    assert all(np.array_equal(got, w) for got, w in zip(seen[True][1], want.W_B))


def _counted_r_vectors(monkeypatch) -> list:
    """Row counts of every `r_vectors` call from now on: each `spit.*` binding of
    it is patched, as the benchmark's tracer patches what it traces."""
    calls, original = [], geometry.r_vectors

    def counting(state, contacts):
        calls.append(len(contacts))
        return original(state, contacts)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "spit"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    return calls


def test_weyl_updates_and_constraint_rows_reuse_separations(monkeypatch):
    # a Weyl update, probe included, reads the evaluation's r and slacks, and the
    # constraint rows take r once over the scanned table
    state = random_feasible_state(seed=4, N=5)
    shifts = build_shift_set(state.basis, P.R)
    ev = barrier_energy(state, shifts, P)
    anchors = CurvatureAnchors(P)
    anchors.bounds(state, ev)  # the anchor: one dense solve
    moved = state.with_x(state.x + 1e-4 * np.random.default_rng(4).standard_normal(state.x.shape))
    ev_moved = barrier_energy(moved, shifts, P, members=ev.contacts)
    calls = _counted_r_vectors(monkeypatch)
    with mock.patch.object(dynamics, "THETA", 0.0), mock.patch.object(dynamics, "ADMIT", np.inf):
        anchors.bounds(moved, ev_moved)  # past THETA = 0, so the probe decides
    assert (anchors.solves, anchors.updates, anchors.admitted) == (1, 1, 1)
    assert calls == []
    projection._constraint_rows(moved, ev.contacts, P, np.eye(moved.n**2))
    assert calls == [len(ev.contacts)]


def test_dense_estimates_reuse_their_memory(monkeypatch):
    """After a run's first dense estimate, each later one allocates less than one
    D x D float array (tracemalloc), as does every joint estimate, which makes
    no dense solve and no probe call; a repeat of the run writes the same CSV bytes."""
    import tracemalloc

    peaks = {"estimate_L": [], "estimate_L_joint": []}
    for name, seen in peaks.items():
        def traced(*args, estimate=getattr(dynamics, name), seen=seen, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = estimate(*args, **kwargs)
            seen.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        monkeypatch.setattr(dynamics, name, traced)
    probes = []
    config = config_from_preset("stub64", max_steps=30, seed=0)
    tracemalloc.start()
    try:
        record = run_trajectory(config)
        # the run solves its position Hessian densely once; member lists that
        # differ from the anchor's take three more dense estimates, and the joint
        # estimate at each of their states an update of the position anchor
        state = record.final_state.packing
        shifts = build_shift_set(state.basis, config.R)
        members = contacts_within(state, shifts, config.R)
        p = BarrierParams(config.nu, config.delta, config.R)
        anchors = CurvatureAnchors(p)
        monkeypatch.setattr(dynamics, "pair_mode_rayleigh",
                            lambda *a: probes.append(a) or pair_mode_rayleigh(*a))
        for k in range(3):
            ev = barrier_energy(state, shifts, p, members=members.take(np.arange(len(members)) != k))
            anchors.bounds(state, ev)
            solves, dense = anchors.solves, len(peaks["estimate_L"])
            anchors.bounds(state, ev, joint=True)
            assert (anchors.solves, len(peaks["estimate_L"]), probes) == (solves, dense, [])
        assert anchors.solves == 3
    finally:
        tracemalloc.stop()
    csv = record.to_csv()
    Nn = config.N * config.n
    for name, D in (("estimate_L", Nn), ("estimate_L_joint", Nn + config.n ** 2)):
        assert len(peaks[name]) >= 3
        assert max(peaks[name][1:]) < D * D * 8
    assert run_trajectory(config).to_csv() == csv
