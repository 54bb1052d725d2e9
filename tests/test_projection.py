"""Gauss-Seidel repair, the dense active-set QP, and energy projections."""

import numpy as np
import pytest
from util import big_cell, energy_of, make_ds, pair_state

from spit.barrier import BarrierParams, barrier_energy, barrier_value, estimate_L, estimate_L_joint
from spit.geometry import LatticeBasis, PackingState, build_shift_set, contacts_within, min_slack
from spit.harness import random_feasible_state
from spit.projection import (
    QuadraticProgram,
    e_project_joint,
    e_project_x,
    gs_project_once,
    solve_qp,
)

P = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)


def test_gs_noop_when_feasible():
    st = pair_state(2.2)
    shifts = build_shift_set(st.basis, P.R)
    out, changed = gs_project_once(st, shifts, P.delta)
    assert not changed
    assert out is st


def test_gs_single_pair_exact_radial_repair():
    d0 = 1.97
    st = pair_state(d0)
    shifts = build_shift_set(st.basis, P.R)
    out, changed = gs_project_once(st, shifts, P.delta)
    assert changed
    dist = np.linalg.norm(out.x[0] - out.x[1])
    assert dist == pytest.approx(np.sqrt(4.0 + P.delta), abs=1e-9)
    move0 = out.x[0] - st.x[0]
    # displacement is along the contact normal (the x-axis here)
    assert abs(move0[1]) <= 1e-12
    move1 = out.x[1] - st.x[1]
    assert np.allclose(move0, -move1, atol=1e-12)


def test_gs_skips_cell_bound_contacts():
    tight = PackingState.make(np.zeros((1, 2)), LatticeBasis(np.eye(2) * 1.9995))
    shifts = build_shift_set(tight.basis, P.R)
    out, changed = gs_project_once(tight, shifts, P.delta)
    assert not changed  # only basis moves could fix these


def test_solve_qp_unconstrained():
    qp = QuadraticProgram(diag=np.array([2.0, 4.0]), linear=np.array([1.0, -8.0]),
                          A=np.zeros((0, 2)), b=np.zeros(0))
    sol = solve_qp(qp)
    assert np.allclose(sol.u, [-0.5, 2.0])
    assert sol.active == []


def test_solve_qp_single_halfspace_weighted_projection():
    diag = np.array([2.0, 4.0])
    c = np.array([1.0, -8.0])
    a = np.array([1.0, 1.0])
    b = np.array([3.0])  # u0 = (-0.5, 2.0) violates a.u >= 3
    qp = QuadraticProgram(diag=diag, linear=c, A=a[None, :], b=b)
    sol = solve_qp(qp)
    u0 = -c / diag
    # single-constraint KKT in the diag(q) norm: u = u0 + q^{-1} a mu
    mu = (b[0] - a @ u0) / (a @ (a / diag))
    want = u0 + (a / diag) * mu
    assert np.allclose(sol.u, want, atol=1e-12)
    assert sol.active == [0]
    assert sol.multipliers[0] == pytest.approx(mu)


def test_solve_qp_kkt_conditions():
    rng = np.random.default_rng(0)
    for _ in range(25):
        dim, m = 6, 8
        diag = rng.uniform(0.5, 3.0, dim)
        c = rng.standard_normal(dim)
        A = rng.standard_normal((m, dim))
        b = rng.uniform(-1.0, 0.3, m)
        sol = solve_qp(QuadraticProgram(diag=diag, linear=c, A=A, b=b))
        res = A @ sol.u - b
        assert np.min(res) >= -1e-9
        assert abs(float(sol.multipliers @ res)) <= 1e-8
        assert np.min(sol.multipliers) >= -1e-10
        # stationarity: diag u + c = A^T mu
        stat = diag * sol.u + c - A.T @ sol.multipliers
        assert np.linalg.norm(stat) <= 1e-8


def test_solve_qp_reorder_invariance():
    rng = np.random.default_rng(4)
    dim, m = 5, 7
    diag = rng.uniform(0.5, 3.0, dim)
    c = rng.standard_normal(dim)
    A = rng.standard_normal((m, dim))
    b = rng.uniform(-1.0, 0.4, m)
    sol = solve_qp(QuadraticProgram(diag=diag, linear=c, A=A, b=b))
    perm = rng.permutation(m)
    sol2 = solve_qp(QuadraticProgram(diag=diag, linear=c, A=A[perm], b=b[perm]))
    assert np.allclose(sol.u, sol2.u, atol=1e-9)


def test_constraint_rows_shapes():
    from spit.projection import _constraint_rows
    st = pair_state(2.1)
    shifts = build_shift_set(st.basis, P.R)
    near = contacts_within(st, shifts, P.R)
    A, b = _constraint_rows(st, near, P, joint=True)
    assert A.shape == (1, 4 + 4)  # one pair; position block, then the 2 x 2 basis block
    assert b[0] == pytest.approx(P.delta - (2.1**2 - 4.0))
    A_x, b_x = _constraint_rows(st, near, P, joint=False)
    assert np.array_equal(A_x, A[:, :4]) and np.array_equal(b_x, b)
    # contacts more than the horizon (1.0) above delta are not linearized
    far = pair_state(2.4)  # slack 1.76, still within R
    near_far = contacts_within(far, shifts, P.R)
    assert len(near_far) == 1
    A_far, _ = _constraint_rows(far, near_far, P, joint=True)
    assert A_far.shape == (0, 8)


def test_e_project_x_identity_on_stationary_feasible():
    st = pair_state(10.0)  # no contacts within R: zero gradient, feasible
    shifts = build_shift_set(st.basis, P.R)
    ds = make_ds(st, P, L_hat=1.0)
    out, info = e_project_x(ds, P, shifts, L_hat=1.0)
    assert np.allclose(out.packing.x, st.x, atol=1e-14)
    assert info["nonexpansive"]


def test_e_project_x_nonexpansive_on_feasible_inputs():
    for seed in range(8):
        st = random_feasible_state(seed=300 + seed, N=5)
        shifts = build_shift_set(st.basis, P.R)
        L = estimate_L(st, shifts, P).value
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(st.x.shape) * 0.1
        x_prev = st.x + rng.standard_normal(st.x.shape) * 0.01
        ds = make_ds(st, P, L_hat=L, v=v, x_prev=x_prev)
        out, info = e_project_x(ds, P, shifts, L_hat=L)
        e_before = energy_of(ds, P, shifts)
        e_after = energy_of(out, P, shifts)
        assert e_after <= e_before + 1e-10
        assert np.array_equal(out.v, ds.v)  # velocity untouched


def test_e_project_x_two_sphere_single_constraint_oracle():
    # one pair squeezed below the margin but not overlapping; with a genuine
    # curvature bound the projection is a single-constraint QP in closed form
    dist = float(np.sqrt(4.0 + 0.0004))
    st = pair_state(dist)
    shifts = build_shift_set(st.basis, P.R)
    from util import dense_hessian_x
    L = float(np.max(np.abs(np.linalg.eigvalsh(dense_hessian_x(st, shifts, P)))))
    ds = make_ds(st, P, L_hat=L)
    # the input sits below delta, so the move is a mandatory repair and the
    # nonexpansive chain need not hold; the solution itself is closed-form
    out, info = e_project_x(ds, P, shifts, L_hat=L)
    # hand solution: factor out the barrier gradient by redoing the QP pieces
    ev = barrier_energy(st, shifts, P)
    gbar = ev.grad_x.ravel()
    r = st.x[0] - st.x[1]
    a = np.concatenate([2 * r, -2 * r])
    s0 = dist**2 - 4.0
    q = np.full(4, L + ds.gamma)
    u0 = -gbar / q
    viol = (P.delta - s0) - a @ u0
    if viol > 0:
        mu = viol / (a @ (a / q))
        u = u0 + (a / q) * mu
    else:
        u = u0
    want = st.x + u.reshape(2, 2)
    want = want - want.mean(axis=0)
    assert np.allclose(out.packing.x, want, atol=1e-9)
    assert min_slack(out.packing, shifts) >= P.delta * (1 - 1e-6)


def test_e_project_joint_identity_when_stationary():
    st = pair_state(10.0)
    shifts = build_shift_set(st.basis, P.R)
    ds = make_ds(st, P, L_hat=1.0)
    out, info = e_project_joint(ds, P, shifts, L_x=1.0, L_B=1.0)
    assert np.allclose(out.packing.x, st.x, atol=1e-14)
    assert np.allclose(out.packing.basis.B, st.basis.B, atol=1e-14)
    assert not info["basis_moved"]


def test_e_project_joint_nonexpansive():
    for seed in range(6):
        st = random_feasible_state(seed=400 + seed, N=4)
        shifts = build_shift_set(st.basis, P.R)
        L = estimate_L_joint(st, shifts, P).value
        ds = make_ds(st, P, L_hat=L)
        out, info = e_project_joint(ds, P, shifts, L_x=L, L_B=L)
        assert info["E_after"] <= info["E_before"] + 1e-10


def test_e_project_joint_one_dim_self_contact_oracle():
    # single sphere on a line; only the cell length is active
    b0 = 2.0001
    st = PackingState.make(np.zeros((1, 1)), LatticeBasis(np.array([[b0]])))
    shifts = build_shift_set(st.basis, 2.5)
    p1 = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)
    L = estimate_L_joint(st, shifts, p1).value
    LB = max(L, 1.0)
    ds = make_ds(st, p1, L_hat=LB)
    out, info = e_project_joint(ds, p1, shifts, L_x=LB, L_B=LB)
    ev = barrier_energy(st, shifts, p1)
    gB = float(ev.grad_B[0, 0])
    s0 = b0**2 - 4.0
    aB = 2.0 * b0  # d slack / d basis for the z = 1 self contact
    h0 = -gB / LB
    if s0 + aB * h0 < p1.delta:
        h = h0 + (p1.delta - s0 - aB * h0) / (aB * aB / LB) * (aB / LB)
    else:
        h = h0
    assert out.packing.basis.B[0, 0] == pytest.approx(b0 + h, abs=1e-9)


def test_majorizer_dominates_energy_locally():
    st = random_feasible_state(seed=77, N=4, delta=0.05)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    from util import dense_hessian_x
    H = dense_hessian_x(st, shifts, P, members=members)
    L_true = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    ds = make_ds(st, P, L_hat=L_true)
    ev = barrier_energy(st, shifts, P, members=members)
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.standard_normal(st.x.shape)
        d -= d.mean(axis=0)
        d *= 1e-3 / np.linalg.norm(d)
        y = st.x + d
        m_val = (ev.value + float(np.sum(ev.grad_x * d))
                 + 0.5 * L_true * float(np.sum(d * d))
                 + 0.5 * ds.gamma * float(np.sum((y - ds.x_prev) ** 2)))
        u_val = barrier_value(PackingState(x=y, basis=st.basis), shifts, P, members=members) \
            + 0.5 * ds.gamma * float(np.sum((y - ds.x_prev) ** 2))
        assert m_val >= u_val - 1e-10


def test_guard_restores_margin_from_violating_state():
    # a chain squeezed into (0, delta): feasible for the barrier, below margin
    d = float(np.sqrt(4.0 + 2e-4))
    x = np.array([[0.0, 0.0], [d, 0.0], [2 * d, 0.02]])
    st = PackingState.make(x, big_cell())
    shifts = build_shift_set(st.basis, P.R)
    assert 0.0 < min_slack(st, shifts) < P.delta
    L = estimate_L(st, shifts, P).value
    repaired, changed = gs_project_once(st, shifts, P.delta)
    assert changed
    ds = make_ds(repaired, P, L_hat=L)
    out, info = e_project_x(ds, P, shifts, L_hat=L)
    assert min_slack(out.packing, shifts) >= P.delta * (1 - 1e-6)


def test_e_project_x_scans_each_state_once(monkeypatch):
    st = random_feasible_state(seed=300, N=5)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    L = estimate_L(st, shifts, P, members=members).value
    rng = np.random.default_rng(0)
    ds = make_ds(st, P, L_hat=L, x_prev=st.x + rng.standard_normal(st.x.shape) * 0.01)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return contacts_within(*args, **kwargs)

    # every binding of the scan, so that calls through geometry.min_slack count too
    monkeypatch.setattr("spit.geometry.contacts_within", counting)
    monkeypatch.setattr("spit.projection.contacts_within", counting)
    out, info = e_project_x(ds, P, shifts, L_hat=L, members=members)
    assert info["guard_rounds"] == 0 and info["backoffs"] == 0
    # the input state once (self-image check and constraint rows), the result once
    assert len(calls) == 2
    assert calls[0] is st and calls[1] is out.packing
