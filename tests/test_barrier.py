"""Interior barrier values, gradients, HVPs, and curvature estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers as st_integers
from hypothesis.strategies import sampled_from
from util import (
    dense_hessian_x,
    fd_gradient,
    gauge_basis,
    hex_two_sphere,
    pair_state,
    rel_err,
    sliding_column_state,
)

from spit.barrier import (
    BarrierParams,
    barrier_energy,
    barrier_value,
    estimate_L,
    estimate_L_joint,
    estimate_m,
    hessian,
    hvp_joint,
    hvp_x,
    lipschitz_bound,
    observed_slack_cap,
    phi,
)
from spit.errors import InfeasibleSlackError
from spit.geometry import LatticeBasis, PackingState, build_shift_set, contacts_within
from spit.harness import RunConfig, make_testbed, random_feasible_state

P = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)


def test_phi_at_delta():
    p = BarrierParams(nu=0.5, delta=0.01, R=2.5)
    val, d1, _ = phi(p.delta, p)
    assert val == pytest.approx(-p.nu * np.log(p.delta))
    assert d1 == pytest.approx(-p.nu / p.delta)


def test_phi_curvature_simple():
    p = BarrierParams(nu=1.0, delta=1.0, R=2.5)
    _, _, d2 = phi(1.0, p)
    assert d2 == pytest.approx(2.0)


def test_phi_rejects_nonpositive_slack():
    with pytest.raises(InfeasibleSlackError, match="infeasible slack"):
        phi(0.0, P)
    with pytest.raises(InfeasibleSlackError):
        phi(np.array([0.5, -1.0]), P)


def test_phi_derivatives_match_fd():
    p = BarrierParams(nu=0.37, delta=0.05, R=2.5)
    rng = np.random.default_rng(0)
    for s in rng.uniform(p.delta, 3.0, size=50):
        val, d1, d2 = phi(s, p)
        h = 1e-5 * max(1.0, s)
        vp, d1p, _ = phi(s + h, p)
        vm, d1m, _ = phi(s - h, p)
        assert rel_err((vp - vm) / (2 * h), d1) <= 1e-7
        assert rel_err((d1p - d1m) / (2 * h), d2) <= 1e-7


def test_single_pair_at_delta_energy():
    dist = float(np.sqrt(4.0 + P.delta))
    st = pair_state(dist)
    shifts = build_shift_set(st.basis, P.R)
    ev = barrier_energy(st, shifts, P)
    assert len(ev.contacts) == 1
    assert ev.value == pytest.approx(-P.nu * np.log(P.delta), rel=1e-9)


def test_barrier_gradients_match_fd():
    worst_x = worst_B = 0.0
    for seed in range(12):
        st = random_feasible_state(seed=seed, N=4 + (seed % 3))
        shifts = build_shift_set(st.basis, P.R)
        members = contacts_within(st, shifts, P.R)
        if len(members) == 0:
            continue
        ev = barrier_energy(st, shifts, P, members=members)

        def f_x(x, st=st, shifts=shifts, members=members):
            return barrier_value(PackingState(x=x, basis=st.basis), shifts, P, members=members)

        def f_B(Bflat, st=st, shifts=shifts, members=members):
            basis = LatticeBasis(Bflat.reshape(2, 2))
            return barrier_value(PackingState(x=st.x, basis=basis), shifts, P, members=members)

        worst_x = max(worst_x, rel_err(fd_gradient(f_x, st.x), ev.grad_x))
        worst_B = max(worst_B, rel_err(fd_gradient(f_B, st.basis.B.ravel()), ev.grad_B.ravel()))
    assert worst_x <= 1e-6
    assert worst_B <= 1e-6


def test_translation_leaves_value_unchanged():
    st = random_feasible_state(seed=21, N=6)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    u0 = barrier_value(st, shifts, P, members=members)
    moved = PackingState(x=st.x + np.array([0.37, -1.2]), basis=st.basis)
    assert barrier_value(moved, shifts, P, members=members) == pytest.approx(u0, rel=1e-12)


def test_hvp_x_linearity_and_translations():
    st = random_feasible_state(seed=3, N=5)
    shifts = build_shift_set(st.basis, P.R)
    assert np.all(hvp_x(st, shifts, P, np.zeros_like(st.x)) == 0.0)
    uniform = np.tile(np.array([0.4, -0.7]), (st.N, 1))
    assert np.all(hvp_x(st, shifts, P, uniform) == 0.0)


def test_hvp_x_matches_fd_of_gradient():
    # states with a healthy slack margin: right at s = delta the third
    # derivative ~ nu/s^3 makes central differences useless at h = 1e-5
    rng = np.random.default_rng(8)
    worst = 0.0
    for seed in range(10):
        st = random_feasible_state(seed=40 + seed, N=4, delta=0.03)
        shifts = build_shift_set(st.basis, P.R)
        members = contacts_within(st, shifts, P.R)
        d = rng.standard_normal(st.x.shape)
        got = hvp_x(st, shifts, P, d, members=members)
        h = 1e-5
        gp = barrier_energy(PackingState(x=st.x + h * d, basis=st.basis), shifts, P, members=members).grad_x
        gm = barrier_energy(PackingState(x=st.x - h * d, basis=st.basis), shifts, P, members=members).grad_x
        worst = max(worst, rel_err((gp - gm) / (2 * h), got))
    assert worst <= 1e-5


def test_hvp_joint_zero_direction():
    st = random_feasible_state(seed=4, N=4)
    shifts = build_shift_set(st.basis, P.R)
    ox, oB = hvp_joint(st, shifts, P, np.zeros_like(st.x), np.zeros((2, 2)))
    assert np.all(ox == 0.0) and np.all(oB == 0.0)


def test_hvp_joint_symmetry():
    rng = np.random.default_rng(17)
    st = random_feasible_state(seed=17, N=5)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    for _ in range(5):
        p1, H1 = rng.standard_normal(st.x.shape), rng.standard_normal((2, 2))
        p2, H2 = rng.standard_normal(st.x.shape), rng.standard_normal((2, 2))
        a_x, a_B = hvp_joint(st, shifts, P, p1, H1, members=members)
        b_x, b_B = hvp_joint(st, shifts, P, p2, H2, members=members)
        lhs = float(np.sum(p2 * a_x) + np.sum(H2 * a_B))
        rhs = float(np.sum(p1 * b_x) + np.sum(H1 * b_B))
        assert rel_err(lhs, rhs) <= 1e-10


def test_hvp_joint_matches_fd_of_joint_gradient():
    rng = np.random.default_rng(23)
    worst = 0.0
    for seed in range(10):
        st = random_feasible_state(seed=70 + seed, N=4, delta=0.03)
        shifts = build_shift_set(st.basis, P.R)
        members = contacts_within(st, shifts, P.R)
        dx, dB = rng.standard_normal(st.x.shape), rng.standard_normal((2, 2))
        got_x, got_B = hvp_joint(st, shifts, P, dx, dB, members=members)
        h = 1e-5

        def grads(sign):
            state = PackingState(x=st.x + sign * h * dx,
                                 basis=LatticeBasis(st.basis.B + sign * h * dB))
            ev = barrier_energy(state, shifts, P, members=members)
            return ev.grad_x, ev.grad_B

        (gxp, gBp), (gxm, gBm) = grads(1.0), grads(-1.0)
        fd = np.concatenate([((gxp - gxm) / (2 * h)).ravel(), ((gBp - gBm) / (2 * h)).ravel()])
        hv = np.concatenate([got_x.ravel(), got_B.ravel()])
        worst = max(worst, rel_err(fd, hv))
    assert worst <= 1e-5


def test_estimate_L_matches_dense_oracle_single_pair():
    st = pair_state(2.1)
    shifts = build_shift_set(st.basis, P.R)
    got = estimate_L(st, shifts, P).value
    H = dense_hessian_x(st, shifts, P)
    Q = gauge_basis(st.N, 2)
    eigs = np.linalg.eigvalsh(Q.T @ H @ Q)
    want = float(np.max(np.abs(eigs)))
    assert rel_err(got, want) <= 1e-3


def test_estimate_L_scales_linearly_in_nu():
    st = hex_two_sphere()
    shifts = build_shift_set(st.basis, P.R)
    l1 = estimate_L(st, shifts, P).value
    p2 = BarrierParams(nu=2 * P.nu, delta=P.delta, R=P.R)
    l2 = estimate_L(st, shifts, p2).value
    assert rel_err(l2, 2.0 * l1) <= 1e-6


def test_estimate_L_dominates_rayleigh_probes():
    st = hex_two_sphere()
    shifts = build_shift_set(st.basis, P.R)
    L = estimate_L(st, shifts, P).value
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = rng.standard_normal(st.x.shape)
        d -= d.mean(axis=0)
        d /= np.linalg.norm(d)
        rq = abs(float(np.sum(d * hvp_x(st, shifts, P, d))))
        assert rq <= L * (1.0 + 1e-6)


def test_estimate_m_strongly_convex_instance():
    st = hex_two_sphere()
    shifts = build_shift_set(st.basis, P.R)
    L = estimate_L(st, shifts, P).value
    m = estimate_m(st, shifts, P).value
    H = dense_hessian_x(st, shifts, P)
    Q = gauge_basis(st.N, 2)
    want = float(np.min(np.linalg.eigvalsh(Q.T @ H @ Q)))
    assert m > 0.0
    assert rel_err(m, want) <= 1e-3
    assert m <= L


def test_estimate_m_detects_flat_direction():
    # columns spaced so the barrier force vanishes: the shear mode is flat
    s_plus = 0.5 * (P.delta + np.sqrt(P.delta**2 + 4 * P.delta))
    spacing = float(np.sqrt(4.0 + s_plus))
    st = sliding_column_state(spacing)
    shifts = build_shift_set(st.basis, P.R)
    m = estimate_m(st, shifts, P).value
    assert m <= 1e-6
    H = dense_hessian_x(st, shifts, P)
    Q = gauge_basis(st.N, 2)
    assert abs(float(np.min(np.linalg.eigvalsh(Q.T @ H @ Q)))) <= 1e-9


def _hvp_matrices(st, shifts, members):
    """Position and joint Hessians assembled column by column from the HVPs."""
    N, n = st.x.shape
    D = N * n
    Hx = np.stack([hvp_x(st, shifts, P, e.reshape(N, n), members=members).ravel()
                   for e in np.eye(D)], axis=1)
    cols = []
    for e in np.eye(D + n * n):
        ox, oB = hvp_joint(st, shifts, P, e[:D].reshape(N, n), e[D:].reshape(n, n),
                           members=members)
        cols.append(np.concatenate([ox.ravel(), oB.ravel()]))
    return Hx, np.stack(cols, axis=1)


def _gauge_eigs(H, N, n, joint=False):
    Q = gauge_basis(N, n)
    if joint:
        Q = np.block([[Q, np.zeros((N * n, n * n))],
                      [np.zeros((n * n, Q.shape[1])), np.eye(n * n)]])
    return np.linalg.eigvalsh(Q.T @ H @ Q)


_STATES = dict(seed=st_integers(0, 10_000), N=st_integers(1, 7), n=sampled_from([2, 3]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**_STATES)
def test_hessian_matches_hvp_columns(seed, N, n):
    st = random_feasible_state(seed=seed, N=N, n=n)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    want_x, want_joint = _hvp_matrices(st, shifts, members)
    for joint, want in ((False, want_x), (True, want_joint)):
        got = hessian(st, members, P, joint=joint)
        assert got.shape == want.shape
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**_STATES)
def test_curvature_estimates_bracket_the_hvp_spectrum(seed, N, n):
    st = random_feasible_state(seed=seed, N=N, n=n)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    Hx, Hj = _hvp_matrices(st, shifts, members)
    estimates = [estimate_L(st, shifts, P, members=members),
                 estimate_m(st, shifts, P, members=members),
                 estimate_L_joint(st, shifts, P, members=members)]
    assert all(e.converged and e.iters == 1 for e in estimates)
    L, m, Lj = (e.value for e in estimates)
    w = _gauge_eigs(Hx, N, n)  # empty for N = 1: no gauge directions
    top = float(np.max(np.abs(w), initial=0.0))
    assert top <= L <= max(top * (1.0 + 1e-9), 1e-12)
    lam_min = float(w[0]) if N > 1 else 0.0
    assert max(lam_min - 1e-9 * top, 0.0) <= m <= max(lam_min, 0.0)
    top_j = float(np.max(np.abs(_gauge_eigs(Hj, N, n, joint=True))))
    assert top_j <= Lj <= max(top_j * (1.0 + 1e-9), 1e-12)


def test_estimate_L_bounds_lambda_max_on_n4_seed3_testbed():
    # power iteration stopped here at 1072.33, below the true 1072.92, so the
    # step rule L dt^2 <= 1/2 was not certified
    st = make_testbed(RunConfig(N=4, seed=3, unsafe=True)).packing  # nu, delta, R of P
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    lam_max = float(np.max(np.abs(np.linalg.eigvalsh(_hvp_matrices(st, shifts, members)[0]))))
    got = estimate_L(st, shifts, P, members=members)
    assert got.converged
    assert lam_max <= got.value <= lam_max * (1.0 + 1e-12)


def test_lipschitz_closed_form_bound():
    rng = np.random.default_rng(12)
    violations = 0
    checked = 0
    for seed in range(100):
        st = random_feasible_state(seed=200 + seed, N=4, inflate=0.08, jitter=0.01)
        shifts = build_shift_set(st.basis, P.R)
        members = contacts_within(st, shifts, P.R)
        if len(members) == 0:
            continue
        eps = 1e-3
        u = rng.standard_normal(st.x.shape)
        w = rng.standard_normal(st.x.shape)
        xa = st.x + eps * u / np.linalg.norm(u)
        xb = st.x + eps * w / np.linalg.norm(w)
        sa = PackingState(x=xa, basis=st.basis)
        sb = PackingState(x=xb, basis=st.basis)
        from spit.geometry import slack_values
        slacks = [slack_values(q, members) for q in (sa, sb)]
        if min(np.min(s) for s in slacks) < P.delta:
            continue
        cap = max(observed_slack_cap(sa, shifts, P, members=members),
                  observed_slack_cap(sb, shifts, P, members=members))
        bound = lipschitz_bound(P, cap, P.R, len(members))
        ga = barrier_energy(sa, shifts, P, members=members).grad_x
        gb = barrier_energy(sb, shifts, P, members=members).grad_x
        ratio = np.linalg.norm(ga - gb) / np.linalg.norm(xa - xb)
        checked += 1
        if ratio > bound:
            violations += 1
        # the eigensolver bound also respects the closed-form constant
        assert estimate_L(sa, shifts, P, members=members).value <= bound
    assert checked >= 50
    assert violations == 0


def test_gradient_outputs_gauge_invariant():
    st = random_feasible_state(seed=33, N=5)
    shifts = build_shift_set(st.basis, P.R)
    members = contacts_within(st, shifts, P.R)
    ev = barrier_energy(st, shifts, P, members=members)
    moved = PackingState(x=st.x + np.array([2.0, -3.5]), basis=st.basis)
    ev2 = barrier_energy(moved, shifts, P, members=members)
    assert np.allclose(ev.grad_x, ev2.grad_x, atol=1e-10)
    assert abs(float(np.sum(ev.grad_x))) <= 1e-12  # mean-zero by construction
