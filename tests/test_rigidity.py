"""Periodic rigidity, stresses, multiplier recovery, KKT residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers as st_integers
from hypothesis.strategies import sampled_from as st_sampled_from
from util import (
    hex_single_sphere,
    pair_state,
    ref_is_periodically_rigid,
    scan,
    square_single_sphere,
)

from spit.barrier import BarrierParams, barrier_energy, phi
from spit.geometry import (
    Contacts,
    LatticeBasis,
    PackingState,
    build_shift_set,
    contacts_within,
    r_vectors,
    volume_gradient,
)
from spit.harness import cubic_cell, random_feasible_state
from spit.rigidity import (
    MotionVector,
    active_set,
    is_periodically_rigid,
    kkt_residual,
    licq_sigma_min,
    motion_operator,
    prestress_stable,
    recover_multipliers,
    stress_energy,
    trivial_motion_basis,
)

P = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)


def test_active_set_hexagonal():
    st = hex_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    assert len(act) == 3
    assert np.all(act.i == 0) and np.all(act.j == 0)


def test_active_set_empty_and_everything():
    st = pair_state(2.4)
    shifts = build_shift_set(st.basis, P.R)
    assert len(active_set(st, contacts_within(st, shifts, P.R), tol_active=0.05)) == 0  # gap 0.4, slack 1.76
    everything = active_set(st, contacts_within(st, shifts, P.R), tol_active=np.inf)
    assert len(everything) == len(contacts_within(st, shifts, P.R))


def test_trivial_basis_dimension_and_rank():
    for st in (hex_single_sphere(), square_single_sphere(),
               random_feasible_state(seed=1, N=5)):
        T = trivial_motion_basis(st)
        n = st.n
        assert T.shape[1] == n + n * (n - 1) // 2
        s = np.linalg.svd(T, compute_uv=False)
        assert s[-1] > 0.9  # orthonormal columns


def _trivial_motions(st):
    out = []
    n = st.n
    for k in range(n):
        u = np.zeros_like(st.x)
        u[:, k] = 1.0
        out.append(MotionVector(u, np.zeros((n, n))))
    W = np.array([[0.0, -1.0], [1.0, 0.0]])
    out.append(MotionVector(st.x @ W.T, W))
    return out


def test_motion_operator_annihilates_trivial_motions():
    for st in (hex_single_sphere(), square_single_sphere(),
               random_feasible_state(seed=8, N=4)):
        shifts = build_shift_set(st.basis, P.R)
        act = contacts_within(st, shifts, P.R)
        if len(act) == 0:
            continue
        M = motion_operator(st, act)
        for mv in _trivial_motions(st):
            assert np.max(np.abs(M @ mv.flat())) <= 1e-10


def test_motion_operator_keeps_rotations_through_shifted_contacts():
    # pair contact with r = (2, 0) reached through the shift t = (0, 2): the
    # cell term acts on t, so a rigid rotation stays in the kernel
    basis = LatticeBasis(np.array([[40.0, 0.0], [0.0, 2.0]]))
    st = PackingState(x=np.array([[1.0, 1.0], [-1.0, -1.0]]), basis=basis)
    act = Contacts(np.array([0]), np.array([1]), np.array([[0, 1]]))
    r = r_vectors(st, act)[0]
    assert np.allclose(r, [2.0, 0.0])
    W = np.array([[0.0, -1.0], [1.0, 0.0]])
    mv = MotionVector(st.x @ W.T, W)
    M = motion_operator(st, act)
    assert abs(float((M @ mv.flat())[0])) <= 1e-12


def test_motion_operator_dilation_rows():
    st = hex_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    M = motion_operator(st, act)
    mv = MotionVector(st.x.copy(), np.eye(2))  # uniform dilation
    vals = M @ mv.flat()
    assert np.allclose(np.abs(vals), 4.0, atol=1e-9)  # r^T r = 4 per contact


def test_motion_operator_zero_shift_rows_ignore_cell():
    st = pair_state(2.0)
    act = Contacts(np.array([0]), np.array([1]), np.array([[0, 0]]))
    M = motion_operator(st, act)
    flat_A_block = M[:, st.N * st.n:]
    assert np.all(flat_A_block == 0.0)


def test_hexagonal_packing_is_rigid():
    st = hex_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    rig = is_periodically_rigid(st, act)
    assert rig.rigid
    assert rig.nontrivial_dim == 0


def test_square_packing_shears():
    st = square_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    assert len(act) == 2
    rig = is_periodically_rigid(st, act)
    assert not rig.rigid
    assert rig.nontrivial_dim >= 1
    # the surviving motion is a genuine flex, orthogonal to the trivial space
    M = motion_operator(st, act)
    T = trivial_motion_basis(st)
    for col in range(rig.nontrivial_dim):
        w = rig.basis[:, col]
        assert np.max(np.abs(M @ w)) <= 1e-9
        assert np.max(np.abs(T.T @ w)) <= 1e-9
    # and it shears the cell: symmetric off-diagonal component present
    A = rig.basis[st.N * st.n:, 0].reshape(st.n, st.n)  # the cell velocity
    sym = 0.5 * (A + A.T)
    assert abs(sym[0, 1]) > 0.1


def test_empty_active_set_not_rigid():
    st = pair_state(2.4)
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    assert len(act) == 0
    rig = is_periodically_rigid(st, act)
    assert not rig.rigid
    assert rig.nontrivial_dim > 0


def test_rigidity_invariant_under_rotations():
    rng = np.random.default_rng(3)
    for st, want in ((hex_single_sphere(), True), (square_single_sphere(), False)):
        theta = rng.uniform(0, 2 * np.pi)
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rot = PackingState(x=st.x @ Q.T, basis=LatticeBasis(Q @ st.basis.B))
        shifts = build_shift_set(rot.basis, P.R)
        act = active_set(rot, contacts_within(rot, shifts, P.R), tol_active=1e-9)
        rig = is_periodically_rigid(rot, act)
        assert rig.rigid == want


def test_stress_energy_on_trivial_motions_vanishes():
    st = square_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    omega = np.ones(len(act))
    for mv in _trivial_motions(st):
        assert stress_energy(st, act, omega, mv) <= 1e-18


def test_stress_energy_zero_stress_and_unit_motion():
    st = pair_state(2.0)
    act = Contacts(np.array([0]), np.array([1]), np.array([[0, 0]]))
    mv = MotionVector(np.array([[0.5, 0.0], [-0.5, 0.0]]), np.zeros((2, 2)))
    assert stress_energy(st, act, np.zeros(1), mv) == 0.0
    # relative motion along the unit normal has magnitude exactly 1
    assert stress_energy(st, act, np.ones(1), mv) == pytest.approx(1.0, rel=1e-12)


def test_stress_energy_nonnegative_for_nonnegative_stress():
    rng = np.random.default_rng(11)
    st = hex_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    for _ in range(20):
        omega = rng.uniform(0, 2, len(act))
        mv = MotionVector(rng.standard_normal(st.x.shape), rng.standard_normal((2, 2)))
        assert stress_energy(st, act, omega, mv) >= 0.0


def test_prestress_rigid_framework_margin():
    st = hex_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    flag, min_eig = prestress_stable(st, act, np.ones(len(act)))
    assert flag
    assert min_eig == pytest.approx(3.0, rel=1e-12)


def test_prestress_square_fails_for_any_nonnegative_stress():
    st = square_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    rng = np.random.default_rng(5)
    for _ in range(10):
        omega = rng.uniform(0.0, 3.0, len(act))
        flag, min_eig = prestress_stable(st, act, omega)
        assert not flag
        assert min_eig <= 1e-10


@pytest.mark.parametrize("scale", [1e-11, 1.0, 1e3])
def test_prestress_verdict_ignores_the_stress_scale(scale):
    # positive definiteness does not depend on the stress scale: the
    # hexagonal optimum stays stable under tiny and large stresses, and the
    # square and simple cubic saddles stay unstable
    cases = [(hex_single_sphere(), True), (square_single_sphere(), False),
             (PackingState.make(*cubic_cell(8, 3)), False)]
    for st, stable in cases:
        act = active_set(st, scan(st, P.R), tol_active=1e-9)
        flag, min_eig = prestress_stable(st, act, scale * np.ones(len(act)))
        assert flag is stable
        if stable:
            assert min_eig == pytest.approx(3.0 * scale, rel=1e-9)


def test_prestress_negative_stress_goes_negative():
    # perturb the square so the flex is approximate: its stress energy is a
    # tiny but genuinely signed quantity, and a sign-flipped stress drives the
    # restricted form below zero
    st = square_single_sphere()
    x = st.x.copy()
    B = st.basis.B.copy()
    B[0, 1] += 1e-9
    pert = PackingState(x=x, basis=LatticeBasis(B))
    shifts = build_shift_set(pert.basis, P.R)
    act = active_set(pert, contacts_within(pert, shifts, P.R), tol_active=1e-6)
    assert len(act) == 2
    omega = np.array([-1.0, -1.0])
    flag, min_eig = prestress_stable(pert, act, omega)
    assert not flag
    assert min_eig < 0.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st_sampled_from([2, 3]), N=st_integers(1, 6), seed=st_integers(0, 10_000),
       tol=st_sampled_from([0.1, 0.5, np.inf]))
def test_one_operator_verdicts_on_random_states(n, N, seed, tol):
    """Prestress stability implies rigidity; the flex basis is orthonormal,
    annihilated by M and orthogonal to the trivial motions; and the verdict
    matches the kernel-then-quotient reference."""
    st = random_feasible_state(seed=seed, N=N, n=n)
    act = active_set(st, scan(st, P.R), tol_active=tol)
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 2.0, len(act)) * (rng.uniform(size=len(act)) < 0.8)
    rig = is_periodically_rigid(st, act)
    stable, margin = prestress_stable(st, act, omega)
    assert np.isfinite(margin)
    assert rig.rigid or not stable
    k = rig.nontrivial_dim
    assert rig.basis.shape == (st.N * n + n * n, k)
    assert np.max(np.abs(rig.basis.T @ rig.basis - np.eye(k)), initial=0.0) <= 1e-9
    assert np.max(np.abs(motion_operator(st, act) @ rig.basis), initial=0.0) <= 1e-9
    assert np.max(np.abs(trivial_motion_basis(st).T @ rig.basis), initial=0.0) <= 1e-9
    ref_rigid, ref_dim, _ = ref_is_periodically_rigid(st, act)
    assert (rig.rigid, k) == (ref_rigid, ref_dim)


def test_recover_multipliers_values():
    p = BarrierParams(nu=1.0, delta=1.0, R=2.5)
    st = pair_state(float(np.sqrt(4.0 + 2.0)))  # slack exactly 2
    shifts = build_shift_set(st.basis, p.R)
    mus = recover_multipliers(st, contacts_within(st, shifts, p.R), p)
    assert len(mus.contacts) == 1
    assert mus.raw[0] == pytest.approx(1.0 / 2.0 - 1.0)  # nu/s - nu (s-d)/d
    assert mus.clamped[0] == 0.0


def test_recover_multipliers_at_delta():
    st = pair_state(float(np.sqrt(4.0 + P.delta)))
    shifts = build_shift_set(st.basis, P.R)
    mus = recover_multipliers(st, contacts_within(st, shifts, P.R), P)
    assert mus.raw[0] == pytest.approx(P.nu / P.delta, rel=1e-9)


def test_recover_multipliers_match_phi_exactly():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = float(rng.uniform(P.delta, 2.0))
        st = pair_state(float(np.sqrt(4.0 + s)))
        shifts = build_shift_set(st.basis, P.R)
        mus = recover_multipliers(st, contacts_within(st, shifts, P.R), P)
        _, d1, _ = phi(float(mus.slack[0]), P)
        assert mus.raw[0] == -d1  # definitional identity, bitwise


def test_multiplier_sign_threshold():
    # mu >= 0 exactly when s <= s_plus, the positive root of s^2 - d s - d = 0
    s_plus = 0.5 * (P.delta + np.sqrt(P.delta**2 + 4 * P.delta))
    for s in (0.5 * s_plus, 0.99 * s_plus, 1.01 * s_plus, 2.0 * s_plus):
        st = pair_state(float(np.sqrt(4.0 + s)))
        shifts = build_shift_set(st.basis, P.R)
        mus = recover_multipliers(st, contacts_within(st, shifts, P.R), P)
        assert (mus.raw[0] >= -1e-12) == (s <= s_plus * (1 + 1e-12))


def test_kkt_residual_zero_multipliers():
    st = pair_state(2.1)
    shifts = build_shift_set(st.basis, P.R)
    near = contacts_within(st, shifts, P.R)
    mus = recover_multipliers(st, near, P)
    res_B, res_x, comp = kkt_residual(st, mus, np.zeros(len(near)))
    assert res_B == pytest.approx(float(np.linalg.norm(volume_gradient(st.basis))))
    assert res_x == 0.0
    assert comp == 0.0


def test_kkt_residual_x_stationarity_from_raw_multipliers():
    # at any barrier-stationary point the raw multipliers reproduce the
    # gradient: sum mu grad s = -grad U, so res_x equals ||grad U||
    st = hex_single_sphere(scale=1.01)
    shifts = build_shift_set(st.basis, P.R)
    mus = recover_multipliers(st, contacts_within(st, shifts, P.R), P)
    _, res_x, _ = kkt_residual(st, mus, mus.raw)
    g = barrier_energy(st, shifts, P).grad_x
    assert res_x == pytest.approx(float(np.linalg.norm(g)), abs=1e-12)


def test_licq_sigma_min_positive_for_hexagonal():
    st = hex_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    act = active_set(st, contacts_within(st, shifts, P.R), tol_active=1e-9)
    licq, ratio = licq_sigma_min(st, act)  # singular values 6.15, 4 and 3.18
    assert licq and ratio > 0.5
