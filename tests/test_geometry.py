"""Lattice, shift-set, slack, and gauge primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers as st_integers
from util import big_cell, fd_gradient, pair_state, rel_err

from spit.errors import SingularBasisError
from spit.geometry import (
    ContactIndex,
    Contacts,
    LatticeBasis,
    PackingState,
    build_shift_set,
    cell_volume,
    contact_rows,
    contacts_within,
    gauge_project,
    min_slack,
    pair_slack,
    r_vectors,
    slack_values,
    volume_gradient,
)
from spit.harness import random_feasible_state


def brute_force_shifts(B: np.ndarray, cutoff: float, zmax: int = 6) -> set:
    out = set()
    rng = range(-zmax, zmax + 1)
    n = B.shape[0]
    import itertools
    for z in itertools.product(rng, repeat=n):
        if np.linalg.norm(B @ np.asarray(z, dtype=float)) <= cutoff * (1 + 1e-12):
            out.add(z)
    return out


def test_shift_set_2d_contains_unit_box_and_respects_cutoff():
    basis = LatticeBasis(np.eye(2) * 4.0)
    R = 2.5
    ss = build_shift_set(basis, R)
    got = {tuple(int(c) for c in z) for z in ss.zs}
    for zx in (-1, 0, 1):
        for zy in (-1, 0, 1):
            assert (zx, zy) in got
    cutoff = R + basis.diameter()
    assert got == brute_force_shifts(basis.B, cutoff)


def test_shift_set_1d_analog():
    basis = LatticeBasis(np.array([[1.0]]))
    assert basis.diameter() == pytest.approx(1.0)
    ss = build_shift_set(basis, 0.4)
    assert {int(z[0]) for z in ss.zs} == {-1, 0, 1}


def test_shift_set_zero_radius_keeps_zero_and_symmetry():
    for B in (np.eye(2) * 3.0, np.array([[2.0, 1.0], [0.0, np.sqrt(3.0)]])):
        ss = build_shift_set(LatticeBasis(B), 0.0)
        got = {tuple(int(c) for c in z) for z in ss.zs}
        assert (0, 0) in got
        assert all(tuple(-c for c in z) in got for z in got)


def test_shift_set_symmetric_random_bases():
    rng = np.random.default_rng(3)
    for _ in range(20):
        B = np.eye(2) * 4.0 + 0.5 * rng.standard_normal((2, 2))
        ss = build_shift_set(LatticeBasis(B), rng.uniform(0.5, 4.0))
        got = {tuple(int(c) for c in z) for z in ss.zs}
        assert (0, 0) in got
        assert all(tuple(-c for c in z) in got for z in got)


def test_singular_basis_rejected():
    with pytest.raises(SingularBasisError, match="singular basis"):
        LatticeBasis(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularBasisError):
        LatticeBasis(np.eye(2) * 1e-9)  # below the nondegeneracy window


def test_pair_slack_examples():
    st = pair_state(2.0)
    assert pair_slack(st, ContactIndex(0, 1, (0, 0))) == pytest.approx(0.0, abs=1e-12)
    st = pair_state(3.0)
    assert pair_slack(st, ContactIndex(0, 1, (0, 0))) == pytest.approx(5.0)
    single = PackingState.make(np.zeros((1, 2)), LatticeBasis(np.eye(2) * 4.0))
    assert pair_slack(single, ContactIndex(0, 0, (1, 0))) == pytest.approx(12.0)


def test_pair_slack_contact_symmetry_exact():
    rng = np.random.default_rng(11)
    st = PackingState.make(rng.uniform(-3, 3, (4, 2)), big_cell())
    for _ in range(20):
        i, j = rng.integers(0, 4, 2)
        z = tuple(rng.integers(-2, 3, 2))
        if i == j and z == (0, 0):
            continue
        a = pair_slack(st, ContactIndex(int(i), int(j), z))
        b = pair_slack(st, ContactIndex(int(j), int(i), tuple(-c for c in z)))
        assert a == b


def _slack_gradient_rows(st, contacts):
    """Slack gradients (grad_x s, grad_B s) as rows: twice the builder with c = z."""
    return 2.0 * contact_rows(st, contacts, r_vectors(st, contacts), contacts.z.astype(float))


def test_slack_gradient_structure():
    st = pair_state(2.0)  # r = (-2, 0) for contact (0, 1, 0)
    contacts = Contacts(np.array([0]), np.array([1]), np.array([[0, 0]]))
    row = _slack_gradient_rows(st, contacts)[0]
    assert np.array_equal(row[:4], [-4.0, 0.0, 4.0, 0.0])
    assert np.all(row[4:] == 0.0)  # z = 0 kills the basis gradient
    assert contact_rows(st, contacts, r_vectors(st, contacts)).shape == (1, 4)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st_integers(0, 10_000), N=st_integers(1, 6))
def test_slack_gradients_match_fd(seed, N):
    # every row of the builder is the slack gradient in x and in B
    st = random_feasible_state(seed=seed, N=N)
    near = contacts_within(st, build_shift_set(st.basis, 2.5), 2.5)
    rows = _slack_gradient_rows(st, near)
    Nn = st.x.size
    for k in range(len(near)):
        c = near.index(k)

        def f_x(x, c=c):
            return pair_slack(PackingState(x=x, basis=st.basis), c)

        def f_B(Bflat, c=c):
            return pair_slack(PackingState(x=st.x, basis=LatticeBasis(Bflat.reshape(2, 2))), c)

        fd = np.concatenate([fd_gradient(f_x, st.x).ravel(),
                             fd_gradient(f_B, st.basis.B.ravel())])
        assert rel_err(rows[k], fd) <= 1e-7
        if c.i == c.j:
            assert np.all(rows[k, :Nn] == 0.0)  # self contacts move with the basis only


def test_slack_gradient_fd_tight_single_case():
    st = random_feasible_state(seed=42, N=4)
    shifts = build_shift_set(st.basis, 2.5)
    near = contacts_within(st, shifts, 2.5)
    c = near.index(0)
    gx = _slack_gradient_rows(st, near)[0, :st.x.size].reshape(st.x.shape)

    def f_x(x):
        return pair_slack(PackingState(x=x, basis=st.basis), c)

    assert rel_err(fd_gradient(f_x, st.x, h=1e-5), gx) <= 1e-7


def test_cell_volume_and_gradient():
    assert cell_volume(LatticeBasis(np.eye(2))) == pytest.approx(1.0)
    assert np.allclose(volume_gradient(LatticeBasis(np.eye(2))), np.eye(2))
    basis = LatticeBasis(np.array([[2.0, 1.0], [0.0, np.sqrt(3.0)]]))
    assert cell_volume(basis) == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)

    def f(Bflat):
        return abs(float(np.linalg.det(Bflat.reshape(2, 2))))

    got = volume_gradient(basis)
    assert rel_err(fd_gradient(f, basis.B.ravel(), h=1e-6), got.ravel()) <= 1e-7


def test_gauge_project_idempotent_and_exact():
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, (6, 2))
    once = gauge_project(x)
    twice = gauge_project(once)
    assert twice is once  # bitwise idempotent
    centered = once - 0.0
    assert np.array_equal(gauge_project(centered), centered)
    ones = np.ones((4, 2))
    assert np.all(gauge_project(ones) == 0.0)


def test_gauge_preserves_slacks():
    st = random_feasible_state(seed=9, N=6)
    shifts = build_shift_set(st.basis, 2.5)
    near = contacts_within(st, shifts, 2.5)
    s0 = slack_values(st, near)
    translated = PackingState(x=st.x + np.array([1.25, -0.5]), basis=st.basis)
    s1 = slack_values(translated, near)
    # slacks depend only on differences; only float rounding of the shift remains
    assert np.allclose(s0, s1, rtol=0.0, atol=1e-12)
    recentered = PackingState(x=gauge_project(translated.x), basis=st.basis)
    assert np.allclose(slack_values(recentered, near), s0, rtol=0.0, atol=1e-12)


def test_min_slack_examples():
    st = pair_state(2.0)
    shifts = build_shift_set(st.basis, 2.5)
    assert min_slack(st, shifts) == pytest.approx(0.0, abs=1e-12)
    single = PackingState.make(np.zeros((1, 2)), LatticeBasis(np.eye(2) * 4.0))
    shifts = build_shift_set(single.basis, 4.5)
    assert min_slack(single, shifts) == pytest.approx(12.0)


def test_min_slack_empty_is_inf():
    st = pair_state(10.0)
    shifts = build_shift_set(st.basis, 2.5)
    assert min_slack(st, shifts) == np.inf
