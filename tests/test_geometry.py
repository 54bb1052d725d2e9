"""Lattice, shift-set, slack, and gauge primitives."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import floats as st_floats
from hypothesis.strategies import integers as st_integers
from hypothesis.strategies import sampled_from as st_sampled_from
from util import big_cell, fd_gradient, pair_state, rel_err

import spit
from spit.errors import SingularBasisError
from spit.geometry import (
    ContactIndex,
    Contacts,
    LatticeBasis,
    PackingState,
    ShiftIndexSet,
    build_shift_set,
    cell_volume,
    contact_rows,
    contacts_within,
    gauge_project,
    min_slack,
    min_slack_of,
    pair_slack,
    r_vectors,
    slack_values,
    volume_gradient,
    volume_hessian_bound,
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
    assert min_slack(st, shifts, 2.5) == pytest.approx(0.0, abs=1e-12)
    single = PackingState.make(np.zeros((1, 2)), LatticeBasis(np.eye(2) * 4.0))
    shifts = build_shift_set(single.basis, 4.5)
    assert min_slack(single, shifts, 4.5) == pytest.approx(12.0)


def test_min_slack_empty_is_inf():
    st = pair_state(10.0)
    shifts = build_shift_set(st.basis, 2.5)
    assert min_slack(st, shifts, 2.5) == np.inf


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st_sampled_from([1, 2, 3]), m=st_integers(1, 60), seed=st_integers(0, 2**31))
def test_separations_have_the_same_bits_in_every_table(n, m, seed):
    # a contact's r and slack depend on the contact and the state alone: a row
    # subset, a permutation or a single row of a table gives its rows bit for bit
    rng = np.random.default_rng(seed)
    basis = LatticeBasis(np.eye(n) * rng.uniform(3.0, 6.0) + rng.uniform(-1.0, 1.0, (n, n)))
    state = PackingState(x=rng.uniform(-20.0, 20.0, (5, n)), basis=basis)
    table = Contacts(rng.integers(0, 5, m), rng.integers(0, 5, m), rng.integers(-7, 8, (m, n)))
    r, s = r_vectors(state, table), slack_values(state, table)
    for idx in (rng.permutation(m), np.flatnonzero(rng.random(m) < 0.5), *np.arange(m)[:, None]):
        assert r_vectors(state, table.take(idx)).tobytes() == r[idx].tobytes()
        assert slack_values(state, table.take(idx)).tobytes() == s[idx].tobytes()


def oracle_contacts(state: PackingState, radius: float) -> Contacts:
    """Contacts within `radius` from the brute-force table, complete for this
    state: its shift set reaches radius plus the largest center separation."""
    x = state.x
    spread = float(np.max(np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)))
    table = build_shift_set(state.basis, radius + spread).candidates(state.N)
    r = r_vectors(state, table)
    return table.take((r * r).sum(axis=1) <= radius * radius)


def assert_same_contacts(got: Contacts, want: Contacts) -> None:
    for a, b in ((got.i, want.i), (got.j, want.j), (got.z, want.z)):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_random_feasible_state_is_feasible_on_every_pair():
    # the unwrapped centers of this sheared state lie more than a cell diameter
    # apart; a table of shifts within R + diameter misses its pair (0, 1, (-3, -1))
    st = random_feasible_state(58, 2, shear=0.2, R=2.5)
    near = oracle_contacts(st, 2.5)
    assert min_slack_of(st, near) >= 1e-3
    assert_same_contacts(contacts_within(st, build_shift_set(st.basis, 2.5), 2.5), near)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(n=st_sampled_from([2, 3]), N=st_integers(1, 40), seed=st_integers(0, 2**31),
       reach=st_floats(0.1, 2.5))
@example(n=2, N=40, seed=1, reach=0.1)  # many cells per axis
@example(n=2, N=4, seed=2, reach=2.5)   # one cell per axis, stencil reach 3
@example(n=3, N=1, seed=3, reach=1.5)   # self-images only
def test_contacts_within_matches_brute_force_oracle(n, N, seed, reach):
    rng = np.random.default_rng(seed)
    # sheared unimodular cell, scaled: I + (strict lower) times I + (strict upper)
    lower = np.tril(rng.uniform(-0.5, 0.5, (n, n)), -1)
    upper = np.triu(rng.uniform(-0.5, 0.5, (n, n)), 1)
    basis = LatticeBasis(rng.uniform(3.0, 8.0) * (np.eye(n) + lower) @ (np.eye(n) + upper))
    # centers anywhere in the cell, each moved by its own lattice vector
    frac = rng.uniform(0.0, 1.0, (N, n)) + rng.integers(0, 2, (N, n))
    state = PackingState(x=frac @ basis.B.T, basis=basis)
    # radius relative to the narrowest face spacing of the cell
    width = 1.0 / np.max(np.linalg.norm(np.linalg.inv(basis.B), axis=1))
    radius = reach * width
    # a run's shift set serves a radius at least the one asked for (spectral: 2 + eps < R)
    shifts = build_shift_set(basis, radius + 1.0)
    assert_same_contacts(contacts_within(state, shifts, radius), oracle_contacts(state, radius))


def test_contacts_within_rejects_negative_radius():
    st = pair_state(2.1)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        contacts_within(st, build_shift_set(st.basis, 2.5), -1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_volume_hessian_bound_covers_the_hessian(n):
    """det B is a polynomial of degree n <= 3 in B, so central differences of
    step 1 are its exact second derivatives; |det B| has the same Hessian up
    to sign."""
    rng = np.random.default_rng(n)
    E = np.eye(n * n).reshape(n * n, n, n)
    for _ in range(20):
        basis = LatticeBasis(2.0 * np.eye(n) + rng.standard_normal((n, n)))
        B, det = basis.B, np.linalg.det
        Hess = np.array([[det(B + e + f) - det(B + e - f) - det(B - e + f) + det(B - e - f)
                          for f in E] for e in E]) / 4.0
        assert np.linalg.norm(Hess, 2) <= volume_hessian_bound(basis) * (1.0 + 1e-9) + 1e-12


# every `spit` function that takes a shift set: those that scan for their
# contacts, and the callers of a scan or of `barrier_energy`, whose signatures
# the benchmark pins; the rest take the contacts they work on
SHIFT_SET_TAKERS = {
    "barrier.barrier_energy", "barrier.barrier_value",
    "dynamics._apply_nudge", "dynamics._safeguard", "dynamics.lyapunov_energy",
    "dynamics.spit_step", "geometry.contacts_within", "geometry.min_slack",
    "harness._feasibilize", "projection._e_project", "projection.e_project_joint",
    "projection.e_project_x",
}


def test_only_scans_and_their_callers_take_a_shift_set():
    found = set()
    for info in pkgutil.iter_modules(spit.__path__):
        module = importlib.import_module(f"spit.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                funcs = [(name, obj)]
            elif inspect.isclass(obj):
                funcs = [(f"{name}.{k}", v) for k, v in vars(obj).items() if inspect.isfunction(v)]
            else:
                continue
            found |= {f"{info.name}.{qual}" for qual, f in funcs
                      if "shifts" in inspect.signature(f).parameters}
    assert found == SHIFT_SET_TAKERS
    assert list(inspect.signature(contacts_within).parameters) == ["state", "shifts", "radius"]
    assert [f.name for f in dataclasses.fields(ShiftIndexSet)] == ["zs", "_pairs"]


# public functions and methods that no other code in src/spit names, each kept
# on purpose; a new one is a helper that only tests or the benchmark call
UNCALLED_IN_PACKAGE = {
    "barrier.hvp_x",  # the benchmark traces it; the oracle of `hessian`
    "barrier.lipschitz_bound",  # claim (i)
    "barrier.observed_slack_cap",  # claim (i)
    "dynamics.companion_rate",  # claim (v)
    "dynamics.jury_stable",  # claim (v)
    "dynamics.lyapunov_energy",  # the benchmark calls it
    "geometry.Contacts.index",  # test oracle
    "geometry.ShiftIndexSet.candidates",  # test oracle
    "geometry.pair_slack",  # test oracle
    "harness.random_feasible_state",  # builds test states
    "rigidity.stress_energy",  # claim (iv)
    "spectral.poincare_check",  # the spectral claims
}


def test_only_the_listed_public_helpers_go_uncalled_in_the_package():
    defined, named = {}, set()
    for path in sorted(Path(spit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                defined.update({f"{path.stem}.{node.name}.{item.name}": item.name
                                for item in node.body if isinstance(item, ast.FunctionDef)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):  # an import names it too
                named.add(node.name)
    assert {qual for qual, name in defined.items()
            if not name.startswith("_") and name not in named} == UNCALLED_IN_PACKAGE
