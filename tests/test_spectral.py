"""Contact graphs, Fiedler pairs, Cheeger/Poincare oracles, nudges."""

import numpy as np
import pytest
from util import hex_single_sphere, make_ds, pair_state

from spit.barrier import BarrierParams, barrier_energy, estimate_L
from spit.geometry import Contacts, LatticeBasis, PackingState, build_shift_set
from spit.harness import config_from_preset, make_testbed
from spit.spectral import (
    ContactGraph,
    NudgeHistory,
    _ones_complement,
    build_contact_graph,
    cheeger_check,
    fiedler,
    laplacian,
    lift_mode,
    nudge_alpha,
    nudge_trigger,
    poincare_check,
)

P = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)


def graph_from_edges(N: int, edges) -> ContactGraph:
    """Abstract graph with synthetic geometry (normals unused in spectra)."""
    ii = np.array([e[0] for e in edges], dtype=np.int64)
    jj = np.array([e[1] for e in edges], dtype=np.int64)
    z = np.zeros((len(edges), 2), dtype=np.int64)
    normals = np.tile(np.array([1.0, 0.0]), (len(edges), 1))
    gaps = np.full(len(edges), 0.1)
    degrees = np.zeros(N, dtype=np.int64)
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
    return ContactGraph(n_vertices=N, edges=Contacts(ii, jj, z), normals=normals,
                        gaps=gaps, degrees=degrees)


def test_build_graph_two_spheres_at_contact():
    st = pair_state(2.0)
    shifts = build_shift_set(st.basis, P.R)
    g = build_contact_graph(st, shifts, eps=1e-6)
    assert len(g) == 1
    # canonical contact (0, 1, 0): r = x0 - x1 = (-2, 0), normal r/||r||
    assert np.allclose(g.normals[0], [-1.0, 0.0])
    assert g.gaps[0] == pytest.approx(0.0, abs=1e-12)


def test_build_graph_empty_when_far():
    st = pair_state(2.2)
    shifts = build_shift_set(st.basis, P.R)
    g = build_contact_graph(st, shifts, eps=0.05)
    assert len(g) == 0


def test_build_graph_hexagonal_self_images():
    st = hex_single_sphere()
    shifts = build_shift_set(st.basis, P.R)
    g = build_contact_graph(st, shifts, eps=1e-6)
    assert len(g) == 3  # canonical halves of the six contacts
    assert np.all(g.loop_mask)
    assert np.allclose(np.linalg.norm(g.normals, axis=1), 1.0, atol=1e-12)


def test_fiedler_k2():
    g = graph_from_edges(2, [(0, 1)])
    lam, vec = fiedler(g)
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(np.abs(vec), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert vec[0] * vec[1] < 0


def test_fiedler_path3():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    lam, _ = fiedler(g)
    # dense-oracle eigenvalues of the path Laplacian are {0, 1, 3}
    w = np.linalg.eigvalsh(laplacian(g))
    assert lam == pytest.approx(sorted(w)[1], abs=1e-12)
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_fiedler_disconnected_is_zero():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    lam, _ = fiedler(g)
    assert abs(lam) <= 1e-10


def test_fiedler_requires_two_vertices():
    g = graph_from_edges(1, [])
    with pytest.raises(ValueError):
        fiedler(g)


def test_fiedler_ring100_matches_full_spectrum():
    # a 100-vertex ring: the restricted dense solve serves graphs of every size
    N = 100
    edges = [(i, (i + 1) % N) for i in range(N)]
    g = graph_from_edges(N, edges)
    lam, vec = fiedler(g, tol=1e-12)
    want = float(np.sort(np.linalg.eigvalsh(laplacian(g)))[1])
    assert lam == pytest.approx(want, rel=1e-10)
    assert abs(float(np.sum(vec))) <= 1e-8
    assert np.linalg.norm(laplacian(g) @ vec - lam * vec) <= 1e-10


def _fiedler_uncached(graph):
    """The Fiedler pair as computed before the basis cache and the vectorised
    Laplacian: per-edge loop, fresh QR of [1 | I], restricted eigh."""
    N = graph.n_vertices
    L = np.zeros((N, N))
    pair = ~graph.loop_mask
    for i, j in zip(graph.edges.i[pair], graph.edges.j[pair]):
        L[i, i] += 1.0
        L[j, j] += 1.0
        L[i, j] -= 1.0
        L[j, i] -= 1.0
    M = np.concatenate([np.ones((N, 1)) / np.sqrt(N), np.eye(N)], axis=1)
    Q = np.linalg.qr(M)[0][:, 1:N]
    w, V = np.linalg.eigh(Q.T @ L @ Q)
    v = Q @ V[:, 0]
    first = v[np.argmax(np.abs(v) > 1e-12)]
    return L, float(w[0]), v if first > 0 else -v


def _ring100():
    return graph_from_edges(100, [(i, (i + 1) % 100) for i in range(100)])


def _stub32_graph():
    cfg = config_from_preset("stub32")
    st = make_testbed(cfg).packing
    return build_contact_graph(st, build_shift_set(st.basis, cfg.R), cfg.eps_near)


@pytest.mark.parametrize("make_graph", [_ring100, _stub32_graph], ids=["ring100", "stub32"])
def test_fiedler_bytes_match_uncached_reference(make_graph):
    g = make_graph()
    L_ref, lam_ref, vec_ref = _fiedler_uncached(g)
    assert laplacian(g).tobytes() == L_ref.tobytes()
    for _ in range(2):  # the second call reuses the cached basis
        lam, vec = fiedler(g)
        assert np.float64(lam).tobytes() == np.float64(lam_ref).tobytes()
        assert vec.tobytes() == vec_ref.tobytes()
    Q = _ones_complement(g.n_vertices)
    assert Q is _ones_complement(g.n_vertices)
    with pytest.raises(ValueError):
        Q[0, 0] = 1.0


def test_cheeger_cycle4():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rep = cheeger_check(g)
    assert rep.h == pytest.approx(1.0)
    assert rep.lower == pytest.approx(0.25)
    assert rep.upper == pytest.approx(2.0)
    assert rep.lambda2 == pytest.approx(2.0, abs=1e-12)
    assert rep.ok


def test_cheeger_k4():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    rep = cheeger_check(graph_from_edges(4, edges))
    assert rep.h == pytest.approx(2.0)
    assert rep.lower == pytest.approx(2.0 / 3.0)
    assert rep.upper == pytest.approx(4.0)
    assert rep.lambda2 == pytest.approx(4.0, abs=1e-12)
    assert rep.ok


def test_cheeger_disconnected():
    rep = cheeger_check(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert rep.h == 0.0
    assert rep.lambda2 == pytest.approx(0.0, abs=1e-10)
    assert rep.ok


def test_cheeger_rejects_large_graphs():
    edges = [(i, i + 1) for i in range(24)]
    with pytest.raises(ValueError, match="exact Cheeger limited"):
        cheeger_check(graph_from_edges(25, edges))


def test_cheeger_sandwich_random_graphs():
    rng = np.random.default_rng(123)
    for _ in range(50):
        N = int(rng.integers(3, 13))
        edges = [(i, j) for i in range(N) for j in range(i + 1, N)
                 if rng.uniform() < 0.45]
        rep = cheeger_check(graph_from_edges(N, edges))
        assert rep.ok


def test_poincare_fiedler_vector_attains_equality():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    lam, vec = fiedler(g)
    pair = ~g.loop_mask
    diff = vec[g.edges.i[pair]] - vec[g.edges.j[pair]]
    lhs = float(np.sum(vec**2))
    rhs = float(np.sum(diff**2)) / lam
    assert abs(lhs - rhs) <= 1e-9
    assert poincare_check(g, vec)


def test_poincare_zero_vector_and_random_sweep():
    rng = np.random.default_rng(7)
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    assert poincare_check(g, np.zeros(6))
    for _ in range(100):
        u = rng.standard_normal(6)
        u -= u.mean()
        assert poincare_check(g, u)


def test_poincare_rejects_disconnected():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        poincare_check(g, np.array([1.0, -1.0, 0.5, -0.5]))


def test_lift_mode_constant_vector_vanishes():
    st = pair_state(2.0)
    shifts = build_shift_set(st.basis, P.R)
    g = build_contact_graph(st, shifts, eps=1e-6)
    out = lift_mode(st, g, np.array([0.7, 0.7]))
    assert np.all(out == 0.0)


def test_lift_mode_two_vertex_example():
    st = pair_state(2.0)
    shifts = build_shift_set(st.basis, P.R)
    g = build_contact_graph(st, shifts, eps=1e-6)
    out = lift_mode(st, g, np.array([1.0, -1.0]))
    # the raw lift pushes both vertices by (2, 0); the gauge removes it
    assert np.allclose(out, 0.0, atol=1e-14)


def test_lift_mode_permutation_equivariant():
    x = np.array([[0.0, 0.0], [2.05, 0.0], [1.0, 1.8]])
    st = PackingState.make(x, LatticeBasis(np.eye(2) * 50.0))
    shifts = build_shift_set(st.basis, P.R)
    g = build_contact_graph(st, shifts, eps=0.2)
    v = np.array([0.9, -0.4, -0.5])
    out = lift_mode(st, g, v)
    perm = np.array([2, 0, 1])
    st_p = PackingState.make(st.x[perm], st.basis)
    g_p = build_contact_graph(st_p, shifts, eps=0.2)
    out_p = lift_mode(st_p, g_p, v[perm])
    assert np.allclose(out_p, out[perm], atol=1e-12)


def test_lift_mode_zero_degree_vertices():
    x = np.array([[0.0, 0.0], [2.02, 0.0], [10.0, 10.0]])
    st = PackingState.make(x, LatticeBasis(np.eye(2) * 60.0))
    shifts = build_shift_set(st.basis, P.R)
    g = build_contact_graph(st, shifts, eps=0.1)
    assert g.degrees[2] == 0
    out = lift_mode(st, g, np.array([1.0, -1.0, 5.0]))
    # the isolated vertex gets zero raw displacement; after the gauge shift it
    # carries exactly minus the mean of the raw field
    raw = out - out[2]  # undo the common shift: raw[2] == 0 by construction
    assert np.allclose(raw[2], 0.0, atol=1e-14)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-14)


def test_nudge_alpha_isolated_pair_geometric_cap():
    st = pair_state(2.5)
    shifts = build_shift_set(st.basis, 3.0)
    g = build_contact_graph(st, shifts, eps=0.6)
    assert len(g) == 1
    dx = np.array([[0.5, 0.0], [-0.5, 0.0]])  # unit relative normal motion
    ds = make_ds(st, P, L_hat=1.0)
    gbar = -dx * 1e6  # energy branch enormous; geometric cap binds
    alpha, flipped = nudge_alpha(ds, dx, g, L_hat=1.0, gbar=gbar)
    assert not flipped
    assert alpha == pytest.approx(0.5, rel=1e-9)


def test_nudge_alpha_orthogonal_modes_hit_energy_branch():
    st = pair_state(2.5)
    shifts = build_shift_set(st.basis, 3.0)
    g = build_contact_graph(st, shifts, eps=0.6)
    dx = np.array([[0.0, 1.0], [0.0, -1.0]])  # orthogonal to the contact normal
    ds = make_ds(st, P, L_hat=1.0)
    gbar = -dx  # descent direction
    alpha, flipped = nudge_alpha(ds, dx, g, L_hat=1.0, gbar=gbar)
    a_energy = 2.0 * float(np.sum(dx * dx)) / ((1.0 + ds.gamma) * float(np.sum(dx * dx)))
    assert not flipped
    assert alpha == pytest.approx(a_energy)


def test_nudge_alpha_zero_inner_product_gives_zero():
    st = pair_state(2.5)
    shifts = build_shift_set(st.basis, 3.0)
    g = build_contact_graph(st, shifts, eps=0.6)
    dx = np.array([[0.0, 1.0], [0.0, -1.0]])
    ds = make_ds(st, P, L_hat=1.0)
    gbar = np.array([[1.0, 0.0], [1.0, 0.0]])  # orthogonal to dx
    alpha, flipped = nudge_alpha(ds, dx, g, L_hat=1.0, gbar=gbar)
    assert alpha == 0.0
    assert not flipped


def test_nudge_alpha_flips_ascent_directions():
    st = pair_state(2.5)
    shifts = build_shift_set(st.basis, 3.0)
    g = build_contact_graph(st, shifts, eps=0.6)
    dx = np.array([[0.0, 1.0], [0.0, -1.0]])
    ds = make_ds(st, P, L_hat=1.0)
    alpha, flipped = nudge_alpha(ds, dx, g, L_hat=1.0, gbar=dx.copy())
    assert flipped
    assert alpha > 0.0


def test_nudge_alpha_zero_mode():
    st = pair_state(2.5)
    shifts = build_shift_set(st.basis, 3.0)
    g = build_contact_graph(st, shifts, eps=0.6)
    ds = make_ds(st, P, L_hat=1.0)
    alpha, _ = nudge_alpha(ds, np.zeros_like(st.x), g, L_hat=1.0, gbar=np.ones_like(st.x))
    assert alpha == 0.0


def test_nudge_trigger_cases():
    hist = NudgeHistory(window=10)
    for _ in range(10):
        hist.push(1.0)
    # current value above the median: never triggers
    assert not nudge_trigger(hist, 1.5, kappa=0.3, m_hat=1.0, L_hat=1.0, step=100, K=10)
    # spec formula: tau = 0.3 * 1.0 * 1.0 = 0.3 > 0.2
    assert nudge_trigger(hist, 0.2, kappa=0.3, m_hat=1.0, L_hat=1.0, step=100, K=10)
    # cadence not elapsed
    hist.last_nudge = 95
    assert not nudge_trigger(hist, 0.2, kappa=0.3, m_hat=1.0, L_hat=1.0, step=100, K=10)
    # flat landscape disables nudging through the m/L factor
    hist.last_nudge = -10**9
    assert not nudge_trigger(hist, 0.2, kappa=0.3, m_hat=0.0, L_hat=1.0, step=100, K=10)


def test_nudge_history_window_bound():
    hist = NudgeHistory(window=5)
    for k in range(12):
        hist.push(float(k))
    assert len(hist) == 5
    assert list(hist.values) == [7.0, 8.0, 9.0, 10.0, 11.0]


def test_applied_nudge_is_energy_safe():
    # random small states: a nudge of the computed size never raises E beyond tolerance
    from spit.harness import random_feasible_state
    from util import energy_of
    from spit.geometry import gauge_project

    for seed in range(6):
        st = random_feasible_state(seed=500 + seed, N=4, delta=0.02)
        shifts = build_shift_set(st.basis, P.R)
        L = estimate_L(st, shifts, P).value
        ds = make_ds(st, P, L_hat=L)
        g = build_contact_graph(st, shifts, eps=P.R - 2.0)
        if st.N < 2 or len(g) == 0:
            continue
        lam, vec = fiedler(g)
        dx = lift_mode(st, g, vec)
        ev = barrier_energy(st, shifts, P)
        gbar = ev.grad_x + ds.gamma * (st.x - ds.x_prev)
        alpha, flipped = nudge_alpha(ds, dx, g, L_hat=L, gbar=gbar)
        dxs = -dx if flipped else dx
        import dataclasses
        trial = dataclasses.replace(ds, packing=st.with_x(gauge_project(st.x + alpha * dxs)))
        assert energy_of(trial, P, shifts) <= energy_of(ds, P, shifts) + 1e-10
