"""Contact graphs and their spectra; energy-safe spectral nudges.

The contact graph has one vertex per sphere and one edge per (near-)touching
canonical contact, lattice images included.  Its Fiedler value, from a
values-only dense eigensolve, drives the nudge trigger; a nudge lifts the
Fiedler vector to a geometric displacement along contact normals.  Cheeger
and Poincare checks are exact-at-small-scale test oracles for the Laplacian.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import Contacts, PackingState, gauge_project, r_vectors, scatter_add

@dataclass(frozen=True)
class ContactGraph:
    """Vertices, canonical contact edges, unit normals, and gaps ||r|| - 2.

    Self-image contacts appear as loops; they carry normals and gaps but do
    not enter the Laplacian or vertex degrees (a loop has zero Dirichlet
    energy and never crosses a cut).
    """

    n_vertices: int
    edges: Contacts
    normals: np.ndarray
    gaps: np.ndarray
    degrees: np.ndarray

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def loop_mask(self) -> np.ndarray:
        return self.edges.i == self.edges.j

    @property
    def pair_edges(self) -> np.ndarray:  # (2, m) ends of the non-loop edges, in order
        pair = ~self.loop_mask
        return np.stack([self.edges.i[pair], self.edges.j[pair]])


def build_contact_graph(state: PackingState, near: Contacts) -> ContactGraph:
    """Graph whose edges are the contacts `near`: those within 2 + eps found by
    `contacts_within`, or an evaluation's `near_rows`."""
    r = r_vectors(state, near)
    dist = np.linalg.norm(r, axis=1)
    normals = r / np.maximum(dist, 1e-300)[:, None]
    gaps = dist - 2.0
    pair = near.i != near.j
    degrees = np.bincount(np.concatenate([near.i[pair], near.j[pair]]), minlength=state.N)
    return ContactGraph(n_vertices=state.N, edges=near, normals=normals,
                        gaps=gaps, degrees=degrees)


def near_rows(ev, eps: float) -> np.ndarray:
    """Indices of the rows of the `BarrierEval` `ev` within 2 + eps, loops included:
    those `contacts_within(state, shifts, 2 + eps)` finds among its contacts, by their
    slacks d^2 - 4 (d^2 has the same bits in any table).  x - 4 is exact for doubles
    x in [2, 2^54) (Sterbenz to 8, then ulp(x) divides 4), so slack <= (2+eps)^2 - 4
    iff d^2 <= (2+eps)^2."""
    cap = (2.0 + eps) * (2.0 + eps) - 4.0
    if ev.min_slack > cap:  # one compare rules out most edgeless evaluations
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(ev.slack <= cap)


def pair_edges_of(ev, eps: float) -> np.ndarray | None:
    """The `pair_edges` of the graph on `near_rows(ev, eps)`, or None without one."""
    i, j = ev.contacts.i, ev.contacts.j
    rows = near_rows(ev, eps)
    rows = rows[i[rows] != j[rows]]
    return np.stack([i[rows], j[rows]]) if rows.size else None


def laplacian(N: int, edges: np.ndarray) -> np.ndarray:
    """Combinatorial Laplacian of (2, m) pair edges; multi-edges count with multiplicity."""
    i, j = edges
    # small integer entries: the sums are exact whatever the order
    at = np.concatenate([i * N + i, j * N + j, i * N + j, j * N + i])
    return scatter_add(at, np.repeat([1.0, 1.0, -1.0, -1.0], i.shape[0]), N * N).reshape(N, N)


def _sign_fix(v: np.ndarray) -> np.ndarray:
    for c in v:
        if abs(c) > 1e-12:
            return v if c > 0 else -v
    return v


def _shifted_laplacian(N: int, edges: np.ndarray) -> np.ndarray:
    """L + s 11^T / N of (2, m) pair edges, s = 2 max-degree + 1 > lambda_max(L)
    (Gershgorin): the shift lifts the constant mode above the spectrum, so the
    least eigenpair is the Fiedler pair of L."""
    if N < 2:
        raise ValueError("fiedler value needs at least two vertices")
    L = laplacian(N, edges)
    L += (2.0 * L.diagonal().max() + 1.0) / N
    return L


def _clamped(lam: float) -> float:
    return max(lam, 0.0) if abs(lam) < 1e-10 else lam


def fiedler(graph: ContactGraph) -> tuple[float, np.ndarray]:
    """Second-smallest Laplacian eigenvalue and a unit mean-zero eigenvector:
    the least eigenpair of the shifted Laplacian, from one dense `eigh`; a
    negative value within 1e-10 of zero is clamped to zero."""
    w, V = np.linalg.eigh(_shifted_laplacian(graph.n_vertices, graph.pair_edges))
    return _clamped(float(w[0])), _sign_fix(V[:, 0])


def fiedler_value(N: int, edges: np.ndarray) -> float:
    """`fiedler`'s value, from (2, m) pair edges and one values-only eigensolve."""
    return _clamped(float(np.linalg.eigvalsh(_shifted_laplacian(N, edges))[0]))


@dataclass(frozen=True)
class CheegerReport:
    h: float
    lower: float
    upper: float
    ok: bool
    lambda2: float


def cheeger_check(graph: ContactGraph) -> CheegerReport:
    """Exact edge-expansion constant by subset enumeration, with the spectral
    sandwich h^2 / (2 max-degree) <= lambda2 <= 2 h."""
    N = graph.n_vertices
    if N > 20:
        raise ValueError("exact Cheeger limited to small graphs")
    lam2 = fiedler_value(N, graph.pair_edges)
    masks = np.arange(1, 1 << N, dtype=np.uint32)
    sizes = np.zeros(masks.shape, dtype=np.int64)
    for bit in range(N):
        sizes += (masks >> bit) & 1
    cross = np.zeros(masks.shape, dtype=np.int64)
    for i, j in graph.pair_edges.T:
        cross += ((masks >> int(i)) ^ (masks >> int(j))) & 1
    valid = sizes <= N / 2
    h = float(np.min(cross[valid] / sizes[valid]))
    dmax = int(np.max(graph.degrees)) if N else 0
    lower = h * h / (2.0 * dmax) if dmax > 0 else 0.0
    upper = 2.0 * h
    ok = bool(lower <= lam2 <= upper + 1e-9)
    return CheegerReport(h=h, lower=lower, upper=upper, ok=ok, lambda2=lam2)


def poincare_check(graph: ContactGraph, u: np.ndarray, tol: float = 1e-9) -> bool:
    """Does sum u_i^2 <= (1/lambda2) * sum_edges (u_i - u_j)^2 hold for mean-zero u?"""
    u = np.asarray(u, dtype=float)
    if abs(float(np.sum(u))) > 1e-9 * max(1.0, float(np.max(np.abs(u))) * len(u)):
        raise ValueError("vector must be mean-zero")
    edges = graph.pair_edges
    lam2 = fiedler_value(graph.n_vertices, edges)
    if lam2 <= 1e-12:
        raise ValueError("graph is disconnected; the inequality needs lambda2 > 0")
    diff = u[edges[0]] - u[edges[1]]
    lhs = float(np.sum(u * u))
    rhs = float(np.sum(diff * diff)) / lam2
    return lhs <= rhs + tol


def lift_mode(state: PackingState, graph: ContactGraph, v: np.ndarray) -> np.ndarray:
    """Lift a graph mode to a displacement field along contact normals.

    Each edge pushes both endpoints by (v_i - v_j) along the normal oriented
    from i toward j, averaged over the vertex degree; the result is
    gauge-projected.  Zero-degree vertices stay put.
    """
    v = np.asarray(v, dtype=float)
    pair = ~graph.loop_mask
    i, j = graph.pair_edges
    # normal from i toward j is -r/||r||, so both endpoints receive -(v_i - v_j) n_edge
    contrib = -(v[i] - v[j])[:, None] * graph.normals[pair]
    out = scatter_add(graph.edges.take(pair).ends, np.concatenate([contrib, contrib]).ravel(),
                      state.x.size).reshape(state.x.shape)
    out /= np.maximum(graph.degrees, 1)[:, None]
    out[graph.degrees == 0] = 0.0
    return gauge_project(out)


def nudge_alpha(ds, dx: np.ndarray, graph_near: ContactGraph, L_hat: float,
                gbar: np.ndarray) -> tuple[float, bool]:
    """Admissible energy-safe nudge size along the (possibly flipped) mode.

    The geometric cap keeps every near gap open at the linearized level; the
    energy cap is the exact descent condition of the quadratic majorizer with
    constant L_hat + gamma.  Returns (alpha, flipped); the caller applies
    x += alpha * (-dx if flipped else dx).
    """
    dx = np.asarray(dx, dtype=float)
    ndx2 = float(np.sum(dx * dx))
    inner = float(np.sum(gbar * dx))
    flipped = inner > 0.0
    if ndx2 == 0.0:
        return 0.0, flipped
    dxs = -dx if flipped else dx
    inner_s = -inner if flipped else inner
    pair, (i, j) = ~graph_near.loop_mask, graph_near.pair_edges
    if np.any(pair):
        rel = np.einsum("mk,mk->m", dxs[i] - dxs[j], graph_near.normals[pair])
        gaps = np.maximum(graph_near.gaps[pair], 0.0)
        a_max = float(np.min(gaps / (np.abs(rel) + 1e-12)))
    else:
        a_max = float("inf")
    a_energy = 2.0 * max(0.0, -inner_s) / ((L_hat + ds.gamma) * ndx2)
    return min(a_max, a_energy), flipped


@dataclass
class NudgeHistory:
    """Sliding window of recent Fiedler values plus the last nudge step."""

    window: int
    values: deque = field(default_factory=deque)
    last_nudge: int = -(10 ** 9)

    def __post_init__(self):
        self.values = deque(self.values, maxlen=self.window)

    def push(self, lam2: float) -> None:
        self.values.append(float(lam2))

    def __len__(self) -> int:
        return len(self.values)


def _window_median(values, now: float) -> float:
    """Median of `values` and `now` from a sorted list, bit for bit `np.median`."""
    v, h = sorted([*values, now]), (len(values) + 1) // 2
    return v[h] if len(v) % 2 else (v[h - 1] + v[h]) / 2.0


def nudge_trigger(history: NudgeHistory, lambda2_now: float, kappa: float,
                  m_hat: float, L_hat: float, step: int, K: int) -> bool:
    """True when the current Fiedler value undercuts the adaptive threshold
    and the cadence has elapsed.

    The threshold is kappa * median(window including now) * min(1, m/L).
    """
    if len(history) == 0:
        raise ValueError("nudge trigger needs a nonempty history window")
    if step - history.last_nudge < K:
        return False
    med = _window_median(history.values, lambda2_now)
    ratio = min(1.0, m_hat / L_hat) if L_hat > 0 else 0.0
    tau = kappa * med * ratio
    return lambda2_now < tau
