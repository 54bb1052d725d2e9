"""Contact graphs and their spectra; energy-safe spectral nudges.

The contact graph has one vertex per sphere and one edge per (near-)touching
canonical contact, lattice images included.  Its Fiedler value, from a dense
eigensolve at every size, drives the nudge trigger; the Fiedler vector is
lifted to a geometric displacement along contact normals.  Cheeger and
Poincare checks are exact-at-small-scale test oracles for the same Laplacian.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import Contacts, PackingState, ShiftIndexSet, contacts_within, gauge_project, r_vectors


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


def build_contact_graph(state: PackingState, shifts: ShiftIndexSet, eps: float,
                        base: Contacts | None = None) -> ContactGraph:
    """Graph of canonical contacts with separation at most 2 + eps."""
    near = contacts_within(state, shifts, 2.0 + eps, base=base)
    r = r_vectors(state, near)
    dist = np.linalg.norm(r, axis=1)
    normals = r / np.maximum(dist, 1e-300)[:, None]
    gaps = dist - 2.0
    degrees = np.zeros(state.N, dtype=np.int64)
    pair = near.i != near.j
    np.add.at(degrees, near.i[pair], 1)
    np.add.at(degrees, near.j[pair], 1)
    return ContactGraph(n_vertices=state.N, edges=near, normals=normals,
                        gaps=gaps, degrees=degrees)


def laplacian(graph: ContactGraph) -> np.ndarray:
    """Combinatorial Laplacian; multi-edges count with multiplicity."""
    N = graph.n_vertices
    L = np.zeros((N, N))
    pair = ~graph.loop_mask
    i, j = graph.edges.i[pair], graph.edges.j[pair]
    # small integer entries: the sums are exact whatever the order
    np.add.at(L, (i, i), 1.0)
    np.add.at(L, (j, j), 1.0)
    np.subtract.at(L, (i, j), 1.0)
    np.subtract.at(L, (j, i), 1.0)
    return L


@functools.lru_cache(maxsize=None)
def _ones_complement(N: int) -> np.ndarray:
    # orthonormal basis of the mean-zero subspace via QR of [1 | I]; cached
    # per N and read-only
    M = np.concatenate([np.ones((N, 1)) / np.sqrt(N), np.eye(N)], axis=1)
    q, _ = np.linalg.qr(M)
    Q = q[:, 1:N]
    Q.flags.writeable = False
    return Q


def _sign_fix(v: np.ndarray) -> np.ndarray:
    for c in v:
        if abs(c) > 1e-12:
            return v if c > 0 else -v
    return v


def fiedler(graph: ContactGraph, tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Second-smallest Laplacian eigenvalue and a unit mean-zero eigenvector.

    Dense symmetric eigensolve of the Laplacian restricted to the mean-zero
    subspace, for every graph size; a negative value within `tol` of zero is
    clamped to zero.
    """
    N = graph.n_vertices
    if N < 2:
        raise ValueError("fiedler value needs at least two vertices")
    Q = _ones_complement(N)
    w, V = np.linalg.eigh(Q.T @ laplacian(graph) @ Q)
    lam = float(w[0])
    if abs(lam) < tol:
        lam = max(lam, 0.0)
    return lam, _sign_fix(Q @ V[:, 0])


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
    if N < 2:
        raise ValueError("Cheeger constant needs at least two vertices")
    lam2, _ = fiedler(graph)
    masks = np.arange(1, 1 << N, dtype=np.uint32)
    sizes = np.zeros(masks.shape, dtype=np.int64)
    for bit in range(N):
        sizes += (masks >> bit) & 1
    cross = np.zeros(masks.shape, dtype=np.int64)
    pair = ~graph.loop_mask
    for i, j in zip(graph.edges.i[pair], graph.edges.j[pair]):
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
    lam2, _ = fiedler(graph)
    if lam2 <= 1e-12:
        raise ValueError("graph is disconnected; the inequality needs lambda2 > 0")
    pair = ~graph.loop_mask
    diff = u[graph.edges.i[pair]] - u[graph.edges.j[pair]]
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
    out = np.zeros_like(state.x)
    pair = ~graph.loop_mask
    diff = v[graph.edges.i[pair]] - v[graph.edges.j[pair]]
    # normal from i toward j is -r/||r||, so both endpoints receive -diff * n_edge
    contrib = -diff[:, None] * graph.normals[pair]
    np.add.at(out, graph.edges.i[pair], contrib)
    np.add.at(out, graph.edges.j[pair], contrib)
    deg = np.maximum(graph.degrees, 1).astype(float)
    out /= deg[:, None]
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
    pair = ~graph_near.loop_mask
    if np.any(pair):
        rel = np.einsum("mk,mk->m", dxs[graph_near.edges.i[pair]] - dxs[graph_near.edges.j[pair]],
                        graph_near.normals[pair])
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
    med = float(np.median(list(history.values) + [lambda2_now]))
    ratio = min(1.0, m_hat / L_hat) if L_hat > 0 else 0.0
    tau = kappa * med * ratio
    return lambda2_now < tau
