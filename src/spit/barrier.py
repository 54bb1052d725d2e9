"""Interior barrier on pair slacks: values, gradients, HVPs, curvature bounds.

The per-contact potential is

    phi(s) = -nu * log(s) + (nu / (2 delta)) * (s - delta)^2,   s > 0,

summed over canonical contacts within the interaction radius.  The log term
enforces strict feasibility; the quadratic term keeps the potential C^2 and
pulls pairs toward a finite preferred slack, which is what packs the cell.
An evaluation keeps each contact's separation r and slack for later consumers.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleSlackError
from .geometry import (
    Contacts,
    PackingState,
    ShiftIndexSet,
    basis_slack_gradient,
    contacts_within,
    frobenius,
    lattice_shifts,
    scatter_add,
    separations,
    slack_gradient,
    slack_values,
)


@dataclass(frozen=True)
class BarrierParams:
    """Barrier strength nu, safety margin delta, interaction radius R."""

    nu: float
    delta: float
    R: float

    def __post_init__(self):
        # the boundary delta = 1 is admissible for formula-level use; run
        # configurations keep the margin strictly interior
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")
        if self.R < 0.0:
            raise ValueError("interaction radius must be nonnegative")


def phi(s, p: BarrierParams):
    """Barrier value and first two derivatives at slack s (scalar or array).

    Raises on any nonpositive slack since the log term is undefined there.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise InfeasibleSlackError("infeasible slack")
    value, d1, d2 = _phi0(s, p), _phi1(s, p), _phi2(s, p)
    if value.ndim == 0:
        return float(value), float(d1), float(d2)
    return value, d1, d2


def _phi0(s, p: BarrierParams):
    return -p.nu * np.log(s) + (p.nu / (2.0 * p.delta)) * (s - p.delta) ** 2


def _phi1(s, p: BarrierParams):
    return -p.nu / s + (p.nu / p.delta) * (s - p.delta)


def _phi2(s, p: BarrierParams):
    return p.nu / s**2 + p.nu / p.delta


@dataclass(frozen=True)
class BarrierEval:
    """One barrier evaluation: value, gradients (grad_B when first read), r, s, phi', least s."""

    value: float
    grad_x: np.ndarray
    contacts: Contacts
    r: np.ndarray
    slack: np.ndarray
    min_slack: float
    dphi: np.ndarray

    @functools.cached_property
    def grad_B(self) -> np.ndarray:
        return basis_slack_gradient(self.contacts, self.r, self.dphi)


def _slacks(state: PackingState, contacts: Contacts):
    """r, the slacks ||r||^2 - 4 and their minimum (inf if none); raises if it is <= 0."""
    r, s = separations(state, contacts)
    least = float(s.min()) if s.size else float("inf")
    if least <= 0.0:
        raise InfeasibleSlackError("infeasible slack")
    return r, s, least


def barrier_energy(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
                   members: Contacts | None = None) -> BarrierEval:
    """Sum phi over included contacts and assemble the gradients by chain rule.
    Only phi and phi' are evaluated; each sum runs over the contacts in order."""
    contacts = members if members is not None else contacts_within(state, shifts, p.R)
    return barrier_from_separations(state, contacts, *_slacks(state, contacts), p)


def barrier_from_separations(state: PackingState, contacts: Contacts, r: np.ndarray,
                             s: np.ndarray, least: float, p: BarrierParams) -> BarrierEval:
    """`barrier_energy` on `contacts`, bit for bit, from their r, s and least slack > 0."""
    d1 = _phi1(s, p)
    gx = slack_gradient(state, contacts, r, d1)
    return BarrierEval(value=float(_phi0(s, p).sum()), grad_x=gx, contacts=contacts, r=r,
                       slack=s, min_slack=least, dphi=d1)


def barrier_value(state: PackingState, shifts: ShiftIndexSet, p: BarrierParams,
                  members: Contacts | None = None) -> float:
    """The value of `barrier_energy`."""
    return barrier_energy(state, shifts, p, members=members).value


def contact_blocks(r: np.ndarray, s: np.ndarray, p: BarrierParams) -> np.ndarray:
    """K_c = 4 phi'' r r^T + 2 phi' I, the Hessian of phi(||r||^2 - 4) in r, per contact
    of separation r and slack s: an (m, n, n) array for the HVPs, `hessian` and `HessianChange`."""
    m, n = r.shape
    K = ((4.0 * _phi2(s, p))[:, None] * r)[:, :, None] * r[:, None, :]
    K.reshape(m, n * n)[:, ::n + 1] += (2.0 * _phi1(s, p))[:, None]  # the diagonal, in place
    return K


def hvp_x(state: PackingState, contacts: Contacts, p: BarrierParams,
          direction: np.ndarray) -> np.ndarray:
    """The position block of the barrier Hessian on `contacts` applied to a direction
    field: `hvp_joint` with no basis move, read off its position part."""
    n = state.x.shape[1]
    return hvp_joint(state, contacts, p, direction, np.zeros((n, n)))[0]


def hvp_joint(state: PackingState, contacts: Contacts, p: BarrierParams,
              dir_x: np.ndarray, dir_B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the full (x, B) barrier Hessian on `contacts` to a joint direction.

    With w = p_i - p_j - H z (the first-order change of r along the direction)
    each contact contributes g = K_c w, K_c of `contact_blocks`, to the i-block,
    -g to the j-block, and -g z^T to the basis block, which makes the operator
    symmetric by construction.
    """
    r, s, _ = _slacks(state, contacts)
    w = dir_x[contacts.i] - dir_x[contacts.j] - lattice_shifts(contacts, np.asarray(dir_B, float))
    g = np.einsum("mab,mb->ma", contact_blocks(r, s, p), w)
    out_x = scatter_add(contacts.ends, np.concatenate([g, -g]).ravel(), state.x.size)
    return out_x.reshape(state.x.shape), -np.einsum("ma,mb->ab", g, contacts.zf)


def hessian(state: PackingState, contacts: Contacts, p: BarrierParams,
            out: np.ndarray | None = None) -> np.ndarray:
    """Dense position Hessian of the barrier: the operator of `hvp_x` as a matrix.

    Rows and columns follow `x.ravel()`.  Each contact adds its `contact_blocks` K
    to the (i, i) and (j, j) blocks and subtracts it from (i, j) and (j, i).
    Self-image contacts cancel out of every row, so only pairs are assembled.
    Each entry sums its (i, i), (j, j), (i, j), then (j, i) terms in contact order.
    A C-contiguous D x D float `out` is zeroed and receives the matrix in place of a new one.
    """
    N, n = state.x.shape
    D = N * n
    K = contact_blocks(*_slacks(state, contacts)[:2], p)
    pair = contacts.i != contacts.j
    i, j, Kp = contacts.i[pair], contacts.j[pair], K[pair]
    m, a = i.shape[0], np.arange(n)
    H = np.empty((D, D)) if out is None else out
    H.fill(0.0)
    # np.add.at adds in array order from 0.0, as `geometry.scatter_add` does,
    # but in place; the terms' block rows u n are u[:4m], their block columns
    # u[2m:], and entry (a, b) of block (u, v) is at (u n + a) D + v n + b
    u = np.concatenate([i, j, i, j, j, i]) * n
    np.add.at(H.reshape(-1),
              ((u[:4 * m] * D + u[2 * m:])[:, None, None] + (a[:, None] * D + a)).ravel(),
              np.concatenate([Kp, Kp, -Kp, -Kp]).ravel())
    return H


class HessianChange:
    """Bounds d >= ||H - H_anchor||_2 for the position Hessians `hessian`
    assembles on one contact table, from the blocks of `contact_blocks` at the
    anchor state and at another.

    H - H_anchor is assembled from dK_c = K_c - K_anchor_c alone.  By block
    Gershgorin (Feingold & Varga, Pacific J. Math. 12, 1962) its norm is at most
    the largest sum of block norms along a block row, with ||dK_c||_2 <=
    ||dK_c||_F: a pair adds 2 ||dK_c|| to the rows of both its spheres.  The
    row pattern depends on the table only, so it is built once here.

    Roundoff margin: each entry of either assembly, of dK and of this bound
    sums at most m + n^2 + 8 terms, so with tol = (m + n^2 + 8) eps an entry of
    the computed H - H_anchor is off by at most tol (|K_c| + |K_anchor_c|) per
    term, and ||K_c||_F <= ||K_anchor_c||_F + ||dK_c||_F.  Each weight
    therefore gains 2 tol ||K_anchor_c||_F and the bound a factor 1 + 4 tol.
    """

    def __init__(self, contacts: Contacts, K_anchor: np.ndarray):
        m, n = K_anchor.shape[:2]
        self.tol = (m + n * n + 8) * float(np.finfo(float).eps)
        self.K_anchor = K_anchor
        self.floor = 2.0 * self.tol * np.sqrt(np.einsum("mab,mab->m", K_anchor, K_anchor))
        pair = contacts.i != contacts.j
        self.ends = np.concatenate([contacts.i[pair], contacts.j[pair]])  # sphere of each pair end
        self.of = np.tile(np.flatnonzero(pair), 2)  # and its contact

    def bound(self, K: np.ndarray) -> float:
        """d >= ||H - H_anchor||_2 for the blocks K of the same table at another state."""
        dK = K - self.K_anchor
        w = np.sqrt(np.einsum("mab,mab->m", dK, dK)) + self.floor
        return 2.0 * float(np.bincount(self.ends, w[self.of]).max(initial=0.0)) \
            * (1.0 + 4.0 * self.tol)


def pair_mode_rayleigh(contacts: Contacts, r: np.ndarray, K: np.ndarray) -> float:
    """l <= lambda_max of the gauge position Hessian on `contacts`,
    from their separations r and `contact_blocks` K: the Rayleigh quotient of v =
    (e_i - e_j) (x) r_c, c the stiffest pair contact (largest ||K_c||_F) and r_c
    an eigenvector of its K_c; 0 without a pair.  v is mean-zero with no basis part
    and moves contact c by t_c r, t_c in {0, +-1, +-2}, so l = sum_c t_c^2
    r^T K_c r / (2 ||r||^2)."""
    i, j = contacts.i, contacts.j
    pair = i != j
    if not pair.any():
        return 0.0
    c = int(np.argmax(np.where(pair, np.einsum("mab,mab->m", K, K), -1.0)))
    r = r[c]
    t = (i == i[c]).astype(float) - (i == j[c]) - (j == i[c]) + (j == j[c])
    return float(np.einsum("m,a,mab,b->", t * t, r, K, r)) / (2.0 * float(r @ r))


class CurvatureBound(NamedTuple):
    value: float
    iters: int  # eigensolves
    converged: bool
    W_B: tuple | None = None  # a joint bound's n^2 x n^2 basis weight V diag(d) V^T, as (d, V)


def _gauge_spectrum(H: np.ndarray, N: int, n: int) -> tuple[np.ndarray, float]:
    """Eigenvalues of `H` on the gauge (mean-zero position) subspace, ascending,
    with a roundoff margin that brackets each of them.

    The n translation modes are null vectors of every barrier Hessian;
    they are shifted to s = ||H||_F + 1, above the whole spectrum, so one
    `eigvalsh` returns them as its n largest values.  For the symmetric
    eigensolver each computed eigenvalue lies within D eps ||A||_2 of an exact
    one (A the shifted matrix, ||A||_2 <= ||H||_F + s), which is the margin.
    A is built in `_buffer`, so `H` is left alone unless it is that buffer.
    """
    D = H.shape[0]
    s = frobenius(H) + 1.0
    w = np.linalg.eigvalsh(_shift_translations(H, N, n, s, _buffer(D, threading.get_ident())))
    return w[:D - n], D * float(np.finfo(float).eps) * (2.0 * s - 1.0)


def _shift_translations(H: np.ndarray, N: int, n: int, s: float, out: np.ndarray) -> np.ndarray:
    """H + s T T^T into `out` (which may be H), T the n orthonormal translation
    modes of N spheres, bit for bit: T T^T holds t^2 (t = 1/sqrt(N)) where a
    position row and column share their component, else 0."""
    np.add(H, 0.0, out=out)  # as H + s * 0 does, this turns -0.0 into 0.0
    t = 1.0 / np.sqrt(N)
    for a in range(n):
        out[a:N * n:n, a:N * n:n] += s * (t * t)
    return out


@functools.lru_cache(maxsize=1)
def _buffer(D: int, thread: int) -> np.ndarray:
    """A thread's D x D scratch matrix.  Dense estimates reuse it, as a fresh
    D x D array page-faults in again on every call; it is never handed to a caller."""
    return np.empty((D, D))


def _position_spectrum(state: PackingState, contacts: Contacts, p: BarrierParams):
    """`_gauge_spectrum` of the position Hessian, assembled in the scratch buffer
    it is shifted in and kept on the contact list for the next call:
    `estimate_L` and `estimate_m` of one state share it."""
    key, memo = (state.x.tobytes(), state.basis.B.tobytes(), p), contacts._memo
    if key not in memo:
        memo.clear()
        N, n = state.x.shape
        H = hessian(state, contacts, p, out=_buffer(N * n, threading.get_ident()))
        memo[key] = _gauge_spectrum(H, N, n)
    return memo[key]


def estimate_L(state: PackingState, contacts: Contacts, p: BarrierParams) -> CurvatureBound:
    """Certified upper bound on the largest-magnitude eigenvalue of the
    gauge-restricted position Hessian on `contacts`: one dense eigensolve plus
    its roundoff margin, floored at 1e-12."""
    w, margin = _position_spectrum(state, contacts, p)
    return CurvatureBound(max(float(abs(w).max(initial=0.0)) + margin, 1e-12), 1, True)


def estimate_m(state: PackingState, contacts: Contacts, p: BarrierParams) -> CurvatureBound:
    """Certified lower bound on the smallest eigenvalue of the gauge-restricted
    position Hessian on `contacts`, clipped at zero so flat directions report m = 0."""
    w, margin = _position_spectrum(state, contacts, p)
    return CurvatureBound(max(float(w[0]) - margin, 0.0) if w.size else 0.0, 1, True)


def estimate_L_joint(state: PackingState, contacts: Contacts, K: np.ndarray,
                     L_x: float) -> CurvatureBound:
    """Certified upper bound on the spectral norm of the joint Hessian on
    `contacts` at `state` (gauge positions and basis together), from their
    `contact_blocks` K and a bound L_x on the gauge position block's norm: the
    block-norm bound L = lambda_max([[L_x, b], [b, c]]) (Feingold & Varga, Pacific
    J. Math. 12, 1962) with b^2 and c from one eigensolve of the n^2 x n^2 matrices
    H_xB^T H_xB and H_BB = sum_c K_c (x) z_c z_c^T; no D x D matrix is formed.
    H_xB, rows -K_c (x) z_c^T at sphere i and +K_c (x) z_c^T at j per pair c, is
    mean-zero, so it couples the gauge positions alone.

    `W_B` is the basis weight of the block-diagonal majorizer diag(L I, W_B) of
    the joint Hessian (an MM majorizer: Hunter & Lange, Am. Stat. 58, 2004):
    W_B = V diag(max(lambda_i, 0) + tau + mu) V^T from H_BB = V diag(lambda) V^T,
    tau = b^2 / (L - L_x) (0 if b = 0) and a roundoff margin mu.  W_B - H_BB >=
    tau I and (L - L_x) tau >= b^2 >= ||H_xB||^2, so the Schur complement of
    diag(L I, W_B) - H_joint is PSD.  As c + tau <= L / (1 + 4 tol), W_B <= L I:
    no basis mode weighs more than the scalar L.  Its eigenvalues d are floored
    at 1e-12, as L is; it is returned as (d, V), the projection's whitening.

    Roundoff margin: with tol = (m + N n + n^2 + 8) eps, an entry of those
    matrices is off by at most tol times its terms' magnitudes, an eigensolve by
    n^2 eps times the norm.  With F and Z the Frobenius norms of all K_c (x)
    z_c^T and all z_c, Cauchy-Schwarz puts H_xB within 2 tol sqrt(m) F, H_BB and
    its eigenvalues within tol F Z each, H_xB^T H_xB and b^2 within tol
    ||H_xB||_F^2 each.  The bound gains a factor 1 + 4 tol.  mu = 2 tol F Z +
    4 tol (c + tau) covers H_BB's error, tau's rounding and how far V diag(.) V^T
    of the computed, nearly orthogonal V is from the exact product.
    """
    N, n = state.x.shape
    m, nn = K.shape[0], n * n
    tol = (m + N * n + nn + 8) * float(np.finfo(float).eps)
    Kz = (K[:, :, :, None] * contacts.zf[:, None, None, :]).reshape(m, n * nn)  # row a, col (b, d)
    pz = Kz * (contacts.i != contacts.j)[:, None]  # self-images cancel out of H_xB
    C = scatter_add((contacts.ends[:, None] * nn + np.arange(nn)).ravel(),
                    np.concatenate([-pz, pz]).ravel(), N * n * nn).reshape(N * n, nn)
    H_BB = (contacts.zf.T @ Kz).reshape(n, n, n, n).transpose(1, 0, 2, 3).reshape(nn, nn)
    w, V = np.linalg.eigh(np.array([C.T @ C, H_BB]))
    F, Z = frobenius(Kz), frobenius(contacts.zf)
    b = (max(w[0, -1], 0.0) + 2.0 * tol * frobenius(C) ** 2) ** 0.5 + 2.0 * tol * m ** 0.5 * F
    c = max(-w[1, 0], w[1, -1]) + 2.0 * tol * F * Z
    top = 0.5 * (L_x + c) + (0.25 * (L_x - c) ** 2 + b * b) ** 0.5
    L = max(float(top) * (1.0 + 4.0 * tol), 1e-12)
    tau = b * b / (L - L_x) if b > 0.0 else 0.0
    d = np.maximum(np.maximum(w[1], 0.0) + (tau + 2.0 * tol * F * Z + 4.0 * tol * (c + tau)),
                   1e-12)
    return CurvatureBound(L, 1, True, (d, V[1]))


def lipschitz_bound(p: BarrierParams, slack_cap: float, radius: float, count: int) -> float:
    """Closed-form gradient Lipschitz constant on the slab delta <= s <= slack_cap.

    Assembled from |phi'| <= nu (1/delta + S/delta), phi'' <= nu (1/delta^2 +
    1/delta), separation norms bounded by the interaction radius, and the
    number of included contacts; each contact's position Hessian block has
    norm at most 4 phi''_max R^2 + 4 |phi'|_max.
    """
    c1 = p.nu * (1.0 / p.delta + slack_cap / p.delta)
    c2 = p.nu * (1.0 / p.delta**2 + 1.0 / p.delta)
    return count * (4.0 * c2 * radius**2 + 4.0 * c1)


def observed_slack_cap(state: PackingState, contacts: Contacts, p: BarrierParams) -> float:
    """Largest slack of `contacts` (at least delta), used as the cap in closed-form constants."""
    return float(slack_values(state, contacts).max(initial=p.delta))
