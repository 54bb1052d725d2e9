"""Lattice bases, contact enumeration, pair slacks, and the center-of-mass gauge.

Sphere centers are stored in Cartesian coordinates and are never wrapped into
the fundamental cell; the lattice enters only through shift vectors t = B z.
`contacts_within` finds every contact within a radius by a cell list in
fractional coordinates (Allen & Tildesley, ch. 5).  All operations are pure
functions, and contact tables are kept in a fixed canonical order so repeated
summations are bitwise reproducible.  B z is an einsum, not a BLAS matrix
product, so a contact's separation has the same bits in every table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import SingularBasisError

_DET_TOL = 1e-12
_SIGMA_LO, _SIGMA_HI = 1e-4, 1e8  # the cell nondegeneracy window on eig(B^T B)
_GAUGE_TOL = 64.0 * np.finfo(float).eps  # relative residual mean gauge_project leaves alone


def gauge_project(x: np.ndarray) -> np.ndarray:
    """Subtract the mean point, `x.sum(0) / N` (the sum and division of `np.mean`).

    Exactly idempotent: once the residual mean falls below a few ulps of the
    coordinate scale the input array is returned unchanged.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x
    m = x.sum(0) / x.shape[0]
    residual = float(abs(m).max())  # bounded by _GAUGE_TOL max(1, max |x|)
    if residual <= _GAUGE_TOL or residual <= _GAUGE_TOL * float(abs(x).max()):
        return x
    return x - m


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice basis; columns are the generators.

    Construction enforces the cell nondegeneracy window on the eigenvalues of
    B^T B; a violation is a hard error because every curvature and step-size
    bound downstream assumes it.
    """

    B: np.ndarray
    volume: float = field(init=False, repr=False, compare=False)  # |det B|
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # cell lists

    def __post_init__(self):
        B = np.array(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("basis must be a square matrix")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "volume", abs(float(np.linalg.det(B))))
        if self.volume <= _DET_TOL:
            raise SingularBasisError("singular basis")
        w = np.linalg.eigvalsh(B.T @ B)
        if w[0] < _SIGMA_LO or w[-1] > _SIGMA_HI:
            raise SingularBasisError(
                "cell nondegeneracy violated: eig(B^T B) spans "
                f"[{w[0]:.3e}, {w[-1]:.3e}], allowed [{_SIGMA_LO:.1e}, {_SIGMA_HI:.1e}]"
            )

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def diameter(self) -> float:
        """Diameter of the fundamental cell (max over corner differences)."""
        return max(float(np.linalg.norm(self.B @ np.asarray(signs)))
                   for signs in product((-1.0, 1.0), repeat=self.n))

    def min_singular_value(self) -> float:
        return float(np.linalg.svd(self.B, compute_uv=False)[-1])


@dataclass(frozen=True)
class PackingState:
    """Gauge-centered sphere centers plus the lattice basis."""

    x: np.ndarray
    basis: LatticeBasis

    @staticmethod
    def make(x: np.ndarray, basis: LatticeBasis) -> "PackingState":
        x = gauge_project(np.array(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != basis.n:
            raise ValueError("positions must be an (N, n) array matching the basis")
        return PackingState(x=x, basis=basis)

    @property
    def N(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.basis.n

    def with_x(self, x: np.ndarray) -> "PackingState":
        return PackingState.make(x, self.basis)


@dataclass(frozen=True)
class ContactIndex:
    """Canonical label of one periodic pair: (i, j, z) with t = B z.

    (i, j, z) and (j, i, -z) name the same contact; the canonical form has
    i < j, or i == j with z lexicographically positive.
    """

    i: int
    j: int
    z: tuple


def _lex_positive(z: np.ndarray) -> np.ndarray:
    """Which rows of the integer array z have a positive first nonzero entry."""
    return z[np.arange(z.shape[0]), np.argmax(z != 0, axis=1)] > 0


@dataclass(frozen=True)
class Contacts:
    """Flat table of canonical contacts: index arrays i, j and shifts z."""

    i: np.ndarray
    j: np.ndarray
    z: np.ndarray
    # results computed from this table: barrier's Hessian spectrum, and `r_vectors`' B z
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _bz: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return self.i.shape[0]

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """Flat index k n + a of axis a at each contact's i end, then at each j end."""
        n = self.z.shape[1]
        return (np.concatenate([self.i, self.j])[:, None] * n + np.arange(n)).ravel()

    @functools.cached_property
    def key(self) -> tuple:
        """The table by value: two tables hold the same contacts iff their keys are equal."""
        return self.z.shape, self.i.tobytes() + self.j.tobytes() + self.z.tobytes()

    @functools.cached_property
    def zf(self) -> np.ndarray:
        """The shifts z as floats."""
        return self.z.astype(float)

    def take(self, mask_or_idx) -> "Contacts":
        return Contacts(self.i[mask_or_idx], self.j[mask_or_idx], self.z[mask_or_idx])

    def index(self, k: int) -> ContactIndex:
        return ContactIndex(int(self.i[k]), int(self.j[k]), tuple(int(c) for c in self.z[k]))


@dataclass(frozen=True)
class ShiftIndexSet:
    """Finite symmetric set of integer shift vectors for the test oracle `candidates`;
    the scans that runs hand it to do not read it."""

    zs: np.ndarray
    _pairs: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return self.zs.shape[0]

    @property
    def n(self) -> int:
        return self.zs.shape[1]

    def candidates(self, N: int) -> Contacts:
        """Every pair of N spheres under every shift (cached): the test oracle."""
        got = self._pairs.get(N)
        if got is not None:
            return got
        n = self.n
        iu, ju = np.triu_indices(N, 1)
        K = len(self)
        blocks_i = [np.tile(iu, K)]
        blocks_j = [np.tile(ju, K)]
        blocks_z = [np.repeat(self.zs, iu.shape[0], axis=0)]
        pos = self.zs[_lex_positive(self.zs)]
        if pos.shape[0] and N:
            idx = np.arange(N, dtype=np.int64)
            blocks_i.append(np.repeat(idx, pos.shape[0]))
            blocks_j.append(np.repeat(idx, pos.shape[0]))
            blocks_z.append(np.tile(pos, (N, 1)))
        i = np.concatenate(blocks_i)
        j = np.concatenate(blocks_j)
        z = np.concatenate(blocks_z, axis=0)
        order = np.lexsort(tuple(z[:, c] for c in range(n - 1, -1, -1)) + (j, i))
        table = Contacts(i[order], j[order], z[order])
        self._pairs[N] = table
        return table


def build_shift_set(basis: LatticeBasis, R: float) -> ShiftIndexSet:
    """Enumerate all integer shifts z with ||B z|| <= R + cell diameter.

    A contact within R has ||B z|| <= R + ||x_i - x_j||, and centers are never
    wrapped into the cell, so the set reaches every contact only while
    max ||x_i - x_j|| <= diameter.  For an oracle that is complete on any
    state, build it for R + max ||x_i - x_j||.
    """
    if R < 0:
        raise ValueError("interaction radius must be nonnegative")
    cutoff = R + basis.diameter()
    zmax = int(np.ceil(cutoff / basis.min_singular_value())) + 1
    axes = [np.arange(-zmax, zmax + 1, dtype=np.int64)] * basis.n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, basis.n)
    norms = np.linalg.norm(grid @ basis.B.T, axis=1)
    keep = grid[norms <= cutoff * (1.0 + 1e-12)]
    order = np.lexsort(tuple(keep[:, c] for c in range(basis.n - 1, -1, -1)))
    return ShiftIndexSet(zs=keep[order])


def lattice_shifts(contacts: Contacts, B: np.ndarray) -> np.ndarray:
    """B z per contact.  The einsum's inner loop sums one row over the columns of B
    in order, the same loop for every row, so unlike a BLAS matrix product's a
    row's bits do not depend on the rows around it."""
    return np.einsum("ma,ka->mk", contacts.zf, B)


def r_vectors(state: PackingState, contacts: Contacts) -> np.ndarray:
    """Per-contact separation vectors r = x_i - x_j - B z, the same bits in every table;
    B z is kept on the table for the last basis it was formed under."""
    x, bz = state.x, contacts._bz
    if not bz or bz[0] is not state.basis:
        bz[:] = state.basis, lattice_shifts(contacts, state.basis.B)
    return x.take(contacts.i, axis=0) - x.take(contacts.j, axis=0) - bz[1]


def separations(state: PackingState, contacts: Contacts) -> tuple[np.ndarray, np.ndarray]:
    """`r_vectors` and the slacks ||r||^2 - 4."""
    r = r_vectors(state, contacts)
    return r, np.einsum("mk,mk->m", r, r) - 4.0


def slack_values(state: PackingState, contacts: Contacts) -> np.ndarray:
    return separations(state, contacts)[1]


def contacts_within(state: PackingState, shifts: ShiftIndexSet, radius: float) -> Contacts:
    """Every canonical contact whose separation does not exceed `radius`, by a
    cell list over the state's own basis (`shifts` is not consulted)."""
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    table = _cell_candidates(state, radius)
    r = r_vectors(state, table)
    return table.take(np.einsum("mk,mk->m", r, r) <= radius * radius)


_MAX_CELLS = 1024  # per axis


def _cell_grid(basis: LatticeBasis, radius: float):
    """(B^-T, cells per axis, (cells, reach)) of the cell list for `radius`.

    Axis a of f = B^-1 x has m_a = floor(w_a / radius) cells, w_a = 1 / ||row a
    of B^-1|| the face spacing.  A pair within radius differs by at most radius
    / w_a in f_a: by at most ceil(radius m_a / w_a) cells, 2 or more if m_a = 1.
    """
    grid = basis._grids.get(radius)
    if grid is None:
        inv = np.linalg.inv(basis.B)
        width = (1.0 / np.linalg.norm(inv, axis=1)).tolist()
        m = tuple(max(1, min(int(w // radius), _MAX_CELLS)) if radius > 0 else _MAX_CELLS
                  for w in width)
        reach = tuple(math.ceil(radius * c / w + 1e-9) for c, w in zip(m, width))  # pad: roundoff
        grid = basis._grids[radius] = (inv.T.copy(), np.array(m), (m, reach))
    return grid


def _cell_candidates(state: PackingState, radius: float) -> Contacts:
    """Canonical contacts between spheres in cells within reach, in order.

    Sphere i lies in the cell image k_i = floor(f_i) and is binned by f_i - k_i;
    sphere j's image found at wrap w from there is the contact (i, j, k_i - k_j
    + w).  Sorted by (i, j, w) these are sorted by (i, j, z).
    """
    inv_T, m, key = _cell_grid(state.basis, radius)
    f = state.x @ inv_T
    k = np.floor(f)
    if max(key[0]) == 1:  # one cell holds every sphere
        occupancy = bytes(k.nbytes)
    else:
        cells = ((f - k) * m).astype(np.int64)
        np.minimum(cells, m - 1, out=cells)  # f - k rounds up to 1 just below an integer
        occupancy = cells.tobytes()
    i, j, w = _stencil_pairs(key, occupancy)
    k = k.astype(np.int64)
    z = k.take(i, axis=0) - k.take(j, axis=0)
    z += w
    return Contacts(i, j, z)


@functools.lru_cache(maxsize=8)
def _stencil_pairs(key: tuple, occupancy: bytes):
    """Canonical (i, j, w), sorted: sphere j's image at wrap w lies within reach
    of sphere i's cell.  Cached by the grid and the cell of every sphere."""
    m, reach = key
    n = len(m)
    cells = np.frombuffer(occupancy, dtype=np.int64).reshape(-1, n)
    offsets = np.indices([2 * s + 1 for s in reach]).reshape(n, -1).T - np.array(reach)
    strides = np.cumprod((1,) + m[:-1])
    N, S = cells.shape[0], offsets.shape[0]
    flat = cells @ strides
    by_cell = np.argsort(flat, kind="stable")
    flat = flat[by_cell]
    near = (cells[:, None, :] + offsets).reshape(N * S, n)
    near_flat = (near % m) @ strides
    lo = np.searchsorted(flat, near_flat, "left")
    count = np.searchsorted(flat, near_flat, "right") - lo
    src = np.repeat(np.arange(N * S), count)  # one per (i, offset, j in that cell)
    i = src // S
    start = np.cumsum(count) - count  # of each (i, offset) run in src
    j = by_cell[np.repeat(lo - start, count) + np.arange(src.size)]
    w = near[src] // m
    keep = (i < j) | ((i == j) & _lex_positive(w))
    i, j, w = i[keep], j[keep], w[keep]
    order = np.lexsort(tuple(w[:, c] for c in range(n - 1, -1, -1)) + (j, i))
    return i[order], j[order], w[order]


def pair_slack(state: PackingState, c: ContactIndex) -> float:
    """Squared-distance slack of one contact: ||x_i - x_j - B z||^2 - 4."""
    r = state.x[c.i] - state.x[c.j] - state.basis.B @ np.asarray(c.z, dtype=float)
    return float(r @ r - 4.0)


def contact_rows(state: PackingState, contacts: Contacts, r: np.ndarray,
                 c: np.ndarray | None = None) -> np.ndarray:
    """Dense rows of (u, H) -> r^T (u_i - u_j - H c), one per contact.

    Columns are the flattened position block, then (when `c` is given) the
    flattened basis block: +r on block i, -r on block j, -r c^T on the basis.
    Rows of self contacts are zero in the position block.  With c = z the
    rows are half the slack gradients (grad_x s, grad_B s); the rigidity
    motion operator uses c = B z.
    """
    N, n = state.x.shape
    m = len(contacts)
    D = N * n + (n * n if c is not None else 0)
    # +r at each row's i end, then -r at its j end: a self row sums to exactly 0
    at = (np.arange(m) * D)[:, None] + contacts.ends.reshape(2, m, n)
    A = scatter_add(at.ravel(), np.concatenate([r, -r]).ravel(), m * D).reshape(m, D)
    if c is not None:
        A[:, N * n:] = -np.einsum("ma,mb->mab", r, c).reshape(m, n * n)
    return A


def slack_gradient(state: PackingState, contacts: Contacts, r: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """sum_c w_c grad_x s_c for s = ||r||^2 - 4: +2 w r on the i-block, -2 w r on the
    j-block.  Each entry sums its i-block terms, then its j-block terms, in contact order."""
    coeff = (2.0 * w)[:, None] * r
    gx = scatter_add(contacts.ends, np.concatenate([coeff, -coeff]).ravel(), state.x.size)
    return gx.reshape(state.x.shape)


def basis_slack_gradient(contacts: Contacts, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_c w_c grad_B s_c = -2 sum_c w_c r_c z_c^T, the basis part of `slack_gradient`."""
    return -2.0 * np.einsum("m,ma,mb->ab", w, r, contacts.zf)


def frobenius(a: np.ndarray) -> float:
    """`np.linalg.norm(a)`, term for term, in two numpy calls instead of about eight."""
    h = a.ravel(order="K")
    return float(np.sqrt(h.dot(h)))


def scatter_add(at: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Sum of the terms at each index < size, added one by one in array order like `np.add.at`."""
    return np.bincount(at, terms, size).astype(float, copy=False)  # an empty one is integer


def cell_volume(basis: LatticeBasis) -> float:
    """|det B|, computed and checked when the basis was built."""
    return basis.volume


def volume_gradient(basis: LatticeBasis) -> np.ndarray:
    """Gradient of |det B|, i.e. |det B| B^{-T} at a nonsingular basis."""
    return basis.volume * np.linalg.inv(basis.B).T


def volume_hessian(basis: LatticeBasis) -> np.ndarray:
    """Hessian of |det B| in B.ravel(): entry ((a, b), (c, d)) is
    |det B| (B^-1[b, a] B^-1[d, c] - B^-1[b, c] B^-1[d, a])."""
    inv, n = np.linalg.inv(basis.B), basis.n
    H = np.einsum("ba,dc->abcd", inv, inv) - np.einsum("bc,da->abcd", inv, inv)
    return basis.volume * H.reshape(n * n, n * n)


def volume_hessian_bound(basis: LatticeBasis) -> float:
    """(n - 1) ||B||_F^(n - 2) >= ||Hessian of |det B|||_2 (1 in 2-D): by the SVD that
    norm is the one at diag(sigma), at most (n - 1) times n - 2 singular values."""
    return (basis.n - 1) * float(np.linalg.norm(basis.B)) ** (basis.n - 2)


def min_slack(state: PackingState, shifts: ShiftIndexSet, radius: float) -> float:
    """Minimum slack over canonical contacts within `radius`."""
    return min_slack_of(state, contacts_within(state, shifts, radius))


def min_slack_of(state: PackingState, contacts: Contacts) -> float:
    """Minimum slack over the given contacts, with no radius filter; inf if none."""
    return float(slack_values(state, contacts).min(initial=np.inf))
