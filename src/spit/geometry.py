"""Lattice bases, shift sets, pair slacks, and the center-of-mass gauge.

Sphere centers are stored in Cartesian coordinates and are never wrapped into
the fundamental cell; the lattice enters only through shift vectors t = B z.
All operations are pure functions, and contact tables are kept in a fixed
canonical order so repeated summations are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import SingularBasisError

_DET_TOL = 1e-12


def gauge_project(x: np.ndarray) -> np.ndarray:
    """Subtract the mean point so the centers sum to zero.

    Exactly idempotent: once the residual mean falls below a few ulps of the
    coordinate scale the input array is returned unchanged.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x
    m = x.mean(axis=0)
    scale = max(1.0, float(np.max(np.abs(x))))
    if float(np.max(np.abs(m))) <= 64.0 * np.finfo(float).eps * scale:
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
    sigma_lo: float = 1e-4
    sigma_hi: float = 1e8

    def __post_init__(self):
        B = np.array(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("basis must be a square matrix")
        object.__setattr__(self, "B", B)
        if abs(float(np.linalg.det(B))) <= _DET_TOL:
            raise SingularBasisError("singular basis")
        w = np.linalg.eigvalsh(B.T @ B)
        if w[0] < self.sigma_lo or w[-1] > self.sigma_hi:
            raise SingularBasisError(
                "cell nondegeneracy violated: eig(B^T B) spans "
                f"[{w[0]:.3e}, {w[-1]:.3e}], allowed [{self.sigma_lo:.1e}, {self.sigma_hi:.1e}]"
            )

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def diameter(self) -> float:
        """Diameter of the fundamental cell (max over corner differences)."""
        best = 0.0
        for signs in product((-1.0, 1.0), repeat=self.n):
            best = max(best, float(np.linalg.norm(self.B @ np.asarray(signs))))
        return best

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


def _lex_positive(z) -> bool:
    for c in z:
        if c != 0:
            return c > 0
    return False


@dataclass(frozen=True)
class Contacts:
    """Flat table of canonical contacts: index arrays i, j and shifts z."""

    i: np.ndarray
    j: np.ndarray
    z: np.ndarray

    def __len__(self) -> int:
        return self.i.shape[0]

    def take(self, mask_or_idx) -> "Contacts":
        return Contacts(self.i[mask_or_idx], self.j[mask_or_idx], self.z[mask_or_idx])

    def index(self, k: int) -> ContactIndex:
        return ContactIndex(int(self.i[k]), int(self.j[k]), tuple(int(c) for c in self.z[k]))


@dataclass(frozen=True)
class ShiftIndexSet:
    """Finite symmetric set of integer shift vectors, plus the radius it serves."""

    zs: np.ndarray
    R: float
    _pairs: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return self.zs.shape[0]

    @property
    def n(self) -> int:
        return self.zs.shape[1]

    def candidates(self, N: int) -> Contacts:
        """All canonical contacts of N spheres under this shift set (cached)."""
        got = self._pairs.get(N)
        if got is not None:
            return got
        n = self.n
        iu, ju = np.triu_indices(N, 1)
        K = len(self)
        blocks_i = [np.tile(iu, K)]
        blocks_j = [np.tile(ju, K)]
        blocks_z = [np.repeat(self.zs, iu.shape[0], axis=0)]
        pos = np.array([z for z in self.zs if _lex_positive(z)], dtype=np.int64).reshape(-1, n)
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

    The diameter margin guarantees that any pair of cell-reduced positions
    within distance R is reachable by some listed shift.
    """
    if R < 0:
        raise ValueError("interaction radius must be nonnegative")
    cutoff = R + basis.diameter()
    smin = basis.min_singular_value()
    if smin <= 0:
        raise SingularBasisError("singular basis")
    zmax = int(np.ceil(cutoff / smin)) + 1
    axes = [np.arange(-zmax, zmax + 1, dtype=np.int64)] * basis.n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, basis.n)
    norms = np.linalg.norm(grid @ basis.B.T, axis=1)
    keep = grid[norms <= cutoff * (1.0 + 1e-12)]
    order = np.lexsort(tuple(keep[:, c] for c in range(basis.n - 1, -1, -1)))
    return ShiftIndexSet(zs=keep[order], R=float(R))


def r_vectors(state: PackingState, contacts: Contacts) -> np.ndarray:
    """Per-contact separation vectors r = x_i - x_j - B z."""
    return state.x[contacts.i] - state.x[contacts.j] - contacts.z.astype(float) @ state.basis.B.T


def slack_values(state: PackingState, contacts: Contacts) -> np.ndarray:
    r = r_vectors(state, contacts)
    return np.einsum("mk,mk->m", r, r) - 4.0


def contacts_within(state: PackingState, shifts: ShiftIndexSet, radius: float,
                    base: Contacts | None = None) -> Contacts:
    """Canonical contacts whose separation does not exceed `radius`."""
    table = base if base is not None else shifts.candidates(state.N)
    r = r_vectors(state, table)
    d2 = np.einsum("mk,mk->m", r, r)
    return table.take(d2 <= radius * radius)


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
    motion operator uses c = B z or c = r.
    """
    N, n = state.x.shape
    m = len(contacts)
    A = np.zeros((m, N * n + (n * n if c is not None else 0)))
    rows = np.arange(m)
    for axis in range(n):
        A[rows, contacts.i * n + axis] += r[:, axis]
        A[rows, contacts.j * n + axis] -= r[:, axis]
    if c is not None:
        A[:, N * n:] = -np.einsum("ma,mb->mab", r, c).reshape(m, n * n)
    return A


def cell_volume(basis: LatticeBasis) -> float:
    det = float(np.linalg.det(basis.B))
    if abs(det) <= _DET_TOL:
        raise SingularBasisError("singular basis")
    return abs(det)


def volume_gradient(basis: LatticeBasis) -> np.ndarray:
    """Gradient of |det B|, i.e. |det B| B^{-T} at a nonsingular basis."""
    return cell_volume(basis) * np.linalg.inv(basis.B).T


def min_slack(state: PackingState, shifts: ShiftIndexSet, radius: float | None = None,
              base: Contacts | None = None) -> float:
    """Minimum slack over canonical contacts within the interaction radius."""
    radius = shifts.R if radius is None else radius
    return min_slack_of(state, contacts_within(state, shifts, radius, base=base))


def min_slack_of(state: PackingState, contacts: Contacts) -> float:
    """Minimum slack over the given contacts, with no radius filter; inf if none."""
    if len(contacts) == 0:
        return float("inf")
    return float(np.min(slack_values(state, contacts)))
