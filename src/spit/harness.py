"""Run configuration, testbed generation, state files, and the certify driver.

Configuration is a flat key = value text file plus flag overrides; keys are
named after the quantities they set (nu, delta, eta_dt, kappa, W, K, ...).
States round-trip through JSON with explicit arrays and a format version.
The testbed generator uses numpy's PCG64 generator, a named, portable 64-bit
RNG, so a seed pins the initial state bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# estimate_L is unused here, but perfbench's tracer self-test checks that it
# wraps this import-time binding too
from .barrier import BarrierParams, estimate_L  # noqa: F401
from .dynamics import DynamicsState, rest_state, run_trajectory
from .errors import FeasibilityError
from .geometry import (
    LatticeBasis,
    PackingState,
    build_shift_set,
    cell_volume,
    contacts_within,
    gauge_project,
    min_slack,
    min_slack_of,
)
from .projection import e_project_x, gs_project_once
from .rigidity import (
    active_set,
    is_periodically_rigid,
    kkt_residual,
    licq_sigma_min,
    prestress_stable,
    recover_multipliers,
)

logger = logging.getLogger("spit")

STATE_FORMAT_VERSION = 1


@dataclass
class RunConfig:
    """All knobs of a run; ranges validated unless `unsafe` is set."""

    n: int = 2
    N: int = 32
    seed: int = 7
    nu: float = 1e-2
    delta: float = 1e-3
    eta_dt: float = 1.0
    c: float = 1.9
    R: float = 2.5
    eps_active: float = 1e-6
    eps_near: float = 0.05
    kappa: float = 0.3
    W: int = 20
    K: int = 10
    joint_period: int = 10
    volume_weight: float = 0.0
    max_steps: int = 1000
    grad_tol: float = 1e-8
    jitter: float = 0.01
    inflate: float = 0.02
    out: str = "spit_out"
    unsafe: bool = False
    # certification schedule
    nu_schedule: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    cert_max_steps: int = 20000
    cert_shrink: float = 1.0

    def validate(self) -> "RunConfig":
        if self.unsafe:
            return self
        checks = [
            (0.5 < self.eta_dt < 1.5, "eta_dt must lie in (0.5, 1.5)"),
            (0.2 <= self.kappa <= 0.4, "kappa must lie in [0.2, 0.4]"),
            (0.0 < self.delta < 1.0, "delta must lie in (0, 1)"),
            (self.nu > 0.0, "nu must be positive"),
            (0.0 < self.c < 2.0, "c must lie in (0, 2)"),
            (10 <= self.W <= 50, "window W must lie in [10, 50]"),
            (self.K >= int(np.ceil(4.0 / self.eta_dt)), "cadence K below 4/(eta dt)"),
            (self.R > 2.0, "interaction radius must exceed the contact distance 2"),
            (self.n >= 1 and self.N >= 1, "need at least one sphere in one dimension"),
            (self.max_steps >= 0 and self.joint_period >= 0, "step counts must be nonnegative"),
            (self.jitter >= 0.0 and self.inflate > -0.5, "bad testbed parameters"),
            (self.volume_weight >= 0.0, "volume_weight must be nonnegative"),
            (self.cert_shrink >= 0.0, "cert_shrink must be nonnegative"),
            (self.grad_tol >= 0.0, "grad_tol must be nonnegative"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(f"config out of range ({msg}); pass --unsafe to override")
        return self


PRESETS = {
    # jittered hexagonal testbeds; the logged contact graph uses the
    # near-contact scale so its Fiedler value is informative mid-run
    "stub32": {"N": 32, "eps_active": 0.05},
    "stub64": {"N": 64, "eps_active": 0.05},
}


def config_from_preset(name: str, **overrides) -> RunConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return RunConfig(**kwargs).validate()


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def load_config(path, **overrides) -> RunConfig:
    """Parse a flat key = value file; '#' starts a comment."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    kwargs = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        kwargs[key] = _coerce(fields[key].type, val)
    kwargs.update(overrides)
    return RunConfig(**kwargs).validate()


def _coerce(ftype: str, val: str):
    if ftype == "int":
        return int(val)
    if ftype == "float":
        return float(val)
    if ftype == "bool":
        return _BOOL[val.lower()]
    if ftype == "tuple":
        return tuple(float(v) for v in val.split(","))
    return val


def hexagonal_cell(N: int, inflate: float = 0.0) -> tuple[np.ndarray, LatticeBasis]:
    """Supercell of the triangular contact lattice holding N spheres.

    Picks the divisor pair with the most balanced cell aspect; neighbor
    distance is 2 (1 + inflate).
    """
    best = None
    for m2 in range(1, N + 1):
        if N % m2:
            continue
        m1 = N // m2
        aspect = abs(np.log((2.0 * m1) / (np.sqrt(3.0) * m2)))
        if best is None or aspect < best[0]:
            best = (aspect, m1, m2)
    _, m1, m2 = best
    s = 1.0 + inflate
    a1 = np.array([2.0 * s, 0.0])
    a2 = np.array([s, np.sqrt(3.0) * s])
    pts = np.array([k * a1 + l * a2 for l in range(m2) for k in range(m1)])
    B = np.column_stack([m1 * a1, m2 * a2])
    return gauge_project(pts), LatticeBasis(B)


def cubic_cell(N: int, n: int, inflate: float = 0.0) -> tuple[np.ndarray, LatticeBasis]:
    """Cubic-lattice fallback for dimensions other than 2."""
    spacing = 2.0 * (1.0 + inflate)
    m = int(np.ceil(N ** (1.0 / n)))
    sites = []
    for flat in range(m**n):
        idx, rem = [], flat
        for _ in range(n):
            idx.append(rem % m)
            rem //= m
        sites.append(idx)
        if len(sites) == N:
            break
    pts = np.asarray(sites, dtype=float) * spacing
    B = np.eye(n) * (m * spacing)
    return gauge_project(pts), LatticeBasis(B)


def make_testbed(config: RunConfig) -> DynamicsState:
    """Jittered near-contact lattice, safeguarded to min_slack >= delta, v = 0."""
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    if config.n == 2:
        x, basis = hexagonal_cell(config.N, config.inflate)
    else:
        x, basis = cubic_cell(config.N, config.n, config.inflate)
    if config.jitter > 0.0:
        x = x + rng.uniform(-config.jitter, config.jitter, size=x.shape)
    state = PackingState.make(x, basis)
    shifts = build_shift_set(basis, config.R)
    state, members = _feasibilize(state, shifts, config)
    p = BarrierParams(nu=config.nu, delta=config.delta, R=config.R)
    return rest_state(state, shifts, p, config, members)[0]


def _feasibilize(state: PackingState, shifts, config: RunConfig):
    """Repair `state` to min slack >= delta; returns it with its contacts within R."""
    target = config.delta
    last = -np.inf  # min slack before the latest Gauss-Seidel round
    for round_ in range(100):
        near = contacts_within(state, shifts, config.R)
        s = min_slack_of(state, near)
        if s >= target:
            return state, near
        if s > last:
            state, changed = gs_project_once(state, shifts, config.delta, base=near)
            if changed:
                last = s
                continue
        # Gauss-Seidel stalled: it changed nothing, or its last round did not
        # raise the min slack (a repair can land a pair a few ulps below delta
        # again and again).  Polish with the position QP from a resting state.
        last = -np.inf
        p = BarrierParams(nu=config.nu, delta=config.delta, R=config.R)
        ds, L_hat, _ = rest_state(state, shifts, p, config, near)
        ds, _ = e_project_x(ds, p, shifts, L_hat, members=near)
        state = ds.packing
    raise FeasibilityError("testbed could not reach the strict-feasibility margin "
                           "in 100 projection rounds")


def random_feasible_state(seed: int, N: int, n: int = 2, inflate: float = 0.05,
                          jitter: float = 0.02, shear: float = 0.05,
                          delta: float = 1e-3, R: float = 2.5) -> PackingState:
    """Randomly sheared, jittered, safeguarded lattice packing (test helper)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    if n == 2:
        x0, basis0 = hexagonal_cell(N, inflate)
    else:
        x0, basis0 = cubic_cell(N, n, inflate)
    G = np.eye(n) + shear * rng.standard_normal((n, n)) / max(1.0, np.sqrt(n))
    noise = rng.uniform(-jitter, jitter, size=x0.shape)
    # shrink the distortion until the state can be safeguarded (cell-bound
    # contacts cannot be repaired by moving centers)
    for attempt in range(8):
        scale = 0.5**attempt
        Gs = np.eye(n) + scale * (G - np.eye(n))
        if abs(np.linalg.det(Gs)) < 0.5:
            continue
        try:
            basis = LatticeBasis(Gs @ basis0.B)
        except Exception:
            continue
        x = gauge_project(x0 @ Gs.T + scale * noise)
        state = PackingState.make(x, basis)
        shifts = build_shift_set(basis, R)
        for _ in range(50):
            if min_slack(state, shifts, R) >= delta:
                return state
            state, changed = gs_project_once(state, shifts, delta)
            if not changed:
                break
        if min_slack(state, shifts, R) >= delta:
            return state
    raise FeasibilityError(f"random state (seed={seed}) could not be safeguarded")


def save_state(path, ds_or_state, meta: dict | None = None) -> None:
    if isinstance(ds_or_state, DynamicsState):
        packing, v = ds_or_state.packing, ds_or_state.v
    else:
        packing, v = ds_or_state, np.zeros_like(ds_or_state.x)
    blob = {
        "format_version": STATE_FORMAT_VERSION,
        "n": packing.n,
        "N": packing.N,
        "x": packing.x.tolist(),
        "B": packing.basis.B.tolist(),
        "v": v.tolist(),
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n")


def load_state(path) -> tuple[PackingState, np.ndarray]:
    blob = json.loads(Path(path).read_text())
    version = blob.get("format_version")
    if version != STATE_FORMAT_VERSION:
        raise ValueError(f"unsupported state format version {version!r}")
    basis = LatticeBasis(np.asarray(blob["B"], dtype=float))
    state = PackingState.make(np.asarray(blob["x"], dtype=float), basis)
    v = np.asarray(blob.get("v", np.zeros_like(state.x)), dtype=float)
    return state, v


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def execute_run(config: RunConfig, out_dir=None, initial: DynamicsState | None = None):
    """run_trajectory plus CSV/JSON emission; returns (record, summary).

    The summary is the config plus the final metrics and event counts, in
    which counts['accepted'] equals steps_total.
    """
    record = run_trajectory(config, initial=initial)
    summary = _json_safe({"config": dataclasses.asdict(config), **record.summary()})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "trajectory.csv").write_text(record.to_csv())
        (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return record, summary


def certify(config: RunConfig, state: PackingState) -> dict:
    """Barrier continuation toward the optimality and rigidity report.

    Re-minimizes volume-plus-barrier at each barrier strength in the schedule
    (joint projections carry the volume term with weight `cert_shrink`), then
    reports stationarity/complementarity residuals per level and the rigidity
    and prestress verdicts under both motion conventions.
    """
    levels = []
    cur = state
    for nu in config.nu_schedule:
        sub = dataclasses.replace(
            config, nu=nu, volume_weight=config.cert_shrink,
            joint_period=config.joint_period if config.joint_period else 10,
            max_steps=config.cert_max_steps, grad_tol=1e-7,
            kappa=config.kappa, unsafe=True)
        # run_trajectory sets dt, eta and gamma from its own curvature
        # estimate; only the rest state (v = 0, x_prev = x) is taken from here
        ds = DynamicsState(packing=cur, v=np.zeros_like(cur.x), x_prev=cur.x.copy(),
                           dt=1.0, eta=1.0, gamma=0.0)
        record = run_trajectory(sub, initial=ds)
        cur = record.final_state.packing
        shifts = build_shift_set(cur.basis, config.R)
        p = BarrierParams(nu=nu, delta=config.delta, R=config.R)
        mus = recover_multipliers(cur, shifts, p)
        res_B, res_x, comp = kkt_residual(cur, shifts, mus.contacts, mus.clamped)
        scale_x = _stationarity_scale(cur, mus)
        levels.append({
            "nu": nu,
            "steps": len(record.rows),
            "min_row_slack": min((r.min_slack for r in record.rows), default=float("inf")),
            "terminated": record.terminated,
            "res_B": res_B,
            "res_x": res_x,
            "res_x_scale": scale_x,
            "comp": comp,
            "mu_min_clamped": float(np.min(mus.clamped)) if len(mus.contacts) else 0.0,
            "mu_max_clamped": float(np.max(mus.clamped)) if len(mus.contacts) else 0.0,
            "n_contacts": len(mus.contacts),
            "min_slack": float(np.min(mus.slack)) if len(mus.contacts) else float("inf"),
            "volume": cell_volume(cur.basis),
        })
    report = {"levels": levels, "final_volume": cell_volume(cur.basis)}
    report.update(_rigidity_report(config, cur))
    return report


def _stationarity_scale(state: PackingState, mus) -> float:
    """Sum of per-contact force magnitudes, the natural residual normalizer."""
    from .geometry import r_vectors
    if len(mus.contacts) == 0:
        return 0.0
    r = r_vectors(state, mus.contacts)
    return float(np.sum(mus.clamped * 2.0 * np.linalg.norm(r, axis=1) * np.sqrt(2.0)))


def _rigidity_report(config: RunConfig, state: PackingState) -> dict:
    shifts = build_shift_set(state.basis, config.R)
    tol_active = 2.0 * config.delta
    act = active_set(state, shifts, tol_active)
    p = BarrierParams(nu=config.nu_schedule[-1], delta=config.delta, R=config.R)
    mus = recover_multipliers(state, shifts, p, members=act) if len(act) else None
    out = {"active_contacts": len(act), "active_tol": tol_active,
           "licq_sigma_min": licq_sigma_min(state, act) if len(act) else None}
    for convention in ("shift", "literal"):
        rig = is_periodically_rigid(state, act, convention=convention)
        entry = {
            "rigid": rig.rigid,
            "nontrivial_dim": rig.nontrivial_dim,
            "null_dim": rig.null_dim,
            "rank_margin": None if not np.isfinite(rig.rank_margin) else rig.rank_margin,
        }
        if mus is not None:
            flag, min_eig = prestress_stable(state, act, mus.clamped, convention=convention)
            entry["prestress_stable"] = flag
            entry["prestress_min_eig"] = None if np.isinf(min_eig) else min_eig
        out[f"rigidity_{convention}"] = entry
    return out


def spectra_report(state: PackingState, R: float, eps: float,
                   exact_cheeger: bool | None = None) -> dict:
    """Fiedler value/vector of the contact graph, plus the exact Cheeger
    sandwich when the graph is small enough."""
    from .spectral import build_contact_graph, cheeger_check, fiedler

    shifts = build_shift_set(state.basis, R)
    graph = build_contact_graph(state, shifts, eps)
    lam2, vec = fiedler(graph)
    out = {"lambda2": lam2, "fiedler_vector": [float(c) for c in vec],
           "n_edges": len(graph), "n_vertices": graph.n_vertices}
    want_cheeger = exact_cheeger if exact_cheeger is not None else state.N <= 20
    if want_cheeger:
        rep = cheeger_check(graph)
        out["cheeger"] = {"h": rep.h, "lower": rep.lower, "upper": rep.upper,
                          "sandwich_ok": rep.ok}
    return out
