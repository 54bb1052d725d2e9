"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.  The
last two tests pin the bytes of the outputs a refactor must not change.
"""

import collections
import hashlib
import json
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import lists as st_lists
from hypothesis.strategies import sampled_from
from util import (
    hex_single_sphere,
    known_optimum_2d,
    scan,
    sliding_column_state,
    square_single_sphere,
)

from spit.barrier import (
    BarrierParams,
    barrier_energy,
    barrier_value,
    estimate_L,
    estimate_m,
    hvp_joint,
    hvp_x,
    lipschitz_bound,
    observed_slack_cap,
)
from spit import barrier, dynamics, geometry, harness, projection
from spit.cli import main as cli_main
from spit.dynamics import DynamicsState, companion_rate, run_trajectory, select_steps, spit_step
from spit.geometry import LatticeBasis, PackingState, build_shift_set, contacts_within, slack_values
from spit.harness import (
    RunConfig,
    certify,
    config_from_preset,
    cubic_cell,
    hexagonal_cell,
    make_testbed,
)
from spit.rigidity import (
    active_set,
    is_periodically_rigid,
    motion_operator,
    prestress_stable,
    trivial_motion_basis,
)
from spit.spectral import build_contact_graph, cheeger_check, fiedler, poincare_check

P = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)

# rows of every run executed by this module, for the safeguard criterion
_RUN_LOG = {"min_slacks": [], "delta": 1e-3}


def _register_rows(rows):
    _RUN_LOG["min_slacks"].extend(float(r.min_slack) for r in rows)


@pytest.fixture(scope="module")
def stub_run():
    cfg = config_from_preset("stub32")
    t0 = time.perf_counter()
    record = run_trajectory(cfg)
    duration = time.perf_counter() - t0
    _register_rows(record.rows)
    return cfg, record, duration


@pytest.fixture(scope="module")
def cert_report():
    cfg = RunConfig(N=4, seed=2, cert_max_steps=20000, unsafe=True)
    ds = make_testbed(cfg)
    t0 = time.perf_counter()
    with mock.patch.object(harness, "_rigidity_report", wraps=harness._rigidity_report) as spy:
        report = certify(cfg, ds.packing)
    duration = time.perf_counter() - t0
    for lv in report["levels"]:
        _RUN_LOG["min_slacks"].append(lv["min_row_slack"])
    _RUN_LOG["cert_final_state"] = spy.call_args.args[1]
    return cfg, report, duration


@pytest.fixture(scope="module")
def hex256_run():
    """The 50-step N=256 seed-13 run of the run-hex256 benchmark workload."""
    return run_trajectory(config_from_preset("stub32", N=256, max_steps=50, seed=13))


@pytest.fixture(scope="module")
def run_segments():
    """A stub32 trajectory executed in five segments to sample mid-run graphs."""
    cfg = config_from_preset("stub32", max_steps=100)
    states = []
    initial = None
    for _ in range(5):
        record = run_trajectory(cfg, initial=initial)
        _register_rows(record.rows)
        states.append(record.final_state)
        initial = record.final_state
    return cfg, states


@pytest.fixture(scope="module")
def cli_csvs(tmp_path_factory):
    out = []
    for tag in ("a", "b"):
        d = tmp_path_factory.mktemp(f"det_{tag}")
        rc = cli_main(["run", "--preset", "stub32", "--seed", "7", "--out", str(d)])
        assert rc == 0
        text = (d / "trajectory.csv").read_bytes()
        out.append(text)
        for line in text.decode().splitlines()[1:]:
            _RUN_LOG["min_slacks"].append(float(line.split(",")[4]))
    return out


def test_criterion_1_gradients_and_hvps_match_finite_differences():
    from spit.harness import random_feasible_state

    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    sizes = [2, 3, 4, 6, 8, 9, 12, 16]
    worst = 0.0
    h = 1e-5
    for trial in range(100):
        N = sizes[trial % len(sizes)]
        # slack floor 0.05 keeps third-derivative truncation below tolerance
        st = random_feasible_state(seed=1000 + trial, N=N, delta=0.05)
        shifts = build_shift_set(st.basis, P.R)
        members = contacts_within(st, shifts, P.R)
        if len(members) == 0:
            continue
        ev = barrier_energy(st, shifts, P, members=members)

        # position gradient against central differences of the value
        fd_x = np.zeros_like(st.x)
        for i in range(N):
            for k in range(2):
                xp, xm = st.x.copy(), st.x.copy()
                xp[i, k] += h
                xm[i, k] -= h
                fd_x[i, k] = (
                    barrier_value(PackingState(x=xp, basis=st.basis), shifts, P, members)
                    - barrier_value(PackingState(x=xm, basis=st.basis), shifts, P, members)
                ) / (2 * h)
        worst = max(worst, np.linalg.norm(fd_x - ev.grad_x) / max(np.linalg.norm(ev.grad_x), 1e-300))

        # basis gradient
        fd_B = np.zeros((2, 2))
        for a in range(2):
            for b in range(2):
                Bp, Bm = st.basis.B.copy(), st.basis.B.copy()
                Bp[a, b] += h
                Bm[a, b] -= h
                fd_B[a, b] = (
                    barrier_value(PackingState(x=st.x, basis=LatticeBasis(Bp)), shifts, P, members)
                    - barrier_value(PackingState(x=st.x, basis=LatticeBasis(Bm)), shifts, P, members)
                ) / (2 * h)
        worst = max(worst, np.linalg.norm(fd_B - ev.grad_B) / max(np.linalg.norm(ev.grad_B), 1e-300))

        # HVPs against directional differences of the gradients
        d = rng.standard_normal(st.x.shape)
        got = hvp_x(st, members, P, d)
        gp = barrier_energy(PackingState(x=st.x + h * d, basis=st.basis), shifts, P, members).grad_x
        gm = barrier_energy(PackingState(x=st.x - h * d, basis=st.basis), shifts, P, members).grad_x
        fd = (gp - gm) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - got) / max(np.linalg.norm(got), 1e-300))

        dB = rng.standard_normal((2, 2))
        jx, jB = hvp_joint(st, members, P, d, dB)
        evp = barrier_energy(PackingState(x=st.x + h * d, basis=LatticeBasis(st.basis.B + h * dB)),
                             shifts, P, members)
        evm = barrier_energy(PackingState(x=st.x - h * d, basis=LatticeBasis(st.basis.B - h * dB)),
                             shifts, P, members)
        fd_joint = np.concatenate([((evp.grad_x - evm.grad_x) / (2 * h)).ravel(),
                                   ((evp.grad_B - evm.grad_B) / (2 * h)).ravel()])
        hv = np.concatenate([jx.ravel(), jB.ravel()])
        worst = max(worst, np.linalg.norm(fd_joint - hv) / max(np.linalg.norm(hv), 1e-300))
    duration = time.perf_counter() - t0
    assert worst <= 1e-5, f"worst relative FD error {worst:.3e}"
    assert duration < 10.0, f"criterion 1 took {duration:.1f}s"
    print(f"\n[acceptance 1] PASS - gradient/HVP vs finite differences: "
          f"worst rel err {worst:.2e}, {duration:.1f}s")


def test_criterion_2_gradient_lipschitz_bound():
    from spit.harness import random_feasible_state

    rng = np.random.default_rng(7)
    checked = 0
    violations = 0
    for seed in range(140):
        if checked >= 100:
            break
        st = random_feasible_state(seed=3000 + seed, N=4, inflate=0.08, jitter=0.01)
        shifts = build_shift_set(st.basis, P.R)
        members = contacts_within(st, shifts, P.R)
        if len(members) == 0:
            continue
        eps = 1e-3
        u = rng.standard_normal(st.x.shape)
        w = rng.standard_normal(st.x.shape)
        xa = st.x + eps * u / np.linalg.norm(u)
        xb = st.x + eps * w / np.linalg.norm(w)
        sa, sb = PackingState(x=xa, basis=st.basis), PackingState(x=xb, basis=st.basis)
        if min(float(np.min(slack_values(q, members))) for q in (sa, sb)) < P.delta:
            continue
        cap = max(observed_slack_cap(sa, members, P),
                  observed_slack_cap(sb, members, P))
        bound = lipschitz_bound(P, cap, P.R, len(members))
        ga = barrier_energy(sa, shifts, P, members=members).grad_x
        gb = barrier_energy(sb, shifts, P, members=members).grad_x
        ratio = float(np.linalg.norm(ga - gb) / np.linalg.norm(xa - xb))
        checked += 1
        if ratio > bound:
            violations += 1
    assert checked >= 100
    assert violations == 0
    print(f"\n[acceptance 2] PASS - empirical Lipschitz ratio within the closed-form "
          f"bound on {checked} random pairs, zero violations")


def test_criterion_3_unprojected_descent_on_stub32(stub_run):
    cfg, record, duration = stub_run
    assert cfg.N == 32 and cfg.delta == 1e-3 and cfg.nu == 1e-2 and cfg.eta_dt == 1.0
    assert len(record.rows) == 1000
    bad = [r.step for r in record.rows if not (r.E_unprojected <= r.E_before + 1e-10)]
    assert bad == [], f"descent violations at steps {bad[:10]}"
    # the logged energy column itself is non-increasing as well
    E = np.array([r.E for r in record.rows])
    assert np.all(np.diff(E) <= 1e-10)
    assert duration < 60.0, f"criterion 3 run took {duration:.1f}s"
    print(f"\n[acceptance 3] PASS - energy non-increasing across 1000 accepted "
          f"unprojected steps ({duration:.1f}s)")


def test_criterion_4_projection_nonexpansiveness(stub_run):
    _, record, _ = stub_run
    qp_events = [e for e in record.events
                 if e.get("kind", "").startswith("qp") and e.get("volume_weight", 0.0) == 0.0]
    assert len(qp_events) >= 100  # the joint cadence alone fires 100 times
    bad = [e for e in qp_events if not (e["E_after"] <= e["E_before"] + 1e-10)]
    assert bad == [], f"{len(bad)} nonexpansiveness violations"
    print(f"\n[acceptance 4] PASS - all {len(qp_events)} energy projections "
          f"nonexpansive (tolerance 1e-10)")


def test_criterion_5_local_linear_rate_matches_companion_roots():
    t0 = time.perf_counter()
    st_star = sliding_column_state(float(np.sqrt(4.0 + 0.05)))
    shifts = build_shift_set(st_star.basis, P.R)
    assert float(np.linalg.norm(barrier_energy(st_star, shifts, P).grad_x)) <= 1e-12
    near = contacts_within(st_star, shifts, P.R)
    L = estimate_L(st_star, near, P).value
    m = estimate_m(st_star, near, P).value
    assert m > 0.0
    dt, eta = select_steps(L, m, 1.0, 1.9)
    rho_pred = max(companion_rate(lam, dt, eta) for lam in (m, L))

    rng = np.random.default_rng(0)
    d = rng.standard_normal(st_star.x.shape)
    d -= d.mean(axis=0)
    d *= 1e-4 / np.linalg.norm(d)
    ds = DynamicsState(packing=st_star.with_x(st_star.x + d), v=np.zeros_like(d),
                       x_prev=(st_star.x + d).copy(), dt=dt, eta=eta,
                       gamma=1.0 / dt**2 - L / 2.0)
    errs = []
    ev = barrier_energy(ds.packing, shifts, P)
    for _ in range(400):
        ds, ev = spit_step(ds, P, shifts, ev)
        errs.append(float(np.linalg.norm(ds.packing.x - st_star.x)))
    tail = np.array(errs[-200:])
    rho_fit = float(np.exp(np.polyfit(np.arange(200), np.log(tail), 1)[0]))
    duration = time.perf_counter() - t0
    assert rho_fit < 1.0
    assert abs(rho_fit - rho_pred) <= 0.1, f"fit {rho_fit:.6f} vs predicted {rho_pred:.6f}"
    assert duration < 10.0
    print(f"\n[acceptance 5] PASS - fitted rate {rho_fit:.6f} vs companion-root "
          f"bound {rho_pred:.6f} ({duration:.1f}s)")


def test_criterion_6_continuation_kkt(cert_report):
    _, report, duration = cert_report
    levels = report["levels"]
    assert [lv["nu"] for lv in levels] == [1e-1, 1e-2, 1e-3, 1e-4]
    for lv in levels:
        assert lv["terminated"] == "gradient", f"sub-solve at nu={lv['nu']} did not converge"
        assert lv["res_x"] <= 1e-6 * (1.0 + lv["res_x_scale"]), \
            f"res_x {lv['res_x']:.3e} too large at nu={lv['nu']}"
        assert lv["mu_min_clamped"] >= 0.0
    # levels 1-3 end at Newton centers; the last level's center lies below the
    # delta floor, where the barrier cannot hold the contacts (ROADMAP item 3)
    assert all(lv["res_B"] <= 1e-6 for lv in levels[:-1]), [lv["res_B"] for lv in levels]
    comps = [lv["comp"] for lv in levels]
    for a, b in zip(comps, comps[1:]):
        assert b <= a * 1.1, f"complementarity rose: {a:.3e} -> {b:.3e}"
    assert report["rigidity_shift"]["rigid"] is True
    assert duration < 120.0, f"criterion 6 took {duration:.1f}s"
    print(f"\n[acceptance 6] PASS - continuation converged at 4 barrier levels, "
          f"comp {comps[0]:.2e} -> {comps[-1]:.2e}, rigid cell ({duration:.1f}s)")


def test_certify_reaches_the_known_optimum(cert_report):
    """The N=4 cell ends at the triangular-lattice volume V* (test_known_optima.py)."""
    cfg, report, _ = cert_report
    v_star = known_optimum_2d(cfg.N, cfg.delta)
    assert report["final_volume"] == pytest.approx(v_star, rel=1e-9, abs=0.0)
    print(f"\n[known optimum] PASS - N=4 certify ends at V* = {v_star!r} "
          f"(relative {report['final_volume'] / v_star - 1.0:.1e})")


def test_criterion_7_poincare_and_cheeger(run_segments):
    cfg, states, = run_segments
    rng = np.random.default_rng(99)
    graphs_checked = 0
    for ds in states:
        shifts = build_shift_set(ds.packing.basis, cfg.R)
        graph = build_contact_graph(ds.packing,
                                    contacts_within(ds.packing, shifts, 2.0 + cfg.eps_active))
        lam2, _ = fiedler(graph)
        assert lam2 > 1e-10, "run contact graph unexpectedly disconnected"
        for _ in range(100):
            u = rng.standard_normal(graph.n_vertices)
            u -= u.mean()
            assert poincare_check(graph, u)
        graphs_checked += 1
    assert graphs_checked == 5

    cheeger_checked = 0
    for trial in range(200):
        if cheeger_checked >= 50:
            break
        N = int(rng.integers(3, 13))
        edges = [(i, j) for i in range(N) for j in range(i + 1, N)
                 if rng.uniform() < 0.45]
        from test_spectral import graph_from_edges
        rep = cheeger_check(graph_from_edges(N, edges))
        assert rep.ok
        cheeger_checked += 1
    assert cheeger_checked == 50
    print(f"\n[acceptance 7] PASS - Poincare inequality on {graphs_checked} run graphs "
          f"x100 vectors; Cheeger sandwich exact on {cheeger_checked} random graphs")


def test_criterion_8_rigidity_verdicts():
    hex_st = hex_single_sphere()
    act = active_set(hex_st, scan(hex_st, P.R), tol_active=1e-9)
    rig = is_periodically_rigid(hex_st, act)
    assert rig.rigid and rig.nontrivial_dim == 0

    sq = square_single_sphere()
    act_sq = active_set(sq, scan(sq, P.R), tol_active=1e-9)
    rig_sq = is_periodically_rigid(sq, act_sq)
    assert not rig_sq.rigid and rig_sq.nontrivial_dim >= 1
    # the returned motion is an explicit shear: a genuine flex outside the
    # trivial space with a symmetric off-diagonal cell velocity
    M = motion_operator(sq, act_sq)
    T = trivial_motion_basis(sq)
    w = rig_sq.basis[:, 0]
    assert np.max(np.abs(M @ w)) <= 1e-9
    assert np.max(np.abs(T.T @ w)) <= 1e-9
    A = w[sq.N * sq.n:].reshape(sq.n, sq.n)  # the cell velocity
    assert abs(0.5 * (A + A.T)[0, 1]) > 0.1

    rng = np.random.default_rng(31)
    for _ in range(10):
        omega = rng.uniform(0.0, 2.0, len(act_sq))
        flag, min_eig = prestress_stable(sq, act_sq, omega)
        assert not flag
        assert min_eig <= 1e-10
    print("\n[acceptance 8] PASS - hexagonal packing rigid; square packing "
          "shears with prestress check failing for 10 nonnegative stresses")


def _fcc_single_sphere() -> PackingState:
    """One sphere per primitive cell of the face-centred cubic lattice (12 contacts)."""
    B = np.sqrt(2.0) * np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    return PackingState.make(np.zeros((1, 3)), LatticeBasis(B))


# strictly jammed optima and the square / simple-cubic saddles, at contact
_IMPLICATION_CASES = {
    "hexagonal N=1": (hex_single_sphere, True),
    "hexagonal N=16": (lambda: PackingState.make(*hexagonal_cell(16)), True),
    "fcc N=1": (_fcc_single_sphere, True),
    "square N=1": (square_single_sphere, False),
    "simple cubic N=1": (lambda: PackingState.make(*cubic_cell(1, 3)), False),
    "simple cubic N=8": (lambda: PackingState.make(*cubic_cell(8, 3)), False),
}


@pytest.mark.parametrize("case", [*_IMPLICATION_CASES, "certify N=4 seed 2"])
def test_prestress_stability_implies_rigidity(case, request):
    """Claim (iv): both verdicts hold with a positive margin on every optimum,
    and both fail on every saddle, under unit stresses (the certify report
    uses its recovered multipliers)."""
    if case in _IMPLICATION_CASES:
        make, optimum = _IMPLICATION_CASES[case]
        st = make()
        act = active_set(st, scan(st, P.R), tol_active=1e-9)
        rigid = is_periodically_rigid(st, act).rigid
        stable, margin = prestress_stable(st, act, np.ones(len(act)))
    else:
        _, report, _ = request.getfixturevalue("cert_report")
        entry, optimum = report["rigidity_shift"], True
        rigid, stable, margin = entry["rigid"], entry["prestress_stable"], entry["prestress_min_eig"]
    assert np.isfinite(margin)
    assert rigid is optimum and stable is optimum
    assert (margin > 0.0) if optimum else (margin <= 1e-10)
    print(f"\n[claim iv] {case}: rigid={rigid} prestress_stable={stable} margin={margin:.4g}")


def test_criterion_9_safeguard_margin(stub_run, run_segments, cert_report, cli_csvs):
    delta = _RUN_LOG["delta"]
    floor = delta * (1.0 - 1e-6)
    slacks = _RUN_LOG["min_slacks"]
    assert len(slacks) >= 3500  # stub (1000) + segments (500) + cli (2000) + cert levels
    bad = [s for s in slacks if s < floor]
    assert bad == [], f"{len(bad)} rows below the safeguard margin, worst {min(bad):.3e}"
    print(f"\n[acceptance 9] PASS - all {len(slacks)} logged rows keep "
          f"min_slack >= delta(1 - 1e-6)")


def test_criterion_10_byte_identical_csv(cli_csvs):
    a, b = cli_csvs
    assert len(a.splitlines()) == 1001
    assert a == b
    print(f"\n[acceptance 10] PASS - stub32 seed 7 reproduces {len(a)} CSV bytes exactly")


# sha256 of the stub32 seed-7 trajectory.csv, of the certify report of the
# N=4 seed-2 testbed as the CLI writes it, and of the trajectory.csv of the
# 50-step N=256 seed-13 run of the run-hex256 benchmark workload.  A refactor
# leaves all three unchanged; a deliberate numeric change re-pins them and
# names the moved columns in CHANGES.md.  The bytes hold for a fixed BLAS build
# and thread count: OpenBLAS splits the N=256 run's D = 512 and N = 256
# eigensolves differently by thread count, so under OPENBLAS_NUM_THREADS=1 that
# run's hash differs on a 2-core host while the other two hold.
STUB32_SEED7_CSV_SHA256 = "521e1b1dfecf557c76126858253df4966d1b892cfa02e094616d95af285966e9"
CERTIFY_N4_SEED2_SHA256 = "9875739482ecbfe0602fea8e3fdaa8dc45aaeb872d24fafa321e1214d62d910c"
HEX256_SEED13_CSV_SHA256 = "7d25058a803e4f587c6ee4502df6f7c365b91a0d2f9effda612be00b3d80da2c"


def test_pinned_output_hashes(stub_run, cert_report, hex256_run):
    _, record, _ = stub_run
    _, report, _ = cert_report
    csv_sha = hashlib.sha256(record.to_csv().encode()).hexdigest()
    blob = json.dumps(report, sort_keys=True, indent=1, default=float) + "\n"
    assert csv_sha == STUB32_SEED7_CSV_SHA256
    assert hashlib.sha256(blob.encode()).hexdigest() == CERTIFY_N4_SEED2_SHA256
    assert hashlib.sha256(hex256_run.to_csv().encode()).hexdigest() == HEX256_SEED13_CSV_SHA256
    print("\n[pinned outputs] PASS - stub32 seed 7 CSV, N=4 seed 2 certify report and "
          "N=256 seed 13 CSV match their pinned sha256")


def test_anchored_curvature_counts(stub_run, hex256_run, cert_report):
    # with dense bounds all 12 of the N=256 run's curvature estimates were
    # eigensolves and certify took 6,706 steps; Weyl-anchored bounds solve at
    # most 8 and may cost up to 4 % more steps, being up to THETA looser; with
    # updates the pair-mode Rayleigh probe admits, N=256 solves at most 4 and
    # stub32 at most 32 (78 before)
    # stub32 at most 32 (78 before); with joint bounds that take L_x by the
    # position path, N=256 solves 2 and stub32 10, and 11 once the basis block
    # took its matrix weight W_B, under which certify takes 5,026 steps (6,926
    # with the scalar weight); once dt follows the step rule up after a basis
    # move, stub32 solves 70 (its larger steps move the Hessian past THETA more
    # often) and certify takes 4,127 steps; once each level starts at its
    # Newton center only the last level, whose center lies below the delta
    # floor, takes first-order steps: 40; the bound is 1.04 * 40, so certify
    # fails it if it goes back to centering with the dynamics
    counts = hex256_run.counts
    assert counts["curvature_solves"] + counts["curvature_updates"] == 12
    assert counts["curvature_solves"] <= 2
    assert stub_run[1].counts["curvature_solves"] <= 70
    _, report, _ = cert_report
    assert sum(lv["steps"] for lv in report["levels"]) <= 41


def _work_counts(monkeypatch, run) -> collections.Counter:
    """Exact work counts of `run()`: its runs' accepted steps, backtracks and
    joint projections (from their records), barrier evaluations, contact scans,
    separation calls, QP solves and their iterations, and numpy eigensolves by
    matrix size.  Every `spit` binding of a counted function is wrapped, as
    the benchmark's tracer wraps what it traces."""
    counts = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "spit"]

    def wrap(func, tally):
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            tally(args, out)
            return out
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, wrapper)

    def record(args, rec):
        counts.update({key: rec.counts[key]
                       for key in ("accepted", "backtracks", "projections_joint")})

    wrap(dynamics.run_trajectory, record)
    wrap(barrier.barrier_from_separations, lambda args, out: counts.update(["evaluations"]))
    wrap(geometry.contacts_within, lambda args, out: counts.update(["contacts_within"]))
    wrap(geometry.r_vectors, lambda args, out: counts.update(["r_vectors"]))
    wrap(projection.solve_qp,
         lambda args, out: counts.update({"solve_qp": 1, "qp_iterations": out.iterations}))
    for name in ("eigvalsh", "eigh"):
        def solve(a, *args, original=getattr(np.linalg, name), name=name, **kwargs):
            counts[f"{name} {np.shape(a)[-1]}"] += 1
            return original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, solve)
    run()
    return counts


# Exact work counts of the three pinned workloads (ROADMAP item 20): counts,
# unlike the benchmark's times, do not depend on host load.  A change that
# moves one re-pins it and names the old and new value in CHANGES.md.  Like
# the hashes above they hold for the default BLAS thread count.  `eigvalsh 2`
# is a new basis's nondegeneracy check, `eigh 4` the joint bound's stacked
# solve, `eigvalsh 8`, `64` and `512` the dense position solves, `eigvalsh 32`
# and `256` the lambda2 solves, `eigvalsh 9` the certify report's prestress
# test and `eigh 12` certify's Newton steps, one per iteration on the dense
# joint Hessian.  No run of the dynamics takes a dense solve of the joint Hessian.
WORK_COUNTS = {
    "stub32 seed 7": {
        "accepted": 1000, "backtracks": 0, "projections_joint": 100, "evaluations": 1140,
        "contacts_within": 241, "r_vectors": 1552, "solve_qp": 100, "qp_iterations": 108,
        "eigvalsh 2": 101, "eigh 4": 100, "eigvalsh 32": 3, "eigvalsh 64": 70},
    "hex256 seed 13": {
        "accepted": 50, "backtracks": 0, "projections_joint": 5, "evaluations": 57,
        "contacts_within": 13, "r_vectors": 78, "solve_qp": 5, "qp_iterations": 10,
        "eigvalsh 2": 6, "eigh 4": 5, "eigvalsh 256": 5, "eigvalsh 512": 2},
    "certify N=4 seed 2": {
        "accepted": 40, "backtracks": 0, "projections_joint": 4, "evaluations": 170,
        "contacts_within": 159, "r_vectors": 729, "solve_qp": 8, "qp_iterations": 56,
        "eigvalsh 2": 103, "eigh 4": 4, "eigvalsh 8": 9, "eigvalsh 9": 1, "eigh 12": 27},
}


def test_dense_eigensolves_per_run(monkeypatch):
    cert = RunConfig(N=4, seed=2, cert_max_steps=20000, unsafe=True)
    runs = {
        # through the module, whose binding the counts wrap
        "stub32 seed 7": lambda: dynamics.run_trajectory(config_from_preset("stub32")),
        "hex256 seed 13": lambda: dynamics.run_trajectory(
            config_from_preset("stub32", N=256, max_steps=50, seed=13)),
        "certify N=4 seed 2": lambda: certify(cert, make_testbed(cert).packing),
    }
    got = {}
    for name, run in runs.items():
        with monkeypatch.context() as patch:
            got[name] = _work_counts(patch, run)
    moved = {name: {key: (want.get(key), got[name].get(key))  # (pinned, counted)
                    for key in want.keys() | got[name].keys()
                    if want.get(key) != got[name].get(key)}
             for name, want in WORK_COUNTS.items()}
    assert not any(moved.values()), moved
    print("\n[work counts] PASS - the three pinned workloads repeat their exact work counts")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ulps=st_lists(sampled_from([-1, 0, 1]), min_size=12, max_size=12))
def test_report_margins_survive_a_one_ulp_perturbation(cert_report, ulps):
    """Each margin of the N=4 certify report moves by less than 1e-6 relative, and
    no verdict flips, when the final state's x and B move by one ulp each way."""
    cfg, report, _ = cert_report
    final = _RUN_LOG["cert_final_state"]
    flat = np.concatenate([final.x.ravel(), final.basis.B.ravel()])
    flat = np.nextafter(flat, flat + np.array(ulps, dtype=float))  # one ulp each way, or none
    nx = final.x.size
    state = PackingState(x=flat[:nx].reshape(final.x.shape),
                         basis=LatticeBasis(flat[nx:].reshape(final.basis.B.shape)))
    moved = harness._rigidity_report(cfg, state)
    for key in ("active_contacts", "licq"):
        assert moved[key] == report[key]
    for key in ("rigid", "nontrivial_dim", "prestress_stable"):
        assert moved["rigidity_shift"][key] == report["rigidity_shift"][key]
    for got, want in ((moved["licq_ratio"], report["licq_ratio"]),
                      (moved["rigidity_shift"]["rank_margin"], report["rigidity_shift"]["rank_margin"]),
                      (moved["rigidity_shift"]["prestress_min_eig"],
                       report["rigidity_shift"]["prestress_min_eig"])):
        assert abs(got - want) <= 1e-6 * abs(want)


# sha256 of the trajectory.csv of two runs that take the safeguard paths the
# runs above never take: a disordered stub32 (3 backtracks, 1 Gauss-Seidel
# repair, 40 joint projections) and a run whose nudge trigger fires (25
# nudges).  They are re-pinned, and hold, as the hashes above.
SAFEGUARD_PATH_CSV_SHA256 = {
    "backtrack_gs_repair": "df851359892b005b2e03a48a81c160c0071c889c4817634ad6df238ed98f2d7b",
    "nudge": "7444c0591dd90c44ba67b80d59ee7e2a504ac852a90b2dc53aa355b677e23f8c",
}


def test_pinned_safeguard_path_hashes():
    configs = {
        "backtrack_gs_repair": config_from_preset("stub32", jitter=0.2, inflate=0.3,
                                                  volume_weight=0.5, max_steps=400, seed=3),
        "nudge": RunConfig(N=32, eps_active=0.05, kappa=50.0, K=4, max_steps=300, seed=7,
                           unsafe=True),
    }
    records = {name: run_trajectory(cfg) for name, cfg in configs.items()}
    assert records["backtrack_gs_repair"].counts["backtracks"] == 3
    assert records["backtrack_gs_repair"].counts["gs_repairs"] == 1
    assert records["nudge"].counts["nudges"] == 25
    for name, record in records.items():
        assert hashlib.sha256(record.to_csv().encode()).hexdigest() == \
            SAFEGUARD_PATH_CSV_SHA256[name], name
    print("\n[pinned outputs] PASS - backtrack/repair and nudge runs match their pinned sha256")
