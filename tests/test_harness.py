"""Configuration, testbed, state files, CLI subcommands, runtime dependencies."""

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers, sampled_from
from util import ref_hessian, rel_err, scan

from spit import harness
from spit.barrier import BarrierParams, barrier_value
from spit.cli import main as cli_main
from spit.errors import FeasibilityError
from spit.geometry import (
    LatticeBasis,
    build_shift_set,
    cell_volume,
    min_slack,
    volume_gradient,
    volume_hessian,
)
from spit.harness import (
    RunConfig,
    config_from_preset,
    execute_run,
    hexagonal_cell,
    load_config,
    load_state,
    make_testbed,
    random_feasible_state,
    save_state,
)


def test_config_validation_ranges():
    with pytest.raises(ValueError, match="eta_dt"):
        RunConfig(eta_dt=2.0).validate()
    with pytest.raises(ValueError, match="kappa"):
        RunConfig(kappa=0.5).validate()
    with pytest.raises(ValueError, match="unsafe"):
        RunConfig(c=2.5).validate()
    # the escape hatch accepts anything
    RunConfig(eta_dt=2.0, unsafe=True).validate()


@pytest.mark.parametrize("key", ["volume_weight", "cert_shrink", "grad_tol"])
def test_config_rejects_negative_weights(key):
    with pytest.raises(ValueError, match=key):
        RunConfig(**{key: -5.0}).validate()
    RunConfig(**{key: 0.0}).validate()


@pytest.mark.parametrize("key", ["eps_active", "eps_near"])
def test_config_rejects_negative_graph_scales(key):
    # a negative near scale would drop every near edge and with them the
    # nudge's geometric cap
    with pytest.raises(ValueError, match="graph scales"):
        RunConfig(**{key: -0.5}).validate()
    RunConfig(**{key: 0.0}).validate()


def test_config_presets():
    cfg = config_from_preset("stub32")
    assert cfg.N == 32 and cfg.nu == 1e-2 and cfg.delta == 1e-3
    assert cfg.joint_period == 10 and cfg.kappa == 0.3 and cfg.W == 20 and cfg.K == 10
    cfg64 = config_from_preset("stub64")
    assert cfg64.N == 64
    with pytest.raises(KeyError):
        config_from_preset("stub128")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# testbed\n"
        "N = 8\n"
        "nu = 0.02\n"
        "delta = 0.002\n"
        "eta_dt = 0.9  # damping-step product\n"
        "max_steps = 17\n"
        "out = runs/eight  # string keys pass through\n"
        "nu_schedule = 0.1,0.01\n")
    cfg = load_config(path, seed=3)
    assert cfg.N == 8 and cfg.nu == 0.02 and cfg.delta == 0.002
    assert cfg.eta_dt == 0.9 and cfg.max_steps == 17 and cfg.seed == 3
    assert cfg.out == "runs/eight"
    assert cfg.nu_schedule == (0.1, 0.01)


@pytest.mark.parametrize("schedule", [(), (0.1, 0.0), (0.1, -1e-3)])
def test_config_rejects_bad_nu_schedule(schedule):
    # certify reads nu_schedule[-1] and builds a barrier per entry; no value
    # of unsafe makes an empty or non-positive schedule runnable
    for unsafe in (False, True):
        with pytest.raises(ValueError, match="nu_schedule"):
            RunConfig(nu_schedule=schedule, unsafe=unsafe).validate()


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)


def test_hexagonal_cell_geometry():
    pts, basis = hexagonal_cell(32, inflate=0.0)
    assert pts.shape == (32, 2)
    # neighbor distance 2 at contact scale; cell area N * 2 sqrt(3)
    assert cell_volume(basis) == pytest.approx(32 * 2 * np.sqrt(3.0), rel=1e-12)


def test_make_testbed_zero_jitter_exact_slack():
    cfg = RunConfig(N=8, jitter=0.0, inflate=0.02, unsafe=True)
    ds = make_testbed(cfg)
    shifts = build_shift_set(ds.packing.basis, cfg.R)
    want = (1.0 + cfg.inflate) ** 2 * 4.0 - 4.0
    assert min_slack(ds.packing, shifts, cfg.R) == pytest.approx(want, rel=1e-12)
    assert np.all(ds.v == 0.0)


def test_make_testbed_deterministic():
    cfg = config_from_preset("stub32")
    a = make_testbed(cfg)
    b = make_testbed(cfg)
    assert np.array_equal(a.packing.x, b.packing.x)
    assert np.array_equal(a.packing.basis.B, b.packing.basis.B)
    assert a.dt == b.dt


def test_make_testbed_meets_margin():
    cfg = config_from_preset("stub32")
    ds = make_testbed(cfg)
    shifts = build_shift_set(ds.packing.basis, cfg.R)
    assert min_slack(ds.packing, shifts, cfg.R) >= cfg.delta


def test_make_testbed_gauss_seidel_stall_falls_through_to_qp():
    # Gauss-Seidel lands one pair a few ulps below delta on every round here;
    # the QP polish must take over instead of the testbed giving up
    cfg = RunConfig(N=64, eps_active=0.05, jitter=0.02, inflate=0.02, seed=2).validate()
    ds = make_testbed(cfg)
    shifts = build_shift_set(ds.packing.basis, cfg.R)
    assert min_slack(ds.packing, shifts, cfg.R) >= cfg.delta


@pytest.mark.parametrize("seed", [0, 3, 39])
def test_make_testbed_overlap_that_gauss_seidel_cannot_clear_is_refused(seed):
    # unjittered contacts plus 0.1 jitter: Gauss-Seidel stalls with a pair
    # still overlapping, where the QP polish cannot evaluate the barrier
    cfg = RunConfig(N=16, jitter=0.1, inflate=0.0, seed=seed).validate()
    with pytest.raises(FeasibilityError, match="100 projection rounds"):
        make_testbed(cfg)


def test_make_testbed_cubic_fallback():
    cfg = RunConfig(n=3, N=8, jitter=0.005, unsafe=True)
    ds = make_testbed(cfg)
    assert ds.packing.x.shape == (8, 3)
    shifts = build_shift_set(ds.packing.basis, cfg.R)
    assert min_slack(ds.packing, shifts, cfg.R) >= cfg.delta


def test_state_roundtrip(tmp_path):
    cfg = RunConfig(N=4, unsafe=True)
    ds = make_testbed(cfg)
    path = tmp_path / "state.json"
    save_state(path, ds, meta={"note": "fixture"})
    state, v = load_state(path)
    assert np.allclose(state.x, ds.packing.x)
    assert np.allclose(state.basis.B, ds.packing.basis.B)
    assert np.allclose(v, ds.v)


def test_state_version_guard(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"format_version": 99, "x": [], "B": []}))
    with pytest.raises(ValueError, match="format version"):
        load_state(path)


def test_execute_run_writes_outputs(tmp_path):
    cfg = config_from_preset("stub32", max_steps=5)
    record, summary = execute_run(cfg, out_dir=tmp_path)
    csv = (tmp_path / "trajectory.csv").read_text()
    assert csv.splitlines()[0] == "step,E,U,kinetic,min_slack,lambda2,dt,backtracked,nudged,projection"
    assert len(csv.splitlines()) == 6
    blob = json.loads((tmp_path / "summary.json").read_text())
    assert blob["steps_total"] == 5
    assert blob["counts"]["accepted"] == 5
    assert blob["config"]["N"] == 32


def test_cli_run_zero_steps(tmp_path):
    rc = cli_main(["run", "--preset", "stub32", "--steps", "0",
                   "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "trajectory.csv").read_text()
    assert csv == "step,E,U,kinetic,min_slack,lambda2,dt,backtracked,nudged,projection\n"
    blob = json.loads((tmp_path / "summary.json").read_text())
    assert blob["steps_total"] == 0
    assert blob["final_volume"] > 0
    # with no steps the summary falls back to the initial metrics
    assert blob["final_E"] == blob["initial"]["E"] > 0
    assert blob["initial"]["min_slack"] >= 1e-3


def test_cli_run_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--preset", "stub32", "--seed", "7", "--steps", "40",
                     "--out", str(a)]) == 0
    assert cli_main(["run", "--preset", "stub32", "--seed", "7", "--steps", "40",
                     "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_cli_testbed_and_spectra(tmp_path, capsys):
    assert cli_main(["testbed", "--preset", "stub32", "--out", str(tmp_path)]) == 0
    state_path = tmp_path / "testbed.json"
    assert state_path.exists()
    rc = cli_main(["spectra", str(state_path), "--eps", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lambda2 = " in out
    assert "cheeger" not in out  # N = 32 > 20: no exact Cheeger


def test_cli_spectra_two_sphere(tmp_path, capsys):
    from util import pair_state
    save_state(tmp_path / "pair.json", pair_state(2.0))
    rc = cli_main(["spectra", str(tmp_path / "pair.json"), "--eps", "0.01"])
    out = capsys.readouterr().out
    assert rc == 0
    lam = float(out.splitlines()[0].split("=")[1])
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert "sandwich ok" in out


def test_cli_spectra_rejects_negative_graph_scale(tmp_path, capsys):
    from util import pair_state
    save_state(tmp_path / "pair.json", pair_state(2.0))
    for eps in ("-3", "-1", "-1e-9"):  # -1 and -1e-9 once gave lambda2 = 0 for an empty graph
        rc = cli_main(["spectra", str(tmp_path / "pair.json"), f"--eps={eps}"])
        assert rc == 2, eps
        assert capsys.readouterr().err == "error: graph scales must be nonnegative\n", eps


def test_cli_missing_state_file(tmp_path, capsys):
    rc = cli_main(["certify", str(tmp_path / "nope.json")])
    assert rc != 0
    assert capsys.readouterr().err != ""


def test_cli_unsafe_flag_required_for_out_of_range(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("kappa = 0.9\n")
    rc = cli_main(["run", "--config", str(cfg), "--steps", "1", "--out", str(tmp_path)])
    assert rc != 0
    rc = cli_main(["run", "--config", str(cfg), "--steps", "1", "--unsafe",
                   "--out", str(tmp_path)])
    assert rc == 0


def test_cli_unsafe_overrides_every_range_but_the_step_invariants(tmp_path, capsys):
    # eta_dt = 1.6 is outside validate's (0.5, 1.5) only; 2.5 breaks eta dt < 2,
    # which every dynamics state keeps
    cfg = tmp_path / "c.cfg"
    argv = ["run", "--config", str(cfg), "--steps", "2", "--unsafe", "--out", str(tmp_path)]
    cfg.write_text("eta_dt = 1.6\n")
    assert cli_main(argv) == 0
    cfg.write_text("eta_dt = 2.5\n")
    capsys.readouterr()
    assert cli_main(argv) == 2
    assert "damping-step product must lie in (0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["unsafe = maybe", "N = many", "nu_schedule = 0.1, 0"])
def test_cli_reports_bad_config_values_with_their_line(tmp_path, capsys, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"# header\n{line}\n")
    rc = cli_main(["run", "--config", str(cfg), "--steps", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ")
    key = line.split("=")[0].strip()
    assert key in err
    if key != "nu_schedule":  # that one parses; validate refuses it
        assert f"{cfg}:2:" in err


def test_cli_shrink_is_validated(tmp_path, capsys):
    rc = cli_main(["run", "--preset", "stub32", "--steps", "1", "--shrink", "-5",
                   "--out", str(tmp_path)])
    assert rc == 2 and "volume_weight" in capsys.readouterr().err
    # certify takes --shrink as cert_shrink and validates it before reading the state
    rc = cli_main(["certify", str(tmp_path / "nope.json"), "--shrink", "-5"])
    assert rc == 2 and "cert_shrink" in capsys.readouterr().err


def test_cli_certify_steps_caps_every_level(tmp_path, monkeypatch):
    # --steps caps the first-order steps; levels 1-3 start at their Newton
    # centers, where the gradient test ends them at once, and the last level's
    # center lies below the delta floor, so its dynamics start where it began
    state_path = tmp_path / "n4.json"
    save_state(state_path, make_testbed(RunConfig(N=4, seed=2, unsafe=True)))
    argv = ["certify", str(state_path), "--steps", "3", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    levels = json.loads((tmp_path / "certification.json").read_text())["levels"]
    assert [level["steps"] for level in levels] == [0, 0, 0, 3]
    assert [level["newton_stop"] for level in levels] == ["decrement"] * 3 + ["linesearch"]
    assert all(level["newton_iters"] > 0 for level in levels)
    monkeypatch.setattr(harness, "NEWTON_MAX_ITER", 0)  # every level's dynamics do the work
    assert cli_main(argv) == 0
    levels = json.loads((tmp_path / "certification.json").read_text())["levels"]
    assert [level["steps"] for level in levels] == [3, 3, 3, 3]
    assert [level["newton_stop"] for level in levels] == ["max_iter"] * 4


@pytest.mark.parametrize("argv", [["testbed", "--steps", "5"], ["testbed", "--shrink", "1"],
                                  ["spectra", "s.json", "--steps", "5"],
                                  ["spectra", "s.json", "--shrink", "1"]])
def test_cli_rejects_flags_the_command_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_runtime_imports_numpy_and_the_stdlib_only():
    # the package's one runtime dependency is numpy: every import in src/spit,
    # function-level ones included, is __future__, stdlib, numpy or relative
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy"}
    package = Path(__file__).resolve().parents[1] / "src" / "spit"
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update({name.split(".")[0]: path.name for name in names})
    assert "numpy" in found
    assert {name: where for name, where in found.items() if name not in allowed} == {}


# -- certify's Newton centering ------------------------------------------------

@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(seed=integers(0, 10_000), N=sampled_from([1, 2, 4]), n=sampled_from([2, 3]))
def test_newton_hessian_matches_the_reference_and_finite_differences(seed, N, n):
    # the barrier part is the dense matrix of `hvp_joint` that `ref_hessian`
    # assembles independently; the |det B| part is the derivative of its gradient
    st = random_feasible_state(seed, N, n)
    p = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)
    contacts = scan(st, p.R)
    H, ref = harness._joint_hessian(st, contacts, p), ref_hessian(st, contacts, p, joint=True)
    assert np.abs(H - ref).max() <= 1e-13 * np.abs(ref).max()
    B, h = st.basis.B, 1e-6
    fd = [(volume_gradient(LatticeBasis(B + h * E)) - volume_gradient(LatticeBasis(B - h * E)))
          .ravel() / (2.0 * h) for E in np.eye(n * n).reshape(n * n, n, n)]
    assert rel_err(volume_hessian(st.basis), fd) <= 1e-7


def _newton_iterates(monkeypatch, state, nu, config):
    """`_newton_center`'s result at nu and every iterate it accepted, each read
    off the Hessian it takes there (the start state first)."""
    iterates, hessian = [], harness._joint_hessian
    monkeypatch.setattr(harness, "_joint_hessian",
                        lambda s, *args: iterates.append(s) or hessian(s, *args))
    p = BarrierParams(nu=nu, delta=config.delta, R=config.R)
    return harness._newton_center(state, p, config.cert_shrink), iterates, p


def test_newton_center_keeps_every_slack_and_never_raises_F(monkeypatch):
    # on every level of the N=4 testbed, the last one's center below the delta
    # floor included, each accepted iterate keeps every slack >= delta on a
    # complete scan and F = |det B| + U never rises
    config = RunConfig(N=4, seed=2, unsafe=True)
    state = make_testbed(config).packing
    stops = []
    for nu in config.nu_schedule:
        with monkeypatch.context() as patch:
            (start, iters, stop), iterates, p = _newton_iterates(patch, state, nu, config)
        assert len(iterates) == iters + 1
        F = []
        for it in iterates:
            shifts = build_shift_set(it.basis, config.R)
            assert min_slack(it, shifts, config.R) >= config.delta
            F.append(config.cert_shrink * cell_volume(it.basis) + barrier_value(it, shifts, p))
        assert all(b <= a for a, b in zip(F, F[1:])), F
        assert start is (iterates[-1] if stop == "decrement" else state)
        stops.append(stop)
        state = start
    assert stops == ["decrement"] * 3 + ["linesearch"]


def test_newton_center_that_stalls_is_discarded(monkeypatch):
    # on the 3-D N=2 testbed at nu = 0.1 Newton stalls at the cutoff jump of
    # the barrier: it stops on "linesearch", and the level's dynamics start from
    # the testbed, not from the stalled iterate
    config = RunConfig(n=3, N=2, seed=0, jitter=0.05, nu_schedule=(0.1,), cert_max_steps=5,
                       unsafe=True)
    state = make_testbed(config).packing
    (start, iters, stop), iterates, _ = _newton_iterates(monkeypatch, state, 0.1, config)
    assert stop == "linesearch" and start is state and iters > 0
    assert cell_volume(iterates[-1].basis) < cell_volume(state.basis)  # it did move
    initials, run = [], harness.run_trajectory
    monkeypatch.setattr(harness, "run_trajectory",
                        lambda cfg, initial: initials.append(initial) or run(cfg, initial=initial))
    level, = harness.certify(config, state)["levels"]
    assert (level["newton_iters"], level["newton_stop"]) == (iters, "linesearch")
    assert initials[0].packing is state
    assert level["min_row_slack"] >= config.delta
