"""Configuration, testbed, state files, CLI subcommands."""

import json

import numpy as np
import pytest

from spit.cli import main as cli_main
from spit.geometry import build_shift_set, cell_volume, min_slack
from spit.harness import (
    RunConfig,
    config_from_preset,
    execute_run,
    hexagonal_cell,
    load_config,
    load_state,
    make_testbed,
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
    assert min_slack(ds.packing, shifts) == pytest.approx(want, rel=1e-12)
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
    assert min_slack(ds.packing, shifts) >= cfg.delta


def test_make_testbed_gauss_seidel_stall_falls_through_to_qp():
    # Gauss-Seidel lands one pair a few ulps below delta on every round here;
    # the QP polish must take over instead of the testbed giving up
    cfg = RunConfig(N=64, eps_active=0.05, jitter=0.02, inflate=0.02, seed=2).validate()
    ds = make_testbed(cfg)
    shifts = build_shift_set(ds.packing.basis, cfg.R)
    assert min_slack(ds.packing, shifts) >= cfg.delta


def test_make_testbed_cubic_fallback():
    cfg = RunConfig(n=3, N=8, jitter=0.005, unsafe=True)
    ds = make_testbed(cfg)
    assert ds.packing.x.shape == (8, 3)
    shifts = build_shift_set(ds.packing.basis, cfg.R)
    assert min_slack(ds.packing, shifts) >= cfg.delta


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
    assert "cheeger" not in out  # N = 32 > 20, no exact Cheeger by default


def test_cli_spectra_two_sphere(tmp_path, capsys):
    from util import pair_state
    save_state(tmp_path / "pair.json", pair_state(2.0))
    rc = cli_main(["spectra", str(tmp_path / "pair.json"), "--eps", "0.01"])
    out = capsys.readouterr().out
    assert rc == 0
    lam = float(out.splitlines()[0].split("=")[1])
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert "sandwich ok" in out


def test_cli_spectra_rejects_large_exact_cheeger(tmp_path, capsys):
    assert cli_main(["testbed", "--preset", "stub32", "--out", str(tmp_path)]) == 0
    rc = cli_main(["spectra", str(tmp_path / "testbed.json"), "--exact-cheeger"])
    err = capsys.readouterr().err
    assert rc != 0
    assert "exact Cheeger" in err


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


def test_cli_shrink_is_validated(tmp_path, capsys):
    rc = cli_main(["run", "--preset", "stub32", "--steps", "1", "--shrink", "-5",
                   "--out", str(tmp_path)])
    assert rc == 2 and "volume_weight" in capsys.readouterr().err
    # certify takes --shrink as cert_shrink and validates it before reading the state
    rc = cli_main(["certify", str(tmp_path / "nope.json"), "--shrink", "-5"])
    assert rc == 2 and "cert_shrink" in capsys.readouterr().err
