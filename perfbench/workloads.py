"""The benchmark's workloads.

Each workload turns the benchmark seed into inputs (a `RunConfig` or a list
of them), builds the state its operation starts from (the set-up, if it has
one), runs the
timed operation through `spit`'s public functions, and afterwards evaluates
the outputs with the correctness gate.  Only the generated config and state
reach the program.  Timed calls look the function up on its module
(`dynamics.run_trajectory`, not a name bound here at import) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import checkout  # noqa: F401  (imports spit from this checkout)

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spit import dynamics, harness
from spit.barrier import BarrierParams
from spit.dynamics import lyapunov_energy
from spit.errors import FeasibilityError
from spit.geometry import build_shift_set, cell_volume
from spit.harness import RunConfig, config_from_preset

import gate

HEX256_STEPS = 50   # five joint projections and one curvature refresh
JITTER_BATCH = 40   # testbeds per testbed-jitter64 operation


@dataclass
class Outcome:
    """What one operation produced, judged outside the timed region."""

    fingerprint: str     # sha256 a repeat with the same inputs must reproduce
    attempted: int
    failed: int          # raised, or failed the correctness gate
    problems: list       # gate failures, i.e. wrong outputs
    final_E: float
    final_volume: float
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable        # seed -> inputs
    setup: Callable | None  # inputs -> start state; None: the operation starts from inputs
    operation: Callable     # (inputs, start state) -> raw output; timed and traced
    evaluate: Callable      # (inputs, raw output) -> Outcome; untimed
    batch: int = 1          # attempts per operation


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _make_testbed(config):
    return harness.make_testbed(config)


# -- trajectory runs ---------------------------------------------------------

def _run_operation(config, ds):
    return dynamics.run_trajectory(config, initial=ds)


def _run_evaluate(config, record) -> Outcome:
    problems = gate.check_trajectory(record, config)
    csv_sha = _sha256(record.to_csv())
    summary = record.summary()
    return Outcome(fingerprint=csv_sha, attempted=1, failed=1 if problems else 0,
                   problems=problems, final_E=summary["final_E"],
                   final_volume=summary["final_volume"],
                   details={"trajectory_csv_sha256": csv_sha, "steps": len(record.rows),
                            "terminated": record.terminated, "counts": record.counts})


# -- certify -----------------------------------------------------------------

@contextmanager
def _returns_of(module, name: str):
    """Collect every value `module.name` returns while the block runs."""
    func = getattr(module, name)
    seen = []

    def recorded(*args, **kwargs):
        out = func(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, name, recorded)
    try:
        yield seen
    finally:
        setattr(module, name, func)


def _certify_inputs(seed: int) -> RunConfig:
    return RunConfig(N=4, seed=seed, cert_max_steps=20000, unsafe=True)


def _certify_operation(config, ds):
    # certify keeps its trajectories to itself; their records carry the
    # final energy and the QP events the gate needs
    with _returns_of(harness, "run_trajectory") as records:
        report = harness.certify(config, ds.packing)
    return report, records


def _certify_evaluate(config, out) -> Outcome:
    report, records = out
    problems = gate.check_certify(report, records, config)
    last = records[-1]
    final_E = float(last.rows[-1].E) if last.rows else last.initial["E"]
    blob = json.dumps(report, sort_keys=True, default=float)
    return Outcome(fingerprint=_sha256(blob), attempted=1, failed=1 if problems else 0,
                   problems=problems, final_E=final_E, final_volume=report["final_volume"],
                   details={"report_sha256": _sha256(blob),
                            "steps": [lv["steps"] for lv in report["levels"]],
                            "res_B": [lv["res_B"] for lv in report["levels"]],
                            "res_x": [lv["res_x"] for lv in report["levels"]],
                            "comp": [lv["comp"] for lv in report["levels"]]})


# -- testbed batch -----------------------------------------------------------

def _jitter_inputs(seed: int) -> list:
    return [RunConfig(N=64, eps_active=0.05, jitter=0.02, inflate=0.02,
                      seed=seed * JITTER_BATCH + k).validate()
            for k in range(JITTER_BATCH)]


def _jitter_operation(configs, _start):
    out = []
    for config in configs:
        try:
            out.append(harness.make_testbed(config))
        except FeasibilityError as exc:
            out.append(exc)
    return out


def _jitter_evaluate(configs, states) -> Outcome:
    problems, refused, energies, volumes = [], [], [], []
    digest = hashlib.sha256()
    for config, ds in zip(configs, states):
        if isinstance(ds, FeasibilityError):
            refused.append(config.seed)
            digest.update(f"{config.seed}:FeasibilityError;".encode())
            continue
        bad = gate.check_testbed(ds.packing, config)
        problems += [f"seed {config.seed}: {p}" for p in bad]
        digest.update(ds.packing.x.tobytes() + ds.packing.basis.B.tobytes())
        p = BarrierParams(nu=config.nu, delta=config.delta, R=config.R)
        energies.append(lyapunov_energy(ds, p, build_shift_set(ds.packing.basis, config.R)))
        volumes.append(cell_volume(ds.packing.basis))
    failed = len(refused) + len(problems)
    return Outcome(fingerprint=digest.hexdigest(), attempted=len(configs), failed=failed,
                   problems=problems,
                   final_E=float(np.median(energies)) if energies else float("nan"),
                   final_volume=float(np.median(volumes)) if volumes else float("nan"),
                   details={"refused_seeds": refused})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="run-stub32",
        why="what `spit run` users run: stub32 preset, 1000 steps; curvature "
            "estimators take most of the time, projections and nudges hardly fire",
        inputs=lambda seed: config_from_preset("stub32", seed=seed),
        setup=_make_testbed, operation=_run_operation, evaluate=_run_evaluate),
    Workload(
        name="run-hex256",
        why=f"N=256 hexagonal testbed, {HEX256_STEPS} steps: the candidate-table "
            "contact scan, the dense joint QP and the power-path Fiedler solve dominate",
        inputs=lambda seed: config_from_preset("stub32", N=256, max_steps=HEX256_STEPS,
                                               seed=seed),
        setup=_make_testbed, operation=_run_operation, evaluate=_run_evaluate),
    Workload(
        name="certify-n4",
        why="certify on the N=4 acceptance testbed: thousands of tiny steps with "
            "basis moves and the volume term; per-call overhead dominates",
        inputs=_certify_inputs, setup=_make_testbed, operation=_certify_operation,
        evaluate=_certify_evaluate),
    Workload(
        name="testbed-jitter64",
        why=f"{JITTER_BATCH} make_testbed calls at N=64, jitter 0.02: the only "
            "workload where Gauss-Seidel repair and the position QP do the work",
        inputs=_jitter_inputs, setup=None, operation=_jitter_operation,
        evaluate=_jitter_evaluate, batch=JITTER_BATCH),
)}
