"""Self-test of the benchmark: python3 -m pytest perfbench -q

Runs a shortened version of every workload through the benchmark's own entry
point, checks the output contract against BENCHMARK.json, shows that the
tracer leaves no unwrapped `spit` function behind, and feeds the correctness
gate states that break the safety margin delta.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import checkout
import gate
import run
import spans
import workloads
from spit import barrier, dynamics, geometry, harness
from spit.barrier import BarrierParams
from spit.harness import RunConfig

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())

FULL = dict(workloads.WORKLOADS)
SHORT_INPUTS = {
    "run-stub32": lambda seed: dataclasses.replace(
        FULL["run-stub32"].inputs(seed), max_steps=30),
    "run-hex256": lambda seed: dataclasses.replace(
        FULL["run-hex256"].inputs(seed), max_steps=3),
    "certify-n4": lambda seed: dataclasses.replace(
        FULL["certify-n4"].inputs(seed), cert_max_steps=40),
    "testbed-jitter64": lambda seed: FULL["testbed-jitter64"].inputs(seed)[:3],
}


@pytest.fixture
def shortened(monkeypatch):
    for name, inputs in SHORT_INPUTS.items():
        short = dataclasses.replace(FULL[name], inputs=inputs)
        monkeypatch.setitem(run.WORKLOADS, name, short)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def _run_cli(capsys, tmp_path, name: str, trace: int) -> tuple[str, dict]:
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--out", str(tmp_path)])
    assert code == 0
    text = capsys.readouterr().out
    return text, json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SHORT_INPUTS))
def test_shortened_workload_prints_every_metric_with_its_unit(shortened, capsys, tmp_path, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _run_cli(capsys, tmp_path, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        for key in want:
            assert key in text
        for key, metric in result["metrics"].items():
            if key == "setup_s" and FULL[name].setup is None:
                continue
            value = metric["value"]
            assert type(value) is float and math.isfinite(value) and value >= 0, (key, value)
        assert "fail_share" in text
        stem = tmp_path / f"{name}-seed3-trace{trace}"
        saved = json.loads(stem.with_suffix(".json").read_text())
        for fact in ("nproc", "cpu_model", "l2_cache", "l3_cache", "python", "numpy",
                     "blas_name", "blas_version", "blas_threads", "seed"):
            assert fact in saved["machine"]
        assert saved["machine"]["seed"] == 3
        if trace:
            assert (tmp_path / f"{stem.name}-spans.csv").exists()
        else:
            for key in ("wall_s", "peak_rss_mb", "final_E", "final_volume"):
                assert result["metrics"][key]["value"] > 0
            setup = result["metrics"]["setup_s"]["value"]
            if FULL[name].setup is None:
                assert setup is None  # nothing is built before the operation
            else:
                assert setup > 0
        if name == "certify-n4":
            # 40 steps per level cannot converge: the gate must say so
            assert result["correct"] is False
            assert any("max_steps" in p for p in saved["problems"])
        else:
            assert result["correct"] is True, saved["problems"]


def test_traced_run_counts_solver_health(shortened, capsys, tmp_path):
    _, result = _run_cli(capsys, tmp_path, "run-stub32", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["dynamics.run_trajectory.calls"] == 1
    assert m["harness.make_testbed.calls"] == 1  # the traced operation's set-up
    assert m["dynamics.accepted"] == 30
    assert m["barrier.estimate_m.calls"] >= 1
    assert m["barrier.estimate_m.iters"] >= m["barrier.estimate_m.calls"]
    assert m["spectral.nudge_trigger.calls"] == 29
    # lambda2 stayed above the threshold tau on every call: no nudge fired
    assert 0 < m["spectral.nudge_trigger.tau_share_max"] < 0.5
    assert m["spectral.nudge_trigger.fired"] == 0
    assert 0 < m["geometry.contacts_within.kept_share"] < 1


def test_tracer_leaves_no_unwrapped_original():
    originals = {id(f): f for _, f in spans.traced_originals().values()}

    def holders():
        return {(module.__name__, attr): value
                for module in spans.spit_modules()
                for attr, value in vars(module).items()
                if originals.get(id(value)) is value}

    before = holders()
    assert ("spit.harness", "estimate_L") in before  # bound at import elsewhere
    assert ("spit.barrier", "contacts_within") in before
    with spans.Tracer():
        assert holders() == {}, "a spit module still holds an unwrapped original"
        assert hasattr(dynamics.estimate_L, "__wrapped__")
        assert hasattr(barrier.contacts_within, "__wrapped__")
    assert holders() == before


def test_self_time_excludes_children():
    ds = harness.make_testbed(RunConfig(N=4, seed=0, unsafe=True))
    shifts = geometry.build_shift_set(ds.packing.basis, 2.5)
    p = BarrierParams(nu=1e-2, delta=1e-3, R=2.5)
    tracer = spans.Tracer()
    with tracer:
        barrier.barrier_energy(ds.packing, shifts, p)  # enumerates its own contacts
    summary = tracer.summary()
    assert summary["barrier.barrier_energy.calls"] == 1
    assert summary["geometry.contacts_within.calls"] == 1
    names = [spans.SPAN_NAMES[c] for c in tracer.span_name]
    child = names.index("geometry.contacts_within")
    assert names[tracer.parent[child]] == "barrier.barrier_energy"
    # the child's wrapper cost (its bookkeeping and counters) is charged to
    # the tracer, not to the parent
    total = (tracer.end[0] - tracer.start[0]) * 1e-9
    wrapper = (tracer.leave[child] - tracer.enter[child]
               - (tracer.end[child] - tracer.start[child])) * 1e-9
    assert wrapper > 0
    assert summary["barrier.barrier_energy.self_s"] + \
        summary["geometry.contacts_within.self_s"] + wrapper == pytest.approx(total)
    assert summary["trace.wrapper_s"] >= wrapper


def _overlapping(config: RunConfig):
    """A testbed whose first two spheres sit closer than the margin delta allows."""
    ds = harness.make_testbed(config)
    x = ds.packing.x.copy()
    shifts = geometry.build_shift_set(ds.packing.basis, config.R)
    near = geometry.contacts_within(ds.packing, shifts, config.R)
    k = int(np.flatnonzero(near.i != near.j)[0])
    i, j = int(near.i[k]), int(near.j[k])
    r = geometry.r_vectors(ds.packing, near.take([k]))[0]
    target = np.sqrt(4.0 + 0.5 * config.delta)
    x[i] = x[j] + ds.packing.basis.B @ near.z[k].astype(float) + r / np.linalg.norm(r) * target
    return ds.packing.with_x(x)


def test_gate_rejects_state_that_breaks_delta():
    config = RunConfig(N=4, seed=0, unsafe=True)
    ok = harness.make_testbed(config).packing
    assert gate.check_testbed(ok, config) == []
    bad = _overlapping(config)
    problems = gate.check_testbed(bad, config)
    assert problems and "below delta" in problems[0]


def test_gate_rejects_rows_that_break_delta_or_descent():
    config = dataclasses.replace(FULL["run-stub32"].inputs(1), max_steps=5)
    record = dynamics.run_trajectory(config)
    assert gate.check_trajectory(record, config) == []
    rows = list(record.rows)
    rows[2] = dataclasses.replace(rows[2], min_slack=0.5 * config.delta)
    assert any("min_slack" in p for p in gate.check_rows(rows, config.delta, descent=True))
    rows = list(record.rows)
    rows[3] = dataclasses.replace(rows[3], E=rows[2].E + 1.0)
    assert any("E column" in p for p in gate.check_rows(rows, config.delta, descent=True))


def test_gate_rejects_run_that_stops_early():
    config = dataclasses.replace(FULL["run-stub32"].inputs(1), max_steps=5)
    record = dynamics.run_trajectory(config)
    short = dataclasses.replace(record, rows=record.rows[:3])
    assert any("stopped after 3 of 5" in p for p in gate.check_trajectory(short, config))
    early = dataclasses.replace(record, terminated="gradient")
    assert any("'gradient'" in p for p in gate.check_trajectory(early, config))


def test_operation_that_raises_makes_the_run_incorrect(shortened, monkeypatch, capsys,
                                                       tmp_path):
    calls = []

    def flaky(config, ds):
        calls.append(config)
        if len(calls) == 1:
            raise RuntimeError("stopped part-way")
        return dynamics.run_trajectory(config, initial=ds)

    stub = run.WORKLOADS["run-stub32"]
    monkeypatch.setitem(run.WORKLOADS, "run-stub32",
                        dataclasses.replace(stub, operation=flaky))
    code = run.main(["--workload", "run-stub32", "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    saved = json.loads((tmp_path / "run-stub32-seed3-trace0.json").read_text())
    assert len(calls) >= 2
    assert result["correct"] is False
    assert result["failed"] == 1
    assert any("operation raised: RuntimeError: stopped part-way" in p
               for p in saved["problems"])
    # the median time comes from the operations that finished
    finished = [op["wall_s"] for op in saved["operations"] if op["error"] is None]
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(np.median(finished))


def test_set_ups_apart_cycle_through_testbeds_derived_from_the_seed():
    wl = FULL["certify-n4"]
    configs = run.setup_inputs(wl, 3)
    assert configs[0] == wl.inputs(3)
    assert len({c.seed for c in configs}) == run.SETUP_SEEDS
    assert {c.seed for c in configs}.isdisjoint(c.seed for c in run.setup_inputs(wl, 4))
    assert run.setup_inputs(FULL["testbed-jitter64"], 3) == []


def test_repeats_with_different_outputs_are_incorrect():
    def op(fp):
        out = workloads.Outcome(fingerprint=fp, attempted=1, failed=0, problems=[],
                                final_E=1.0, final_volume=1.0)
        return {"traced": False, "wall_s": 1.0, "outcome": out, "error": None}

    wl = FULL["run-stub32"]
    assert run.judge(wl, [op("a"), op("a")])["correct"] is True
    assert run.judge(wl, [op("a"), op("b")])["correct"] is False


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and w["name"] in run.WORKLOADS
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
