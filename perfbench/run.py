"""Benchmark of the spit solver: one workload per process, serially, no workers.

    python3 perfbench/run.py --workload run-stub32 --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 40 --trace 0

The operation repeats on the same inputs until the next repeat would pass
`--seconds` (at least once); every repeat goes through the correctness gate
and must reproduce the first one's output hash; an operation that raises
makes the run incorrect.  Each repeat starts from a set-up (`make_testbed`)
of its own, and more set-ups run before and after the repeats, on testbeds of
seeds derived from the workload seed, so that the reported set-up median, like
the operation median, samples the whole run, and samples testbeds as well.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced operations, prints the per-layer metrics (per traced operation,
its set-up included) and the tracing overhead, and writes the spans of the
last traced operation.
Either way the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, every metric a finite,
non-negative float; a result file with the machine facts, every operation's
details, the tracing overhead in seconds and `fail_share` with its base is
written under `--out`.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checkout
import machine
import spans
from workloads import WORKLOADS

# Set-up takes 1 ms to 0.6 s and one sample of it is mostly noise, and its
# cost depends on the testbed (at N=4, 1 ms to 0.1 s by seed).  So besides the
# set-up of each operation, at least SETUP_REPS set-ups and SETUP_SECONDS of
# them run, half before the operations and half after, cycling through the
# testbeds of SETUP_SEEDS seeds derived from the workload seed.
SETUP_REPS = 9
SETUP_SECONDS = 4.0
SETUP_SEEDS = 64

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_E": "energy",
    "final_volume": "area",
}


def per_layer_units() -> dict:
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: unit for name, (unit, _) in spans.COUNTERS.items()})
    units["trace.wrapper_s"] = "s"
    units["trace.wall_ratio"] = "ratio"
    return units


def _number(x):
    return None if x is None or not math.isfinite(x) else float(x)


def run_one(workload, inputs, set_up, traced: bool) -> dict:
    """One set-up, the operation and its evaluation; the output dies when this
    returns, so peak memory does not grow with the number of repeats.

    A traced operation's set-up is traced too, so that the layers under
    `make_testbed` show, but its time is not a set-up sample."""
    tracer = spans.Tracer() if traced else None
    op = {"traced": traced, "outcome": None, "error": None, "tracer": tracer, "wall_s": 0.0}

    def tracing():
        return tracer if tracer is not None else contextlib.nullcontext()

    try:
        with tracing():
            start = set_up(sample=not traced)
        t0 = time.perf_counter()
        try:
            with tracing():
                raw = workload.operation(inputs, start)
        finally:
            op["wall_s"] = time.perf_counter() - t0
        op["outcome"] = workload.evaluate(inputs, raw)
    except Exception:  # a raising operation is a failed one; keep measuring
        op["error"] = traceback.format_exc()
    return op


def setup_inputs(workload, seed: int) -> list:
    """The inputs the set-ups apart from the operations cycle through: the
    workload seed's and SETUP_SEEDS - 1 derived from it."""
    if workload.setup is None:
        return []
    return [workload.inputs(seed)] + \
        [workload.inputs(seed * SETUP_SEEDS + k) for k in range(1, SETUP_SEEDS)]


def run_operations(workload, inputs, apart_inputs: list, seconds: float,
                   trace: bool) -> tuple[list, list]:
    """Set up and run the operation until the next repeat would pass `seconds`.

    Returns the operations and the set-up times (none for a workload without
    a set-up).
    """
    setup_times = []
    apart = itertools.cycle(apart_inputs)

    def set_up(sample: bool = True, config=inputs):
        if workload.setup is None:
            return None
        t0 = time.perf_counter()
        start = workload.setup(config)
        if sample:
            setup_times.append(time.perf_counter() - t0)
        return start

    def set_up_apart(reps: int) -> None:
        t0 = time.perf_counter()
        for _ in range(reps if apart_inputs else 0):
            set_up(config=next(apart))
        while apart_inputs and time.perf_counter() - t0 < SETUP_SECONDS / 2:
            set_up(config=next(apart))

    set_up_apart(SETUP_REPS // 2)
    ops = []
    began = time.perf_counter()
    while True:
        ops.append(run_one(workload, inputs, set_up, traced=trace and len(ops) % 2 == 1))
        elapsed = time.perf_counter() - began
        typical = statistics.median(o["wall_s"] for o in ops) + \
            (statistics.median(setup_times) if setup_times else 0.0)
        if elapsed + typical > seconds and (not trace or len(ops) >= 2):
            break
    set_up_apart(SETUP_REPS - SETUP_REPS // 2)
    return ops, setup_times


def judge(workload, ops) -> dict:
    """Correctness, attempts and failures over all operations of the run."""
    problems, attempted, failed = [], 0, 0
    for op in ops:
        if op["outcome"] is None:
            attempted += workload.batch
            failed += workload.batch
            problems.append("operation raised: " + op["error"].strip().splitlines()[-1])
        else:
            attempted += op["outcome"].attempted
            failed += op["outcome"].failed
            problems += op["outcome"].problems
    fingerprints = {op["outcome"].fingerprint for op in ops if op["outcome"] is not None}
    if len(fingerprints) > 1:
        problems.append(f"repeats on the same inputs gave {len(fingerprints)} different outputs")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "problems": problems}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _completed_walls(ops, traced: bool) -> list:
    """Times of the operations that returned; a raising one stopped part-way."""
    return [op["wall_s"] for op in ops if op["traced"] == traced and op["outcome"] is not None]


def end_to_end_metrics(ops, setup_times) -> dict:
    outcomes = [op["outcome"] for op in ops if op["outcome"] is not None]
    values = {
        "wall_s": _median(_completed_walls(ops, traced=False)),
        "setup_s": _median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_E": outcomes[-1].final_E if outcomes else None,
        "final_volume": outcomes[-1].final_volume if outcomes else None,
    }
    return {k: {"value": _number(v), "unit": END_TO_END[k]} for k, v in values.items()}


def tracing_overhead_s(ops):
    """Median traced minus median untraced operation time; host noise can
    make it negative."""
    traced = _median(_completed_walls(ops, traced=True))
    untraced = _median(_completed_walls(ops, traced=False))
    return None if traced is None or untraced is None else traced - untraced


def per_layer_metrics(ops) -> dict:
    units = per_layer_units()
    traced = [op["tracer"].summary() for op in ops if op["traced"]]
    values = {}
    for name in units:
        seen = [s[name] for s in traced if name in s]
        if name in spans.MAX_COUNTERS:
            values[name] = max(seen, default=0)
        elif name != "trace.wall_ratio":
            values[name] = sum(seen) / len(traced)
    # the tracing overhead as a ratio, which unlike the difference stays positive
    traced_wall = _median(_completed_walls(ops, traced=True))
    untraced_wall = _median(_completed_walls(ops, traced=False))
    values["trace.wall_ratio"] = (traced_wall / untraced_wall
                                  if traced_wall is not None and untraced_wall else None)
    return {k: {"value": _number(v), "unit": units[k]} for k, v in values.items()}


def _print_report(name, seed, trace, metrics, verdict, ops, setup_times) -> None:
    n_ops = len(_completed_walls(ops, traced=False))
    print(f"{name} seed={seed} trace={int(trace)}: {len(ops)} operations, "
          f"{len(setup_times)} set-ups")
    notes = {"wall_s": f"median of {n_ops} completed untraced operations",
             "setup_s": f"median of {len(setup_times)} set-ups, {SETUP_SEEDS} testbeds"
             if setup_times
             else "the workload has no set-up"}
    for key, m in metrics.items():
        note = f"   ({notes[key]})" if key in notes else ""
        print(f"  {key:48s} {m['value']!r:>24} {m['unit']}{note}")
    share = verdict["failed"] / verdict["attempted"]
    print(f"  {'fail_share':48s} {share!r:>24} ratio   "
          f"({verdict['failed']} failed / {verdict['attempted']} attempted)")
    if trace:
        print(f"  {'trace.overhead_s':48s} {tracing_overhead_s(ops)!r:>24} s   "
              "(median traced minus median untraced operation)")
    for op in ops:
        if op["outcome"] is not None:
            print(f"  output sha256 {op['outcome'].fingerprint}")
            break
    for problem in verdict["problems"]:
        print(f"  GATE FAILED: {problem}")


def run_all(args) -> int:
    """Every workload in a process of its own, one after another."""
    for name in WORKLOADS:
        code = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--out", args.out]).returncode
        if code:
            return code
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(checkout.ROOT / "perfbench-out"),
                        help="directory for result files and span dumps")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    inputs = workload.inputs(args.seed)
    ops, setup_times = run_operations(workload, inputs, setup_inputs(workload, args.seed),
                                      args.seconds, trace)
    verdict = judge(workload, ops)
    metrics = per_layer_metrics(ops) if trace else end_to_end_metrics(ops, setup_times)
    facts = machine.facts(args.seed)
    _print_report(workload.name, args.seed, trace, metrics, verdict, ops, setup_times)
    print(f"  machine {json.dumps(facts)}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{int(trace)}"
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": int(trace),
        "machine": facts,
        **{k: verdict[k] for k in ("correct", "attempted", "failed", "problems")},
        "fail_share": {"value": verdict["failed"] / verdict["attempted"],
                       "failed": verdict["failed"], "attempted": verdict["attempted"]},
        "metrics": metrics,
        "trace_overhead_s": tracing_overhead_s(ops) if trace else None,
        "setup_s": setup_times,
        "operations": [{"traced": op["traced"], "wall_s": op["wall_s"], "error": op["error"],
                        **({"fingerprint": op["outcome"].fingerprint,
                            "problems": op["outcome"].problems,
                            "details": op["outcome"].details} if op["outcome"] else {})}
                       for op in ops],
    }
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1, default=float) + "\n")
    last_traced = [op["tracer"] for op in ops if op["traced"]]
    if last_traced:
        last_traced[-1].write_csv(out / f"{stem}-spans.csv")

    print(json.dumps({"correct": verdict["correct"], "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
