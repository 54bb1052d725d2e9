"""Correctness gate applied to every benchmark operation.

It mirrors the acceptance checks in tests/test_acceptance.py and loosens none
of them.  Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import checkout  # noqa: F401  (imports spit from this checkout)

import numpy as np

from spit.geometry import build_shift_set, min_slack

SLACK_FLOOR = 1.0 - 1e-6  # rows keep min_slack >= delta * SLACK_FLOOR (criterion 9)
ENERGY_TOL = 1e-10        # descent and nonexpansiveness slack (criteria 3 and 4)
RES_X_TOL = 1e-6          # stationarity, relative to 1 + res_x_scale (criterion 6)
COMP_GROWTH = 1.1         # complementarity may rise at most this factor per level


def check_rows(rows, delta: float, descent: bool) -> list[str]:
    """Safeguard margin on every row; with `descent`, the Lyapunov checks too."""
    problems = []
    floor = delta * SLACK_FLOOR
    low = [r.step for r in rows if not r.min_slack >= floor]
    if low:
        problems.append(f"min_slack below delta(1-1e-6) at steps {low[:5]}")
    if descent:
        bad = [r.step for r in rows if not r.E_unprojected <= r.E_before + ENERGY_TOL]
        if bad:
            problems.append(f"unprojected step raised E at steps {bad[:5]}")
        E = np.array([r.E for r in rows])
        rises = np.flatnonzero(~(np.diff(E) <= ENERGY_TOL))
        if rises.size:
            problems.append(f"E column rises at steps {[rows[k + 1].step for k in rises[:5]]}")
    return problems


def check_qp_events(events) -> list[str]:
    """Every volume-free QP projection is energy-nonexpansive."""
    qp = [e for e in events
          if e.get("kind", "").startswith("qp") and e.get("volume_weight", 0.0) == 0.0]
    bad = [e["step"] for e in qp if not e["E_after"] <= e["E_before"] + ENERGY_TOL]
    return [f"QP projection raised E at steps {bad[:5]}"] if bad else []


def check_trajectory(record, config) -> list[str]:
    """Criteria 3, 4 and 9 on a fixed-length run, which must do every step."""
    if not record.rows:
        return ["trajectory has no rows"]
    problems = []
    if len(record.rows) != config.max_steps or record.terminated != "max_steps":
        problems.append(f"run stopped after {len(record.rows)} of {config.max_steps} steps "
                        f"({record.terminated!r})")
    return problems + check_rows(record.rows, config.delta, descent=True) + \
        check_qp_events(record.events)


def check_certify(report: dict, records, config) -> list[str]:
    """Criterion 6 on the continuation report, plus the QP events of its runs."""
    problems = []
    levels = report["levels"]
    if [lv["nu"] for lv in levels] != list(config.nu_schedule):
        problems.append("continuation did not visit every barrier level")
    floor = config.delta * SLACK_FLOOR
    for lv in levels:
        nu = lv["nu"]
        if lv["terminated"] != "gradient":
            problems.append(f"level nu={nu} ended by {lv['terminated']!r}, not 'gradient'")
        if not lv["res_x"] <= RES_X_TOL * (1.0 + lv["res_x_scale"]):
            problems.append(f"level nu={nu} res_x {lv['res_x']:.3e} too large")
        if not lv["mu_min_clamped"] >= 0.0:
            problems.append(f"level nu={nu} has a negative clamped multiplier")
        if not lv["min_row_slack"] >= floor:
            problems.append(f"level nu={nu} min_slack below delta(1-1e-6)")
    comps = [lv["comp"] for lv in levels]
    for nu, a, b in zip([lv["nu"] for lv in levels[1:]], comps, comps[1:]):
        if not b <= a * COMP_GROWTH:
            problems.append(f"complementarity rose at nu={nu}: {a:.3e} -> {b:.3e}")
    if report["rigidity_shift"]["rigid"] is not True:
        problems.append("final packing is not periodically rigid (shift convention)")
    for record in records:
        problems += check_qp_events(record.events)
    return problems


def check_testbed(state, config) -> list[str]:
    """A returned testbed is strictly feasible: min_slack >= delta(1 - 1e-6)."""
    if not np.all(np.isfinite(state.x)):
        return ["testbed has non-finite positions"]
    s = min_slack(state, build_shift_set(state.basis, config.R), config.R)
    if not s >= config.delta * SLACK_FLOOR:
        return [f"testbed min_slack {s:.6e} below delta(1-1e-6)"]
    return []
