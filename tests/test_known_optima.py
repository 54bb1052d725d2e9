"""Known-optimum checks: certify must end the cell at the densest packing's volume.

The triangular lattice packs disks at area 2 sqrt(3) each (Thue; Fejes Toth
1940), so at the safeguard margin delta a 2-D cell of N disks cannot be
smaller than V* = N 2 sqrt(3) (4 + delta) / 4, and reaching V* certifies
global optimality.  The N=4 acceptance testbed is checked against V* beside
the other acceptance criteria (`test_acceptance.py`), which runs its certify
report once.
"""

import pytest

from util import known_optimum_2d

from spit.harness import RunConfig, certify, make_testbed


def _certified_volume(inflate: float) -> tuple[float, float]:
    cfg = RunConfig(N=1, seed=0, inflate=inflate, jitter=0.05, unsafe=True)
    report = certify(cfg, make_testbed(cfg).packing)
    return report["final_volume"], known_optimum_2d(cfg.N, cfg.delta)


def test_one_disk_reaches_the_triangular_optimum():
    volume, v_star = _certified_volume(inflate=0.02)
    assert volume == pytest.approx(v_star, rel=1e-15, abs=0.0)


def test_one_loose_disk_reaches_the_triangular_optimum():
    volume, v_star = _certified_volume(inflate=0.3)
    assert volume == pytest.approx(v_star, rel=1e-9, abs=0.0)
