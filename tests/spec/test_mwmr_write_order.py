"""ROADMAP item 1: the seed=340 MWMR write-order divergence, pinned.

``RegisterSystem(n=6, f=1, seed=340, n_clients=3,
adversary=UniformLatencyAdversary(0.5, 2.421875))`` driving
``mixed_scripts(ops_per_client=6)`` yields a clean-start execution
(no faults, no Byzantine servers) in which two writes both complete and
two subsequent reads return them in opposite orders — a write-order
constraint cycle under both the sweep and the naive checker.

**The open question this file documents** (and the xfail below keeps
open): is that

(a) a genuine protocol bug in the MWMR extension (Section IV-D) — the
    writer-id tiebreak fails to impose one order on concurrent writes
    that readers then observe consistently; or
(b) the checker enforcing a *stronger* MWMR-regularity variant than the
    protocol promises? Our checker demands a single total write order
    shared by *all* reads. The MWMR-regularity family has several
    inequivalent definitions (cf. the multi-writer generalizations
    surveyed around weak/regular registers), and under the weaker
    per-read variants a new/old inversion between concurrent readers —
    exactly the shape E11 already exhibits for atomicity — is legal.

Until one side is argued through (fix the protocol, or parameterize the
checker by variant and document which variant the paper's claims need),
this divergence must stay visible, not quietly tolerated:

* ``test_seed340_not_yet_mwmr_regular`` is ``xfail(strict=True)``: the
  day the protocol or the checker changes enough that the execution
  passes, the xfail *fails* and forces this docstring's verdict to be
  written.
* ``test_seed340_divergence_shape_is_stable`` pins what the divergence
  looks like today — exactly one write-order violation, identically
  from both checker algorithms — so unrelated checker work cannot
  silently change the evidence while the question is open.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import SystemConfig
from repro.core.register import RegisterSystem
from repro.sim.adversary import UniformLatencyAdversary
from repro.workloads import mixed_scripts, run_scripts


def _reproducer() -> RegisterSystem:
    system = RegisterSystem(
        SystemConfig(n=6, f=1),
        seed=340,
        n_clients=3,
        adversary=UniformLatencyAdversary(0.5, 2.421875),
    )
    scripts = mixed_scripts(
        list(system.clients), random.Random(340), ops_per_client=6
    )
    run_scripts(system, scripts)
    return system


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: write-order cycle under the single-total-order "
    "MWMR-regularity reading; protocol-bug-vs-spec-variant verdict pending",
)
def test_seed340_not_yet_mwmr_regular() -> None:
    verdict = _reproducer().check_regularity()
    assert verdict.ok, [v.detail for v in verdict.violations]


def test_seed340_divergence_shape_is_stable() -> None:
    system = _reproducer()
    for algorithm in ("sweep", "naive"):
        verdict = system.check_regularity(algorithm=algorithm)
        assert not verdict.ok
        assert [v.clause for v in verdict.violations] == ["write-order"]
        (violation,) = verdict.violations
        assert "constraint cycle" in violation.detail
