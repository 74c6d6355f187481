"""Two fuzz witnesses at n = 6, f = 1, pinned until their verdicts are in.

``python -m repro fuzz --trials 1800 --n 6 --f 1`` finds one witness at
``--seed 4`` and one at ``--seed 10``, so the benchmark's ``sim_fuzz``
workload reports ``"correct": false`` at those seeds. Both recipes start
from corrupted state, and both fail the post-fault suffix. They fail in
different ways:

* **Seed 10, recipe seed 138373971** (forging, 4 clients × 5 ops): a
  ``write-order`` constraint cycle. This is ROADMAP item 1's class, the
  seed=340 shape of ``tests/spec/test_mwmr_write_order.py``.
* **Seed 4, recipe seed 255547577** (inflating, 2 clients × 8 ops,
  latency 0.22–0.81, strike at 13.0, severity 0.63): a ``validity``
  violation after the anchor. Read Op#10 [17.68–19.97] returns
  ``c0.w1`` (written 3.64–6.06), although ``c1.w2`` completed after that
  write and before the read, and so did the anchor ``c0.w4`` (13.50–15.69).
  Two sequential clients cannot form item 1's three-writer cycle, so this
  is a second class: a stale value returned after stabilization. The
  mechanism: the read overlaps ``c1.w5``, so its five replies split 2
  (``c0.w4``) / 2 (``c1.w5``) / 1 (the inflating replica) and the local
  graph has no node with 2f + 1 witnesses. The union-graph fallback then
  folds in the reader's ``recent_vals``, windows kept from earlier reads,
  where ``c0.w1`` has three witnesses. Both ``c0.w4`` (5 witnesses) and
  ``c0.w1`` qualify, but ``c0.w4``'s bounded label ⟨4|{0,1,2,3,9,12,43}⟩
  precedes ``c0.w1``'s ⟨10|{0,1,2,3,4,6,8}⟩: its writer dominated only
  the labels it collected (``c0.w3``'s), not one three writes back. So
  ``c0.w1`` is the only terminal qualified node and wins. Stale history
  compared beyond the labels' domination window, not a write cycle.

Each ``*_stabilizes`` test is ``xfail(strict=True)``: the day the protocol
or the checker changes enough for the recipe to pass, the xfail fails and
forces the verdict to be written down. The ``*_shape`` tests pin the
violation as it looks today, so unrelated work cannot silently change the
evidence.
"""

from __future__ import annotations

import pytest

from repro.harness import fuzz
from repro.harness.fuzz import TrialRecipe, run_trial

SEED4_VALIDITY = TrialRecipe(
    seed=255547577,
    n=6,
    f=1,
    n_clients=2,
    ops_per_client=8,
    workload="mixed",
    strategy="inflating",
    latency=(0.22, 0.81),
    corrupt_at_start=True,
    strike_times=(13.0,),
    strike_severity=0.63,
)

SEED10_WRITE_ORDER = TrialRecipe(
    seed=138373971,
    n=6,
    f=1,
    n_clients=4,
    ops_per_client=5,
    workload="mixed",
    strategy="forging",
    latency=(0.97, 1.99),
    corrupt_at_start=True,
    strike_times=(),
    strike_severity=0.66,
)


def _suffix_violations(monkeypatch, recipe: TrialRecipe) -> list:
    reports = []
    real = fuzz.evaluate_stabilization

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(fuzz, "evaluate_stabilization", spy)
    witness = run_trial(recipe)
    assert witness is not None and witness.kind == "not-stabilized"
    (report,) = reports
    return report.suffix_verdict.violations


@pytest.mark.xfail(
    strict=True,
    reason="validity violation after stabilization with an inflating "
    "replica; second class beside ROADMAP item 1, verdict pending",
)
def test_seed4_recipe_stabilizes() -> None:
    assert run_trial(SEED4_VALIDITY) is None


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: write-order cycle among concurrent MWMR "
    "writes; verdict pending",
)
def test_seed10_recipe_stabilizes() -> None:
    assert run_trial(SEED10_WRITE_ORDER) is None


def test_seed4_violation_shape(monkeypatch) -> None:
    (violation,) = _suffix_violations(monkeypatch, SEED4_VALIDITY)
    assert violation.clause == "validity"
    assert violation.detail.startswith("Op#10[c0 read()->'c0.w1' ok 17.68-19.97]")
    assert "Op#2[c0 write('c0.w1') ok 3.64-6.06]" in violation.detail


def test_seed10_violation_shape(monkeypatch) -> None:
    (violation,) = _suffix_violations(monkeypatch, SEED10_WRITE_ORDER)
    assert violation.clause == "write-order"
    assert "constraint cycle" in violation.detail
