"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins. The criteria implementations (and their pinned
tolerances) live in hologossip.acceptance and also back ``hologossip verify``.
"""

import pytest

from hologossip import acceptance, engine
from hologossip.acceptance import CRITERIA


@pytest.mark.parametrize(
    "crit",
    CRITERIA,
    ids=[f"criterion_{c.number:02d}_{c.name.replace(' ', '_')}" for c in CRITERIA],
)
def test_acceptance_criterion(crit):
    result = crit.fn()
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {crit.number} ({crit.name}): {status} [{result.detail}]")
    assert result.passed, f"criterion {crit.number} ({crit.name}): {result.detail}"


@pytest.mark.parametrize("edit", ["short trace", "row at the floor"])
def test_min_entry_floor_fails_on_a_short_trace_or_a_row_at_the_floor(monkeypatch, edit):
    # criterion 8 reads the trace of run: one row per step, each min_entry > epsilon
    def run(ws, schedule, opts):
        report = engine.run(ws, schedule, opts)
        if edit == "short trace":
            report.trace.pop()
        else:
            report.trace[-1] = report.trace[-1]._replace(min_entry=report.epsilon)
        return report

    monkeypatch.setattr(acceptance, "run", run)
    result = acceptance.criterion_min_entry_floor()
    assert not result.passed and result.detail == "case 0: floor violated"
