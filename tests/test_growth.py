"""Growth checks that count executed bytecodes instead of timing.

Each check runs a stage of the table in ``tests/stages.py`` at n = 50 and
n = 200 under ``sys.settrace`` with opcode events on and compares the
counts. A linear stage reads about 4, a quadratic one about 16. The counts
are deterministic after one warm-up call, so unlike the timing checks in
``test_complexity.py``, which time ten stages of the same table, these run
in the default suite. Work done in C, such as a set difference over dict
keys, does not show up here; the timing checks still cover it.
"""

from __future__ import annotations

import sys

import pytest

from stages import STAGES

SMALL, LARGE = 50, 200
BOUND = 4.5


def executed_opcodes(run) -> int:
    """The number of bytecodes ``run()`` executes, callees included."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        else:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def opcode_growth(make_run) -> float:
    """opcodes(LARGE) / opcodes(SMALL), each counted after one warm-up call.

    The warm-up runs traced too: it fills caches, and on Python 3.12 and
    later a code object's first traced call can report fewer opcodes.
    """
    counts = {}
    for n in (SMALL, LARGE):
        run = make_run(n)
        executed_opcodes(run)
        counts[n] = executed_opcodes(run)
    return counts[LARGE] / counts[SMALL]


@pytest.mark.parametrize("make_run", STAGES.values(), ids=list(STAGES))
def test_executed_bytecodes_grow_linearly(make_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert opcode_growth(make_run) < BOUND
