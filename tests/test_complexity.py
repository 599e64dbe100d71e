"""Growth checks: quadrupling the input must not multiply the time by 6 or more.

A linear stage reads about 4, a quadratic one about 16. These tests time
real work, so they run only on request and stay out of the default run:

    PYTHONPATH=src python -m pytest -m complexity tests/test_complexity.py

The stages come from the table in ``tests/stages.py``, which
``tests/test_growth.py`` also runs, counting bytecodes instead of time.
"""

from __future__ import annotations

import time

import pytest

from stages import STAGES

pytestmark = pytest.mark.complexity

SMALL, LARGE = 250, 1000
BOUND = 6.0
REPEATS = 3

TIMED = [
    "build_table",
    "trace_pathway",
    "parse_model-fast",
    "parse_model-comment-run",
    "parse_scenarios-fast",
    "validate_model",
    "model_fingerprint",
    "enumerate_ucas",
    "render_json-effect_to_cause",
    "ledger_load-open",
]


def growth(make_run) -> float:
    """t(LARGE) / t(SMALL), each the best of REPEATS runs.

    The two sizes take turns, so a slow stretch of a shared host slows both.
    """
    runs = {LARGE: make_run(LARGE), SMALL: make_run(SMALL)}
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(REPEATS):
        for n, run in runs.items():
            start = time.perf_counter()
            run()
            best[n] = min(best[n], time.perf_counter() - start)
    return best[LARGE] / best[SMALL]


@pytest.mark.parametrize("stage", TIMED)
def test_time_grows_linearly(stage, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert growth(STAGES[stage]) < BOUND
