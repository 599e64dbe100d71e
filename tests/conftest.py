from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from stpa_loc import catalog as catalog_mod
from stpa_loc.cli import main as cli_main
from stpa_loc.dsl import parse_model, parse_scenarios
from stpa_loc.model import has_errors

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "stpa_loc" / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MODEL_PATH = DATA_DIR / "chat_monitoring.stpa"
SCENARIOS_PATH = DATA_DIR / "chat_monitoring_scenarios.stpa"


# A one-loop model with two losses; the ``host`` fixture parses it.
HOST_SOURCE = """
system "host" {
  controller C
  process P {contains_ai: true}
  loss L-1 "a loss"
  loss L-2 "b loss"
  hazard H-1 "a hazard" leads_to L-1, L-2
  control_action CA-1 "act" from C to P
  annotate CA-1 not_provided context "idle" hazards H-1
}
"""

# The same loop with one loss: a model file for the CLI and a host for scenario files.
TINY_MODEL = """
system "host" {
  controller C
  process P {contains_ai: true}
  loss L-1 "a loss"
  hazard H-1 "a hazard" leads_to L-1
  control_action CA-1 "act" from C to P
  annotate CA-1 not_provided context "idle" hazards H-1
}
"""

# A catalog file's header and one well-formed row.
CATALOG_HEADER = (
    "id\tlifecycle\thazard\tcontrol_action\tscenario_type\tsub_types"
    "\tcausal_factors\tdetail\tai_characteristics\tai_characteristics_text"
    "\torigin_component\tsource"
)

CATALOG_ROW = (
    "X-01\toperations\tsome hazard\tsome action\ttype_a\tnot_provided"
    "\tinadequate_control_algorithm\tcontroller ignores drift\tagency"
    "\tAgent acts on its own.\tcontroller\ttable4"
)


@pytest.fixture(scope="module")
def host():
    model, diags = parse_model(HOST_SOURCE)
    assert diags == []
    return model


@pytest.fixture(scope="session")
def fixture_model():
    model, diags = parse_model(MODEL_PATH.read_text(encoding="utf-8"), file=str(MODEL_PATH))
    assert not has_errors(diags)
    return model


@pytest.fixture(scope="session")
def fixture_scenarios(fixture_model):
    scenarios, diags = parse_scenarios(
        SCENARIOS_PATH.read_text(encoding="utf-8"), fixture_model, file=str(SCENARIOS_PATH)
    )
    assert not has_errors(diags)
    return scenarios


@pytest.fixture(scope="session")
def bundled_catalog():
    return catalog_mod.load_catalog()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()
