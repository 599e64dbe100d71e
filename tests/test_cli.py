from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from collections import Counter

import pytest

from conftest import GOLDEN_DIR, MODEL_PATH, SCENARIOS_PATH, run_cli
from stpa_loc.catalog import load_catalog
from stpa_loc.cli import main as cli_main

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

NO_ACTION_MODEL = """
system "quiet" {
  controller C
  process P
}
"""

BROKEN_MODEL = """
system "broken" {
  process P
  loss L-1 "a loss"
}
"""

WARN_MODEL = """
system "warned" {
  controller C
  process P
  loss L-1 "a loss"
  hazard H-1 "a hazard" leads_to L-1
  control_action CA-1 "act" from C to P
  annotate CA-1 not_provided context "idle" hazards H-1
  hazard H-2 "b hazard" leads_to L-1
}
"""

DANGLING_ORIGIN_SCENARIOS = """
scenarios "bad refs" {
  scenario S-1 {
    origin: GHOST
    type: type_b
    sub_types: not_executed
    factors: delay
    description: "origin nobody declared"
  }
}
"""

DANGLING_UCA_SCENARIOS = """
scenarios "bad refs" {
  scenario S-1 {
    origin: C
    uca: CA-9-not_provided
    type: type_a
    sub_types: not_provided
    factors: inadequate_control_algorithm
    description: "points at a control action nobody declared"
  }
}
"""

CUSTOM_CATALOG_HEADER = (
    "id\tlifecycle\thazard\tcontrol_action\tscenario_type\tsub_types"
    "\tcausal_factors\tdetail\tai_characteristics\tai_characteristics_text"
    "\torigin_component\tsource"
)

CUSTOM_CATALOG_ROW = (
    "X-01\toperations\tsome hazard\tsome action\ttype_a\tnot_provided"
    "\tinadequate_control_algorithm\tcontroller ignores drift\tagency"
    "\tAgent acts on its own.\tcontroller\ttable4"
)

UCA_HEADER = ["id", "control_action", "uca_type", "context", "hazards", "status"]
UCA_TYPE_TOKENS = ["not_provided", "provided_causes_hazard", "wrong_time_or_order", "wrong_duration"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# --- usage errors ------------------------------------------------------------


def test_no_command_is_usage_error():
    code, out, err = run_cli([])
    assert code == 2
    assert out == ""
    assert "usage:" in err


def test_unknown_command_is_usage_error():
    code, _, err = run_cli(["frobnicate"])
    assert code == 2
    assert "invalid choice" in err


def test_help_exits_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "usage: stpa-loc" in out


def test_bad_direction_is_usage_error():
    code, _, _ = run_cli(["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--direction", "sideways"])
    assert code == 2


def test_bad_format_is_usage_error():
    code, _, _ = run_cli(["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--format", "yaml"])
    assert code == 2


def test_bad_characteristic_token_is_usage_error():
    code, _, err = run_cli(["prompts", str(MODEL_PATH), "--characteristic", "nonsense"])
    assert code == 2
    assert "is not an AI characteristic token" in err


def test_bad_timestamp_is_usage_error(tmp_path):
    model = write(tmp_path, "m.stpa", TINY_MODEL)
    ledger = str(tmp_path / "ledger.jsonl")
    code, _, err = run_cli(
        [
            "ledger", "add", ledger, "--model", model,
            "--id", "V-1", "--description", "d", "--component", "P",
            "--severity", "low", "--source", "audit",
            "--opened-at", "not-a-date",
        ]
    )
    assert code == 2
    assert "is not an ISO-8601 timestamp" in err


def test_bad_severity_is_usage_error(tmp_path):
    model = write(tmp_path, "m.stpa", TINY_MODEL)
    ledger = str(tmp_path / "ledger.jsonl")
    code, _, _ = run_cli(
        [
            "ledger", "add", ledger, "--model", model,
            "--id", "V-1", "--description", "d", "--component", "P",
            "--severity", "catastrophic", "--source", "audit",
        ]
    )
    assert code == 2


def test_ledger_requires_subcommand():
    code, _, _ = run_cli(["ledger"])
    assert code == 2


# --- validate -----------------------------------------------------------------


def test_validate_clean_model():
    assert run_cli(["validate", str(MODEL_PATH)]) == (0, "", "")


def test_validate_reports_errors_on_stderr(tmp_path):
    model = write(tmp_path, "broken.stpa", BROKEN_MODEL)
    code, out, err = run_cli(["validate", model])
    assert code == 1
    assert out == ""
    assert "MissingController" in err
    assert "broken.stpa" in err


def test_validate_warnings_do_not_fail(tmp_path):
    model = write(tmp_path, "warned.stpa", WARN_MODEL)
    code, out, err = run_cli(["validate", model])
    assert code == 0
    assert out == ""
    assert "UnlinkedHazard" in err


def test_validate_unparseable_model(tmp_path):
    model = write(tmp_path, "noise.stpa", "bang bang bang")
    code, _, err = run_cli(["validate", model])
    assert code == 1
    assert "UnexpectedToken" in err


def test_validate_missing_file_is_io_error(tmp_path):
    code, out, err = run_cli(["validate", str(tmp_path / "absent.stpa")])
    assert code == 3
    assert out == ""
    assert err.startswith("stpa-loc: error:")



@pytest.mark.parametrize("target", ["model", "scenarios", "catalog"])
def test_non_utf8_input_is_io_error(tmp_path, monkeypatch, target):
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b'system "x" {\xff}\n')
    model = write(tmp_path, "m.stpa", TINY_MODEL)
    argv = {
        "model": ["validate", str(undecodable)],
        "scenarios": ["report", model, str(undecodable)],
        "catalog": ["prompts", model],
    }[target]
    monkeypatch.setenv("STPA_LOC_CATALOG", str(undecodable))  # read by prompts only
    code, out, err = run_cli(argv)
    assert (code, out) == (3, "")
    assert err.startswith("stpa-loc: error:")
    assert "not UTF-8 text" in err
    assert "Traceback" not in err

# --- ucas ---------------------------------------------------------------------


def test_ucas_header_and_shape():
    code, out, err = run_cli(["ucas", str(MODEL_PATH)])
    assert (code, err) == (0, "")
    rows = csv_rows(out)
    assert rows[0] == UCA_HEADER
    assert len(rows) == 21
    statuses = Counter(row[5] for row in rows[1:])
    assert statuses == {"confirmed": 4, "candidate": 16}
    for row in rows[1:]:
        if row[5] == "confirmed":
            assert row[0].startswith("CA-1-")
            assert row[4] != ""
        else:
            assert (row[3], row[4]) == ("", "")


def test_ucas_rows_follow_declaration_then_type_order():
    _, out, _ = run_cli(["ucas", str(MODEL_PATH)])
    rows = csv_rows(out)[1:]
    for i in range(0, len(rows), 4):
        chunk = rows[i : i + 4]
        assert [row[2] for row in chunk] == UCA_TYPE_TOKENS
        prefixes = {row[0][: -(len(row[2]) + 1)] for row in chunk}
        assert len(prefixes) == 1
        prefix = prefixes.pop()
        assert [row[0] for row in chunk] == [f"{prefix}-{token}" for token in UCA_TYPE_TOKENS]


def test_ucas_hazard_cells_sorted():
    _, out, _ = run_cli(["ucas", str(MODEL_PATH)])
    cells = [row[4] for row in csv_rows(out)[1:] if row[4]]
    assert cells
    for cell in cells:
        parts = cell.split(";")
        assert parts == sorted(parts)


def test_ucas_confirmed_only_is_a_filtered_view():
    _, full, _ = run_cli(["ucas", str(MODEL_PATH)])
    code, out, err = run_cli(["ucas", str(MODEL_PATH), "--confirmed-only"])
    assert (code, err) == (0, "")
    rows = csv_rows(out)
    assert len(rows) == 5
    full_rows = csv_rows(full)
    assert rows == [full_rows[0]] + [row for row in full_rows[1:] if row[5] == "confirmed"]


def test_ucas_without_control_actions_prints_header_only(tmp_path):
    model = write(tmp_path, "quiet.stpa", NO_ACTION_MODEL)
    code, out, err = run_cli(["ucas", model])
    assert (code, err) == (0, "")
    assert out == "id,control_action,uca_type,context,hazards,status\n"


def test_ucas_invalid_model_fails(tmp_path):
    model = write(tmp_path, "broken.stpa", BROKEN_MODEL)
    code, out, _ = run_cli(["ucas", model])
    assert code == 1
    assert out == ""


# --- prompts ------------------------------------------------------------------


def split_prompt_lines(out):
    lines = out.splitlines()
    fields = [line.split("\t") for line in lines]
    assert all(len(f) == 3 for f in fields)
    return fields


def test_prompts_shape_and_order():
    code, out, err = run_cli(["prompts", str(MODEL_PATH)])
    assert (code, err) == (0, "")
    fields = split_prompt_lines(out)
    assert len(fields) == 36
    assert fields == sorted(fields, key=lambda f: (f[1], f[0]))
    assert Counter(f[1] for f in fields) == {
        "HumanController": 22,
        "ChatMonitor": 11,
        "Sampler": 2,
        "Overseer": 1,
    }
    for ref, _, question in fields:
        assert question.startswith("Could ")
        assert question.endswith("?")
        assert ref[:3] in ("A3-", "B4-")


def test_prompts_component_filter():
    _, full, _ = run_cli(["prompts", str(MODEL_PATH)])
    code, out, err = run_cli(["prompts", str(MODEL_PATH), "--component", "HumanController"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        line for line in full.splitlines() if line.split("\t")[1] == "HumanController"
    ]
    assert len(out.splitlines()) == 22


def test_prompts_unknown_component_prints_nothing():
    code, out, err = run_cli(["prompts", str(MODEL_PATH), "--component", "Nobody"])
    assert (code, out, err) == (0, "", "")


def test_prompts_characteristic_filter():
    cat = load_catalog()
    agency_refs = {e.id for e in cat.entries if "agency" in {c.token for c in e.ai_characteristics}}
    _, full, _ = run_cli(["prompts", str(MODEL_PATH)])
    code, out, err = run_cli(["prompts", str(MODEL_PATH), "--characteristic", "agency"])
    assert (code, err) == (0, "")
    expected = [line for line in full.splitlines() if line.split("\t")[0] in agency_refs]
    assert out.splitlines() == expected
    assert expected  # the bundled rows do mention agency


def test_prompts_env_override(tmp_path, monkeypatch):
    catalog_path = write(tmp_path, "cat.tsv", CUSTOM_CATALOG_HEADER + "\n" + CUSTOM_CATALOG_ROW + "\n")
    model = write(tmp_path, "m.stpa", TINY_MODEL)
    monkeypatch.setenv("STPA_LOC_CATALOG", catalog_path)
    code, out, err = run_cli(["prompts", model])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("X-01\tC\tCould controller ignores drift arise for ")
    assert lines[0].endswith("given Agent acts on its own.?")


def test_prompts_env_override_bad_catalog_is_io_error(tmp_path, monkeypatch):
    catalog_path = write(tmp_path, "cat.tsv", "not\ta\tcatalog\n")
    model = write(tmp_path, "m.stpa", TINY_MODEL)
    monkeypatch.setenv("STPA_LOC_CATALOG", catalog_path)
    code, out, err = run_cli(["prompts", model])
    assert code == 3
    assert out == ""
    assert err.startswith("stpa-loc: error: bad catalog:")


def test_prompts_env_override_missing_file_is_io_error(tmp_path, monkeypatch):
    model = write(tmp_path, "m.stpa", TINY_MODEL)
    monkeypatch.setenv("STPA_LOC_CATALOG", str(tmp_path / "absent.tsv"))
    code, _, err = run_cli(["prompts", model])
    assert code == 3
    assert err.startswith("stpa-loc: error:")


# --- report -------------------------------------------------------------------


def test_report_effect_to_cause_matches_golden():
    code, out, err = run_cli(["report", str(MODEL_PATH), str(SCENARIOS_PATH)])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "effect_to_cause.csv").read_text(encoding="utf-8")


def test_report_cause_to_effect_matches_golden():
    code, out, err = run_cli(
        ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--direction", "cause-to-effect"]
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "cause_to_effect.csv").read_text(encoding="utf-8")


def test_report_markdown_shape():
    code, out, err = run_cli(["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--format", "md"])
    assert (code, err) == (0, "")
    assert out.endswith("\n")
    lines = out.splitlines()
    assert len(lines) == 15
    header = [cell.strip() for cell in lines[0].strip().strip("|").split(" | ")]
    assert header[0] == "Lifecycle phase (control loop identifier)"
    assert header[-1] == "Key characteristics of AI underlying causal factor(s)"
    separator = [cell.strip() for cell in lines[1].strip().strip("|").split("|")]
    assert set(separator) == {"---"}
    assert all(line.startswith("|") and line.endswith("|") for line in lines)


E2C_KEYS = [
    "lifecycle_phase",
    "hazard",
    "control_action",
    "loss_scenario_type",
    "loss_scenario_sub_type",
    "causal_factor_types",
    "loss_scenario_description",
    "key_characteristics_of_ai",
]

C2E_KEYS = [
    "lifecycle_phase",
    "key_characteristics_of_ai",
    "loss_scenario_description",
    "causal_factor_types",
    "loss_scenario_sub_type",
    "loss_scenario_type",
    "control_action",
    "hazard",
]


def test_report_json_structure():
    code, out, err = run_cli(["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert list(payload.keys()) == ["model_fingerprint", "direction", "rows"]
    assert payload["direction"] == "effect_to_cause"
    assert len(payload["model_fingerprint"]) == 64
    assert len(payload["rows"]) == 13
    assert all(list(row.keys()) == E2C_KEYS for row in payload["rows"])


def test_report_json_key_order_tracks_direction():
    _, out, _ = run_cli(
        [
            "report", str(MODEL_PATH), str(SCENARIOS_PATH),
            "--direction", "cause-to-effect", "--format", "json", "--include-loss",
        ]
    )
    payload = json.loads(out)
    assert payload["direction"] == "cause_to_effect"
    assert all(list(row.keys()) == C2E_KEYS + ["loss"] for row in payload["rows"])


def test_report_include_loss_column_positions():
    code, out, err = run_cli(["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--include-loss"])
    assert (code, err) == (0, "")
    rows = csv_rows(out)
    assert rows[0][1] == "Loss"
    assert len(rows[0]) == 9
    assert all(row[1] not in ("", "N/A") for row in rows[1:])

    _, out, _ = run_cli(
        [
            "report", str(MODEL_PATH), str(SCENARIOS_PATH),
            "--direction", "cause-to-effect", "--include-loss",
        ]
    )
    rows = csv_rows(out)
    assert rows[0][-1] == "Loss"
    assert rows[0][-2] == "Hazard"


def test_report_scenario_parse_error_exits_invalid(tmp_path):
    scenarios = write(tmp_path, "s.stpa", DANGLING_ORIGIN_SCENARIOS)
    code, out, err = run_cli(["report", str(MODEL_PATH), scenarios])
    assert code == 1
    assert out == ""
    assert "DanglingComponentRef" in err


def test_report_dangling_uca_reference_exits_invalid(tmp_path):
    model = write(tmp_path, "m.stpa", TINY_MODEL)
    scenarios = write(tmp_path, "s.stpa", DANGLING_UCA_SCENARIOS)
    code, out, err = run_cli(["report", model, scenarios])
    assert code == 1
    assert out == ""
    assert err.startswith("stpa-loc: error:")


def test_report_missing_scenarios_file_is_io_error(tmp_path):
    code, _, err = run_cli(["report", str(MODEL_PATH), str(tmp_path / "absent.stpa")])
    assert code == 3
    assert err.startswith("stpa-loc: error:")


# --- ledger -------------------------------------------------------------------

OPENED = "2026-01-01T09:00:00+00:00"
CLOSED = "2026-01-02T09:00:00+00:00"


def add_args(ledger, model, record_id="V-1", component="P", severity="high", opened=OPENED):
    return [
        "ledger", "add", ledger, "--model", model,
        "--id", record_id, "--description", "drift unpatched",
        "--component", component, "--severity", severity,
        "--source", "audit", "--opened-at", opened,
    ]


@pytest.fixture()
def ledger_env(tmp_path):
    model = write(tmp_path, "m.stpa", TINY_MODEL)
    return str(tmp_path / "ledger.jsonl"), model


def read_records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_ledger_add_writes_record(ledger_env, tmp_path):
    ledger, model = ledger_env
    code, out, err = run_cli(add_args(ledger, model))
    assert (code, out, err) == (0, "", "")
    assert read_records(ledger) == [
        {
            "id": "V-1",
            "description": "drift unpatched",
            "component": "P",
            "severity": "high",
            "opened_at": OPENED,
            "closed_at": None,
            "source": "audit",
        }
    ]


def test_ledger_add_appends_second_record(ledger_env):
    ledger, model = ledger_env
    assert run_cli(add_args(ledger, model))[0] == 0
    assert run_cli(add_args(ledger, model, record_id="V-2", component="C", severity="low"))[0] == 0
    assert [r["id"] for r in read_records(ledger)] == ["V-1", "V-2"]


def test_ledger_add_duplicate_id_fails(ledger_env):
    ledger, model = ledger_env
    assert run_cli(add_args(ledger, model))[0] == 0
    code, _, err = run_cli(add_args(ledger, model))
    assert code == 1
    assert err.startswith("stpa-loc: error:")
    assert len(read_records(ledger)) == 1


def test_ledger_add_unknown_component_fails(ledger_env):
    ledger, model = ledger_env
    code, _, err = run_cli(add_args(ledger, model, component="Ghost"))
    assert code == 1
    assert err.startswith("stpa-loc: error:")


def test_ledger_resolve_sets_closed_at(ledger_env):
    ledger, model = ledger_env
    run_cli(add_args(ledger, model))
    code, out, err = run_cli(
        ["ledger", "resolve", ledger, "--model", model, "--id", "V-1", "--closed-at", CLOSED]
    )
    assert (code, out, err) == (0, "", "")
    assert read_records(ledger)[0]["closed_at"] == CLOSED


def test_ledger_resolve_unknown_record_fails(ledger_env):
    ledger, model = ledger_env
    run_cli(add_args(ledger, model))
    code, _, err = run_cli(
        ["ledger", "resolve", ledger, "--model", model, "--id", "V-9", "--closed-at", CLOSED]
    )
    assert code == 1
    assert err.startswith("stpa-loc: error:")


def test_ledger_resolve_rejects_close_before_open(ledger_env):
    ledger, model = ledger_env
    run_cli(add_args(ledger, model))
    code, _, _ = run_cli(
        [
            "ledger", "resolve", ledger, "--model", model,
            "--id", "V-1", "--closed-at", "2025-12-31T00:00:00+00:00",
        ]
    )
    assert code == 1
    assert read_records(ledger)[0]["closed_at"] is None


def test_ledger_naive_timestamps_become_utc(ledger_env):
    ledger, model = ledger_env
    code, _, _ = run_cli(add_args(ledger, model, opened="2026-01-01T09:00:00"))
    assert code == 0
    assert read_records(ledger)[0]["opened_at"] == OPENED


def test_ledger_exposure_json(ledger_env):
    ledger, model = ledger_env
    run_cli(add_args(ledger, model))
    run_cli(add_args(ledger, model, record_id="V-2", component="C", severity="low",
                     opened="2026-01-01T10:00:00+00:00"))
    code, out, err = run_cli(
        ["ledger", "exposure", ledger, "--model", model, "--as-of", "2026-01-01T12:00:00+00:00"]
    )
    assert (code, err) == (0, "")
    expected = {
        "by_component": {"C": ["V-2"], "P": ["V-1"]},
        "open_count": 2,
        "weighted": 10,
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_ledger_exposure_excludes_resolved(ledger_env):
    ledger, model = ledger_env
    run_cli(add_args(ledger, model))
    run_cli(add_args(ledger, model, record_id="V-2", component="C", severity="low",
                     opened="2026-01-01T10:00:00+00:00"))
    run_cli(["ledger", "resolve", ledger, "--model", model, "--id", "V-1", "--closed-at", CLOSED])
    code, out, _ = run_cli(
        ["ledger", "exposure", ledger, "--model", model, "--as-of", "2026-01-02T12:00:00+00:00"]
    )
    assert code == 0
    assert json.loads(out) == {"by_component": {"C": ["V-2"]}, "open_count": 1, "weighted": 1}


def test_ledger_bad_file_is_io_error(ledger_env, tmp_path):
    ledger, model = ledger_env
    write(tmp_path, "ledger.jsonl", "not json\n")
    code, _, err = run_cli(["ledger", "exposure", ledger, "--model", model])
    assert code == 3
    assert err.startswith("stpa-loc: error: bad ledger file:")



def test_ledger_malformed_lines_are_io_errors(ledger_env, tmp_path):
    ledger, model = ledger_env
    wrong_type = {
        "id": "V-1", "description": "d", "component": "P", "severity": "low",
        "opened_at": 5, "closed_at": None, "source": "audit",
    }
    for line in ["1", "[]", json.dumps(wrong_type)]:
        write(tmp_path, "ledger.jsonl", line + "\n")
        code, out, err = run_cli(["ledger", "exposure", ledger, "--model", model])
        assert (code, out) == (3, ""), line
        assert err.startswith("stpa-loc: error: bad ledger file:"), line

def test_ledger_foreign_component_in_file_fails(ledger_env, tmp_path):
    ledger, model = ledger_env
    run_cli(add_args(ledger, model))
    other = write(tmp_path, "other.stpa", NO_ACTION_MODEL.replace("process P", "process Q"))
    code, _, err = run_cli(["ledger", "exposure", ledger, "--model", other])
    assert code == 1
    assert err.startswith("stpa-loc: error:")


def test_ledger_invalid_model_fails(ledger_env, tmp_path):
    ledger, _ = ledger_env
    broken = write(tmp_path, "broken.stpa", BROKEN_MODEL)
    code, _, err = run_cli(add_args(ledger, broken))
    assert code == 1
    assert "MissingController" in err


# --- determinism ----------------------------------------------------------------


READ_ONLY_COMMANDS = [
    ["validate", str(MODEL_PATH)],
    ["ucas", str(MODEL_PATH)],
    ["ucas", str(MODEL_PATH), "--confirmed-only"],
    ["prompts", str(MODEL_PATH)],
    ["prompts", str(MODEL_PATH), "--characteristic", "agency"],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH)],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--direction", "cause-to-effect"],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--format", "md"],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--format", "json", "--include-loss"],
]


@pytest.mark.parametrize("argv", READ_ONLY_COMMANDS, ids=lambda argv: " ".join(argv[:1] + argv[3:]))
def test_read_only_commands_are_deterministic(argv):
    assert run_cli(argv) == run_cli(argv)


def test_closed_stdout_pipe_exits_141_without_traceback(tmp_path):
    model = tmp_path / "m.stpa"
    model.write_text(TINY_MODEL, encoding="utf-8")
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    stream = io.TextIOWrapper(
        os.fdopen(write_fd, "wb"), encoding="utf-8", write_through=True
    )
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stderr):
            code = cli_main(["prompts", str(model)])
    finally:
        with contextlib.suppress(OSError):
            stream.close()
    assert code == 141
    assert stderr.getvalue() == ""
