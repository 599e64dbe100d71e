from __future__ import annotations

import contextlib
import csv
import errno
import importlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import CATALOG_HEADER, CATALOG_ROW, DATA_DIR, GOLDEN_DIR, MODEL_PATH, SCENARIOS_PATH, TINY_MODEL, run_cli
from strategies import READ_ONLY_COMMANDS, byte_edits, mutate
from stpa_loc import analysis
from stpa_loc.catalog import load_catalog
from stpa_loc.cli import main as cli_main

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


def test_validate_prints_every_broken_link_as_the_golden(monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    golden = (GOLDEN_DIR / "broken_links.err").read_text(encoding="utf-8")
    assert run_cli(["validate", "broken_links.stpa"]) == (1, "", golden)


def test_an_illegal_pairing_names_one_sub_type_whatever_the_hash_seed():
    argv = [sys.executable, "-m", "stpa_loc.cli", "report", str(MODEL_PATH), str(GOLDEN_DIR / "illegal_pairing.stpa")]
    runs = [
        subprocess.run(
            argv, env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(analysis.__file__).parent.parent)),
            capture_output=True, timeout=60,
        )
        for seed in ("0", "1")
    ]
    assert [(done.returncode, done.stdout) for done in runs] == [(1, b"")] * 2
    assert runs[0].stderr == runs[1].stderr
    assert b": scenario S-1: sub-type not_executed is not legal for type_a\n" in runs[0].stderr


def test_validate_unparseable_model(tmp_path):
    model = write(tmp_path, "noise.stpa", "bang bang bang")
    code, _, err = run_cli(["validate", model])
    assert code == 1
    assert "UnexpectedToken" in err


def test_text_after_the_closing_brace_is_an_error(tmp_path):
    model = write(tmp_path, "trailing.stpa", MODEL_PATH.read_text(encoding="utf-8") + 'loss L-99 "dropped"\n')
    line = MODEL_PATH.read_text(encoding="utf-8").count("\n") + 1
    code, out, err = run_cli(["validate", model])
    assert (code, out) == (1, "")
    assert err == f"{model}:{line}:1: error[UnexpectedToken]: expected end of input, found 'loss'\n"


def test_validate_missing_file_is_io_error(tmp_path):
    code, out, err = run_cli(["validate", str(tmp_path / "absent.stpa")])
    assert code == 3
    assert out == ""
    assert err.startswith("stpa-loc: error:")



@pytest.mark.parametrize("target", ["model", "ledger"])
def test_out_of_memory_is_io_error_with_one_line(ledger_env, monkeypatch, target):
    """A file too large to hold, such as /dev/zero, raises MemoryError while it is read."""
    ledger, model = ledger_env
    assert run_cli(add_args(ledger, model))[0] == 0
    before = Path(ledger).read_bytes()

    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr({"model": "stpa_loc.cli._read_text", "ledger": "stpa_loc.analysis._read_records"}[target], exhausted)
    code, out, err = run_cli(add_args(ledger, model, record_id="V-2"))
    assert (code, out, err) == (3, "", "stpa-loc: error: out of memory\n")
    assert Path(ledger).read_bytes() == before


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


BOM = "\ufeff".encode()


@pytest.mark.parametrize(
    "target, code, message",
    [
        ("model", 1, "unexpected character '\\ufeff'"),
        ("scenarios", 1, "unexpected character '\\ufeff'"),
        ("catalog", 3, "row 1: header does not match"),
        ("ledger", 3, "line 1: Unexpected UTF-8 BOM"),
    ],
    ids=["model", "scenarios", "catalog", "ledger"],
)
def test_a_leading_byte_order_mark_is_skipped(tmp_path, monkeypatch, target, code, message):
    """One BOM in front of a file is skipped; a second one is an error, as a BOM anywhere else is."""
    files = {"ledger": tmp_path / "ledger.jsonl"}
    for kind, source in [("model", MODEL_PATH), ("scenarios", SCENARIOS_PATH), ("catalog", DATA_DIR / "catalog.tsv")]:
        files[kind] = tmp_path / source.name
        files[kind].write_bytes(source.read_bytes())
    model, ledger = str(files["model"]), str(files["ledger"])
    assert run_cli(add_args(ledger, model, component="ChatMonitor"))[0] == 0
    monkeypatch.setenv("STPA_LOC_CATALOG", str(files["catalog"]))
    argv = {
        "model": ["ucas", model],
        "scenarios": ["report", model, str(files["scenarios"])],
        "catalog": ["prompts", model],
        "ledger": ["ledger", "exposure", ledger, "--model", model, "--as-of", CLOSED],
    }[target]
    plain = files[target].read_bytes()
    expected = run_cli(argv)
    assert expected[0] == 0
    files[target].write_bytes(BOM + plain)
    assert run_cli(argv) == expected
    files[target].write_bytes(BOM + BOM + plain)
    failed, out, err = run_cli(argv)
    assert (failed, out) == (code, "")
    assert message in err
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
    catalog_path = write(tmp_path, "cat.tsv", CATALOG_HEADER + "\n" + CATALOG_ROW + "\n")
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


# (golden file name ending, extra report arguments): each output format,
# with and without the loss column
GOLDEN_VARIANTS = [
    pytest.param(f"{loss}.{fmt}", ["--format", fmt, *extra], id=fmt + loss.replace("_", "-"))
    for loss, extra in (("", []), ("_loss", ["--include-loss"]))
    for fmt in ("csv", "md", "json")
]


@pytest.mark.parametrize("ending, extra", GOLDEN_VARIANTS)
def test_report_effect_to_cause_matches_golden(ending, extra):
    code, out, err = run_cli(["report", str(MODEL_PATH), str(SCENARIOS_PATH), *extra])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"effect_to_cause{ending}").read_text(encoding="utf-8")


@pytest.mark.parametrize("ending, extra", GOLDEN_VARIANTS)
def test_report_cause_to_effect_matches_golden(ending, extra):
    code, out, err = run_cli(
        ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--direction", "cause-to-effect", *extra]
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"cause_to_effect{ending}").read_text(encoding="utf-8")


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


def test_report_accepts_every_uca_id_that_ucas_prints(tmp_path):
    # a 64-character action id, the longest a model allows, makes UCA ids
    # of up to 87 characters
    action = "CA-" + "x" * 61
    model = write(tmp_path, "m.stpa", TINY_MODEL.replace("CA-1", action))
    code, out, _ = run_cli(["ucas", model])
    assert code == 0
    uca_ids = [row[0] for row in csv_rows(out)[1:]]
    assert max(map(len, uca_ids)) == 87
    scenarios = "".join(
        f"scenario S-{i} {{ origin: C uca: {uca} type: type_a sub_types: not_provided "
        f'factors: delay description: "d" }}\n'
        for i, uca in enumerate(uca_ids)
    )
    scenario_file = write(tmp_path, "s.stpa", f"scenarios {{\n{scenarios}}}\n")
    code, out, err = run_cli(["report", model, scenario_file])
    assert (code, err) == (0, "")
    assert len(csv_rows(out)) == 1 + len(uca_ids)


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


def test_concurrent_ledger_adds_keep_every_record(ledger_env):
    """Writers take turns on the ledger's lock file, so none of four `ledger
    add` processes started at once drops another's record."""
    ledger, model = ledger_env
    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parent.parent))
    added = []
    for batch in range(3):
        ids = [f"V-{batch}-{i}" for i in range(4)]
        writers = [
            subprocess.Popen([sys.executable, "-m", "stpa_loc.cli", *add_args(ledger, model, record_id=id_)], env=env)
            for id_ in ids
        ]
        assert [writer.wait(timeout=60) for writer in writers] == [0] * 4
        added += ids
        assert sorted(r["id"] for r in read_records(ledger)) == sorted(added)


def test_ledger_add_to_missing_directory_is_io_error(ledger_env, tmp_path):
    _, model = ledger_env
    ledger = str(tmp_path / "no" / "such" / "dir" / "ledger.jsonl")
    code, out, err = run_cli(add_args(ledger, model))
    assert (code, out) == (3, "")
    assert err.startswith("stpa-loc: error:")
    assert "ledger.jsonl" in err


@pytest.mark.parametrize("existing", [False, True], ids=["new-ledger", "existing-ledger"])
def test_failed_ledger_lock_is_io_error_that_names_the_ledger(ledger_env, tmp_path, monkeypatch, existing):
    import fcntl

    _, model = ledger_env
    monkeypatch.chdir(tmp_path)
    ledger = "ledger.jsonl"  # as typed: not the lock file, not the resolved path
    if existing:
        assert run_cli(add_args(ledger, model))[0] == 0
    before = Path(ledger).read_bytes() if existing else None

    def refuse(_file, _operation):
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    monkeypatch.setattr(fcntl, "flock", refuse)
    code, out, err = run_cli(add_args(ledger, model, record_id="V-2"))
    assert (code, out) == (3, "")
    assert err == f"stpa-loc: error: [Errno {errno.ENOLCK}] {os.strerror(errno.ENOLCK)}: 'ledger.jsonl'\n"
    assert (Path(ledger).read_bytes() if Path(ledger).exists() else None) == before


def test_ledger_resolve_unwritable_file_is_io_error(ledger_env, monkeypatch):
    ledger, model = ledger_env
    run_cli(add_args(ledger, model))

    def refuse(_ledger, path):
        raise PermissionError(f"[Errno 13] Permission denied: {path!r}")

    monkeypatch.setattr(analysis, "ledger_save", refuse)
    code, out, err = run_cli(
        ["ledger", "resolve", ledger, "--model", model, "--id", "V-1", "--closed-at", CLOSED]
    )
    assert (code, out) == (3, "")
    assert err == f"stpa-loc: error: [Errno 13] Permission denied: {ledger!r}\n"
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



def test_ledger_that_is_a_directory_is_io_error(ledger_env, tmp_path):
    _, model = ledger_env
    ledger = tmp_path / "ledger.d"
    ledger.mkdir()
    code, out, err = run_cli(["ledger", "exposure", str(ledger), "--model", model])
    assert (code, out) == (3, "")
    assert err.startswith("stpa-loc: error: [Errno 21] Is a directory:")


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param('"description": "a\\udcffb"', "ledger field 'description' holds a lone surrogate", id="lone-surrogate"),
        pytest.param('"closed_at": ""', "Invalid isoformat string: ''", id="empty-closed_at"),
    ],
)
def test_ledger_line_that_no_save_could_write_is_io_error(ledger_env, line, message):
    ledger, model = ledger_env
    assert run_cli(add_args(ledger, model))[0] == 0
    field = line.split(":")[0]
    text = Path(ledger).read_text(encoding="utf-8")
    start = text.index(field)
    Path(ledger).write_text(text[:start] + line + text[text.index(",", start):], encoding="utf-8")
    before = Path(ledger).read_bytes()
    for argv in (["ledger", "exposure", ledger, "--model", model], add_args(ledger, model, record_id="V-2")):
        code, out, err = run_cli(argv)
        assert (code, out) == (3, ""), argv[1]
        assert err.startswith(f"stpa-loc: error: bad ledger file: line 1: {message}"), argv[1]
    assert Path(ledger).read_bytes() == before


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

def test_ledger_deeply_nested_line_is_io_error(ledger_env, tmp_path):
    ledger, model = ledger_env
    write(tmp_path, "ledger.jsonl", "\n" + "[" * 2000 + "]" * 2000 + "\n")
    code, out, err = run_cli(["ledger", "exposure", ledger, "--model", model])
    assert (code, out) == (3, "")
    assert err == "stpa-loc: error: bad ledger file: line 2: JSON nested too deeply\n"


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


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])
def test_ledger_keeps_working_after_a_line_separator_in_a_description(ledger_env, separator):
    ledger, model = ledger_env
    argv = add_args(ledger, model)
    argv[argv.index("--description") + 1] = f"a{separator}b"
    assert run_cli(argv) == (0, "", "")
    code, out, err = run_cli(["ledger", "exposure", ledger, "--model", model, "--as-of", CLOSED])
    assert (code, err) == (0, "")
    assert json.loads(out)["open_count"] == 1
    assert read_records(ledger)[0]["description"] == f"a{separator}b"


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--description", lambda ledger, model: add_args(ledger, model, record_id="V-2") + ["--description", "bad\udcffbyte"]),
        ("--id", lambda ledger, model: add_args(ledger, model, record_id="V-\udcff")),
        ("--component", lambda ledger, model: add_args(ledger, model, record_id="V-2", component="P\udcff")),
        ("--id", lambda ledger, model: ["ledger", "resolve", ledger, "--model", model, "--id", "V-\udcff"]),
    ],
    ids=["add-description", "add-id", "add-component", "resolve-id"],
)
def test_non_utf8_argument_is_a_usage_error(ledger_env, flag, argv):
    """Undecodable argv bytes arrive as lone surrogates, which no ledger line can hold."""
    ledger, model = ledger_env
    assert run_cli(add_args(ledger, model))[0] == 0
    before = Path(ledger).read_bytes()
    code, out, err = run_cli(argv(ledger, model))
    assert (code, out) == (2, "")
    assert f"argument {flag}: " in err
    assert "is not UTF-8 text" in err
    assert Path(ledger).read_bytes() == before


def test_non_utf8_argv_bytes_are_a_usage_error(ledger_env):
    ledger, model = ledger_env
    assert run_cli(add_args(ledger, model))[0] == 0
    before = Path(ledger).read_bytes()
    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parent.parent), LC_ALL="C.UTF-8")
    argv = [os.fsencode(arg) for arg in add_args(ledger, model, record_id="V-2")] + [b"--description", b"bad\xffbyte"]
    done = subprocess.run([sys.executable, "-m", "stpa_loc.cli", *argv], env=env, capture_output=True, timeout=60)
    assert done.returncode == 2
    assert b"argument --description: " in done.stderr
    assert b"Traceback" not in done.stderr
    assert Path(ledger).read_bytes() == before


# --- determinism ----------------------------------------------------------------


@pytest.mark.parametrize("argv", READ_ONLY_COMMANDS, ids=lambda argv: " ".join(argv[:1] + argv[3:]))
def test_read_only_commands_are_deterministic(argv):
    assert run_cli(argv) == run_cli(argv)


RUN_IN_CHILD = "import json, sys; from conftest import run_cli; print(json.dumps([run_cli(a) for a in json.loads(sys.argv[1])]))"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_read_only_commands_do_not_follow_the_hash_seed(seed):
    """String hashes, and so set and dict order, change with PYTHONHASHSEED; no output may follow them."""
    path = os.pathsep.join([str(Path(analysis.__file__).parent.parent), str(Path(__file__).parent)])
    done = subprocess.run(
        [sys.executable, "-c", RUN_IN_CHILD, json.dumps(READ_ONLY_COMMANDS)],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path), capture_output=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout) == [list(run_cli(argv)) for argv in READ_ONLY_COMMANDS]


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-16"])
def test_stdout_is_utf8_whatever_its_encoding(tmp_path, encoding):
    """PYTHONIOENCODING picks the encoding of sys.stdout; the output bytes stay UTF-8, as in-process and golden."""
    model = write(tmp_path, "m.stpa", TINY_MODEL.replace('"idle"', '"idle — naïve ‘operator’"'))
    bundled, scenarios = str(MODEL_PATH), str(SCENARIOS_PATH)
    commands = {
        ("ucas", model): None,
        ("prompts", bundled): None,
        ("report", bundled, scenarios): "effect_to_cause.csv",
        ("report", bundled, scenarios, "--direction", "cause-to-effect"): "cause_to_effect.csv",
    }
    env = dict(os.environ, PYTHONIOENCODING=encoding, PYTHONPATH=str(Path(analysis.__file__).parent.parent))
    for argv, golden in commands.items():
        done = subprocess.run([sys.executable, "-m", "stpa_loc.cli", *argv], env=env, capture_output=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == run_cli(list(argv))[1].encode("utf-8")
        if golden:
            assert done.stdout == (GOLDEN_DIR / golden).read_bytes()


# --- validation runs once --------------------------------------------------------


def test_each_command_validates_the_model_once(tmp_path, monkeypatch):
    calls = []
    real = importlib.import_module("stpa_loc.model").validate_model

    def counting(model):
        calls.append(model)
        return real(model)

    # count every validation, whichever module's reference made the call
    for name in ("model", "dsl", "analysis", "catalog", "report", "cli"):
        module = importlib.import_module(f"stpa_loc.{name}")
        if getattr(module, "validate_model", None) is real:
            monkeypatch.setattr(module, "validate_model", counting)
    ledger = str(tmp_path / "ledger.jsonl")
    model, scenarios = str(MODEL_PATH), str(SCENARIOS_PATH)
    commands = {
        "validate": ["validate", model],
        "ucas": ["ucas", model],
        "prompts": ["prompts", model],
        "report csv": ["report", model, scenarios],
        "report md": ["report", model, scenarios, "--format", "md"],
        "report json": ["report", model, scenarios, "--format", "json"],
        "ledger add": add_args(ledger, model, component="ChatMonitor"),
        "ledger resolve": ["ledger", "resolve", ledger, "--model", model, "--id", "V-1", "--closed-at", CLOSED],
        "ledger exposure": ["ledger", "exposure", ledger, "--model", model, "--as-of", CLOSED],
    }
    counts = {}
    for label, argv in commands.items():
        calls.clear()
        assert run_cli(argv)[0] == 0, label
        counts[label] = len(calls)
    assert counts == dict.fromkeys(commands, 1)


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


class FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_stdout_write_is_io_error():
    stderr = io.StringIO()
    with contextlib.redirect_stdout(FullStdout()), contextlib.redirect_stderr(stderr):
        code = cli_main(["ucas", str(MODEL_PATH)])
    assert (code, stderr.getvalue()) == (3, "stpa-loc: error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        pytest.param(["ucas", str(MODEL_PATH)], False, id="ucas-buffered"),
        pytest.param(["ucas", str(MODEL_PATH)], True, id="ucas-unbuffered"),
        pytest.param(["--help"], False, id="help-buffered"),
        pytest.param(["--help"], True, id="help-unbuffered"),
    ],
)
def test_stdout_on_a_full_device_exits_3_with_one_error_line(argv, unbuffered):
    """A block-buffered stdout keeps the bytes a failed flush could not write,
    so the interpreter's exit-time flush must not meet them again."""
    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "stpa_loc.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=env, timeout=60
        )
    assert (done.returncode, done.stderr) == (3, b"stpa-loc: error: [Errno 28] No space left on device\n")


CLOSED_STREAM_ADD = add_args("ledger.jsonl", str(MODEL_PATH), record_id="V-9", component="ChatMonitor")


@pytest.mark.parametrize(
    "fd, how, argv, code",
    [
        pytest.param(1, "closed", ["validate", str(MODEL_PATH)], 3, id="validate-stdout-closed"),
        pytest.param(1, "closed", CLOSED_STREAM_ADD, 3, id="ledger-add-stdout-closed"),
        pytest.param(2, "closed", ["validate", "missing.stpa"], 3, id="missing-model-stderr-closed"),
        pytest.param(2, "closed", ["validate", "broken.stpa"], 1, id="invalid-model-stderr-closed"),
        pytest.param(2, "closed", ["bogus"], 2, id="usage-error-stderr-closed"),
        pytest.param(2, "closed", CLOSED_STREAM_ADD, 0, id="ledger-add-stderr-closed"),
        pytest.param(2, "full", ["validate", "missing.stpa"], 3, id="missing-model-stderr-full"),
        pytest.param(2, "full", ["validate", "broken.stpa"], 1, id="invalid-model-stderr-full"),
        pytest.param(2, "full", ["bogus"], 2, id="usage-error-stderr-full"),
        pytest.param(2, "pipe", ["validate", "missing.stpa"], 3, id="missing-model-stderr-pipe-closed"),
        pytest.param(2, "pipe", ["validate", "broken.stpa"], 1, id="invalid-model-stderr-pipe-closed"),
        pytest.param(2, "pipe", ["bogus"], 2, id="usage-error-stderr-pipe-closed"),
    ],
)
def test_closed_or_full_standard_stream_keeps_the_exit_code(tmp_path, monkeypatch, fd, how, argv, code):
    """A closed stdout is an I/O failure before any command runs; messages for
    a closed or full stderr, or one whose pipe has no reader, are dropped,
    never written to stdout."""
    if how == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    write(tmp_path, "broken.stpa", BROKEN_MODEL)
    (tmp_path / "ledger.jsonl").write_bytes(FUZZ_LEDGER)
    expected_ledger = FUZZ_LEDGER
    if code == 0:  # the ledger an in-process run with working streams writes
        reference = tmp_path / "reference"
        reference.mkdir()
        (reference / "ledger.jsonl").write_bytes(FUZZ_LEDGER)
        monkeypatch.chdir(reference)
        assert run_cli(argv) == (0, "", "")
        expected_ledger = (reference / "ledger.jsonl").read_bytes()

    def redirect():  # runs in the child, after the pipes are in place
        if how == "closed":
            os.close(fd)
        elif how == "full":
            os.dup2(os.open("/dev/full", os.O_WRONLY), fd)
        else:  # a pipe whose reader is gone
            read_end, write_end = os.pipe()
            os.close(read_end)
            os.dup2(write_end, fd)

    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)  # the streams keep the bytes a failed write leaves
    done = subprocess.run(
        [sys.executable, "-m", "stpa_loc.cli", *argv],
        capture_output=True, cwd=tmp_path, env=env, preexec_fn=redirect, timeout=60,
    )
    assert done.returncode == code
    assert b"Traceback" not in done.stdout + done.stderr
    if fd == 1:
        assert done.stderr == b"stpa-loc: error: standard output is closed\n"
    else:
        assert done.stdout == b""
    assert (tmp_path / "ledger.jsonl").read_bytes() == expected_ledger


# --------------------------------------------------------------------------
# In-process fuzz: mutated copies of the bundled model and scenarios and of a
# small ledger, run through every command that reads them. Whatever the
# bytes, each command must end with a documented exit code, not an exception.

FUZZ_LEDGER = "".join(
    json.dumps(
        {
            "id": f"V-{i}",
            "description": f"weakness {i}",
            "component": "ChatMonitor",
            "severity": "low",
            "opened_at": OPENED,
            "closed_at": CLOSED if i == 2 else None,
            "source": "audit",
        }
    )
    + "\n"
    for i in range(1, 4)
).encode()

@settings(
    max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(model_edits=byte_edits, scenario_edits=byte_edits, ledger_edits=byte_edits)
def test_mutated_inputs_end_with_a_documented_exit_code(tmp_path, monkeypatch, model_edits, scenario_edits, ledger_edits):
    monkeypatch.delenv("STPA_LOC_CATALOG", raising=False)
    model, scenarios, ledger = (str(tmp_path / name) for name in ("m.stpa", "s.stpa", "ledger.jsonl"))
    Path(model).write_bytes(mutate(MODEL_PATH.read_bytes(), model_edits))
    Path(scenarios).write_bytes(mutate(SCENARIOS_PATH.read_bytes(), scenario_edits))
    Path(ledger).write_bytes(mutate(FUZZ_LEDGER, ledger_edits))
    for argv in (
        ["validate", model],
        ["ucas", model],
        ["prompts", model],
        ["report", model, scenarios],
        ["report", model, scenarios, "--format", "json", "--include-loss"],
        add_args(ledger, model, record_id="V-9", component="ChatMonitor"),
    ):
        assert run_cli(argv)[0] in (0, 1, 2, 3), argv


@pytest.mark.parametrize("moment", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
def test_timestamp_outside_the_utc_range_is_a_usage_error(ledger_env, moment):
    ledger, model = ledger_env
    assert run_cli(add_args(ledger, model))[0] == 0
    for argv in (
        add_args(ledger, model, record_id="V-2", opened=moment),
        ["ledger", "exposure", ledger, "--model", model, "--as-of", moment],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert f"{moment!r} is out of range" in err
