from __future__ import annotations

from collections import Counter

import pytest

from stpa_loc import catalog as catalog_module
from stpa_loc.catalog import (
    AGENTIC_CHARACTERISTICS,
    CatalogFormatError,
    TABLE3_ROW_COUNT,
    filter_entries,
    generate_prompts,
    load_catalog,
)
from stpa_loc.dsl import parse_model
from stpa_loc.model import (
    AiCharacteristic,
    CausalFactorType,
    ComponentKind,
    LifecyclePhase,
    ScenarioType,
)

from conftest import CATALOG_HEADER as HEADER, CATALOG_ROW as ROW_A

ROW_B = (
    "X-02\toperations|deployment\tother hazard\tother action\ttype_b\tnot_executed"
    "\tdelay\tactuator reacts late\tspeed_asymmetry"
    "\tAI moves faster than oversight.\tactuator\ttable4"
)


def write_catalog(tmp_path, *lines):
    path = tmp_path / "catalog.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def swap(row: str, column: int, value: str) -> str:
    cols = row.split("\t")
    cols[column] = value
    return "\t".join(cols)


# column indexes in ROW_A/ROW_B
LIFECYCLE, SCENARIO_TYPE, SUB_TYPES, FACTORS = 1, 4, 5, 6
DETAIL, ORIGIN, SOURCE = 7, 10, 11


# --- bundled catalog ---------------------------------------------------------


def test_bundled_catalog_shape(bundled_catalog):
    assert len(bundled_catalog) == 36
    sources = Counter(entry.source for entry in bundled_catalog)
    assert sources["table3"] == TABLE3_ROW_COUNT == 23
    assert sources["table4"] == 13


def test_bundled_ids_are_sorted_and_unique(bundled_catalog):
    ids = [entry.id for entry in bundled_catalog]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_entry_lookup(bundled_catalog):
    entry = bundled_catalog["A3-11"]
    assert entry.detail == "AI resistant to shutdown due to instrumental goals"
    assert entry.origin_component is ComponentKind.CONTROLLED_PROCESS
    assert "A3-11" in bundled_catalog
    assert "Z9-99" not in bundled_catalog
    with pytest.raises(KeyError):
        bundled_catalog["Z9-99"]


def test_generic_entries_cover_operations(bundled_catalog):
    for entry in bundled_catalog:
        if entry.source == "table3":
            assert LifecyclePhase.OPERATIONS in entry.lifecycle


def test_deployment_phase_entries(bundled_catalog):
    twophase = [
        entry.id
        for entry in bundled_catalog
        if LifecyclePhase.DEPLOYMENT in entry.lifecycle
    ]
    assert twophase == ["A3-16", "A3-17", "A3-18", "A3-19", "A3-20"]


def test_scenario_type_split(bundled_catalog):
    counts = Counter(entry.scenario_type for entry in bundled_catalog)
    assert counts[ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION] == 22
    assert counts[ScenarioType.TYPE_B_IMPROPER_EXECUTION] == 14


def test_bundled_catalog_checks_its_generic_count(monkeypatch):
    monkeypatch.setattr(catalog_module, "TABLE3_ROW_COUNT", TABLE3_ROW_COUNT + 1)
    with pytest.raises(CatalogFormatError) as raised:
        catalog_module._bundled_catalog.__wrapped__()
    assert raised.value.row is None
    assert str(raised.value) == (
        f"bundled catalog must hold {TABLE3_ROW_COUNT + 1} generic entries, found {TABLE3_ROW_COUNT}"
    )


# --- loading replacement files ----------------------------------------------


def test_load_custom_catalog(tmp_path):
    catalog = load_catalog(write_catalog(tmp_path, HEADER, ROW_A, ROW_B))
    assert len(catalog) == 2
    assert catalog["X-02"].lifecycle == {
        LifecyclePhase.OPERATIONS,
        LifecyclePhase.DEPLOYMENT,
    }
    assert catalog["X-02"].origin_component is ComponentKind.ACTUATOR


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_catalog(tmp_path / "nope.tsv")


def expect_error(tmp_path, *lines, row=None, needle=""):
    with pytest.raises(CatalogFormatError) as exc_info:
        load_catalog(write_catalog(tmp_path, *lines))
    if row is not None:
        assert exc_info.value.row == row
    assert needle in str(exc_info.value)
    return exc_info.value


def test_empty_file(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CatalogFormatError, match="empty"):
        load_catalog(path)


def test_wrong_header(tmp_path):
    expect_error(tmp_path, HEADER.replace("detail", "details"), ROW_A, row=1, needle="header")


def test_wrong_column_count(tmp_path):
    short = "\t".join(ROW_A.split("\t")[:-1])
    expect_error(tmp_path, HEADER, short, row=2, needle="expected 12 columns, found 11")


def test_blank_line_inside(tmp_path):
    expect_error(tmp_path, HEADER, ROW_A, "", ROW_B, row=3, needle="blank line")


def test_duplicate_entry_id(tmp_path):
    expect_error(tmp_path, HEADER, ROW_A, ROW_A, row=3, needle="duplicate entry id")


def test_empty_cell(tmp_path):
    expect_error(
        tmp_path, HEADER, swap(ROW_A, DETAIL, ""), row=2, needle="empty detail column"
    )


def test_padded_cell(tmp_path):
    expect_error(
        tmp_path,
        HEADER,
        swap(ROW_A, DETAIL, " padded "),
        row=2,
        needle="leading or trailing whitespace",
    )


def test_unknown_factor_token(tmp_path):
    expect_error(
        tmp_path,
        HEADER,
        swap(ROW_A, FACTORS, "gremlins"),
        row=2,
        needle="unknown causal_factors token 'gremlins'",
    )


def test_separator_only_multivalue_cell(tmp_path):
    expect_error(
        tmp_path, HEADER, swap(ROW_A, SUB_TYPES, "|"), row=2, needle="empty sub_types"
    )


def test_unknown_scenario_type(tmp_path):
    expect_error(
        tmp_path,
        HEADER,
        swap(ROW_A, SCENARIO_TYPE, "type_c"),
        row=2,
        needle="unknown scenario_type",
    )


def test_unknown_origin_component(tmp_path):
    expect_error(
        tmp_path, HEADER, swap(ROW_A, ORIGIN, "bystander"), row=2, needle="origin_component"
    )


def test_unknown_source(tmp_path):
    expect_error(
        tmp_path, HEADER, swap(ROW_A, SOURCE, "table9"), row=2, needle="unknown source"
    )


def test_subtype_illegal_for_type(tmp_path):
    expect_error(
        tmp_path,
        HEADER,
        swap(ROW_A, SUB_TYPES, "not_executed"),
        row=2,
        needle="not legal for scenario_type",
    )


def test_generic_entry_must_include_operations(tmp_path):
    bad = swap(swap(ROW_A, SOURCE, "table3"), LIFECYCLE, "deployment")
    expect_error(tmp_path, HEADER, bad, row=2, needle="operations lifecycle")


def test_generic_entry_rejects_other_phases(tmp_path):
    bad = swap(swap(ROW_A, SOURCE, "table3"), LIFECYCLE, "operations|design")
    expect_error(tmp_path, HEADER, bad, row=2, needle="unexpected lifecycle phases")


# --- filtering ---------------------------------------------------------------


def test_filter_no_criteria_returns_all(bundled_catalog):
    assert len(filter_entries(bundled_catalog)) == 36


def test_filter_by_origin(bundled_catalog):
    ids = [
        e.id
        for e in filter_entries(bundled_catalog, origin_component=ComponentKind.SENSOR)
    ]
    assert ids == ["A3-09", "B4-13"]


def test_filter_criteria_combine_conjunctively(bundled_catalog):
    ids = [
        e.id
        for e in filter_entries(
            bundled_catalog,
            origin_component=ComponentKind.CONTROLLED_PROCESS,
            causal_factor=CausalFactorType.FLAWED_PROCESS_MODEL,
        )
    ]
    assert ids == [
        "A3-11",
        "A3-12",
        "A3-14",
        "A3-15",
        "B4-07",
        "B4-08",
        "B4-10",
        "B4-11",
        "B4-12",
    ]


def test_filter_by_characteristic(bundled_catalog):
    ids = [
        e.id
        for e in filter_entries(
            bundled_catalog, ai_characteristic=AiCharacteristic.DECEPTION
        )
    ]
    assert ids == ["A3-12", "A3-16", "B4-13"]


def test_filter_by_lifecycle(bundled_catalog):
    ids = [
        e.id for e in filter_entries(bundled_catalog, lifecycle=LifecyclePhase.DEPLOYMENT)
    ]
    assert ids == ["A3-16", "A3-17", "A3-18", "A3-19", "A3-20"]


def test_filter_by_scenario_type(bundled_catalog):
    type_b = ScenarioType.TYPE_B_IMPROPER_EXECUTION
    ids = [e.id for e in filter_entries(bundled_catalog, scenario_type=type_b)]
    assert ids == sorted(e.id for e in bundled_catalog if e.scenario_type is type_b)
    assert len(ids) == 14


def test_filter_can_exclude_everything(bundled_catalog):
    assert (
        filter_entries(
            bundled_catalog,
            origin_component=ComponentKind.ACTUATOR,
            ai_characteristic=AiCharacteristic.DECEPTION,
        )
        == []
    )


# --- prompt generation ---------------------------------------------------------


def test_prompts_for_fixture_model(bundled_catalog, fixture_model):
    prompts = generate_prompts(bundled_catalog, fixture_model)
    assert len(prompts) == 36
    by_component = Counter(p.component_id for p in prompts)
    assert by_component == {
        "HumanController": 22,
        "ChatMonitor": 11,
        "Overseer": 1,
        "Sampler": 2,
    }


def test_prompt_ordering(bundled_catalog, fixture_model):
    prompts = generate_prompts(bundled_catalog, fixture_model)
    keys = [(p.component_id, p.catalog_ref) for p in prompts]
    assert keys == sorted(keys)


def test_prompt_question_text(bundled_catalog, fixture_model):
    prompt = next(
        p
        for p in generate_prompts(bundled_catalog, fixture_model)
        if p.catalog_ref == "A3-11"
    )
    assert prompt.component_id == "ChatMonitor"
    assert prompt.question == (
        "Could AI resistant to shutdown due to instrumental goals arise for"
        " ChatMonitor given Agency?"
    )


def small_model(lifecycle: str = "operations", process_attrs: str = "") -> object:
    model, diags = parse_model(
        f'system "tiny" {{ lifecycle: {lifecycle} controller C process P {process_attrs} }}'
    )
    assert diags == []
    return model


def test_agentic_prompts_suppressed_for_plain_process(bundled_catalog):
    prompts = generate_prompts(bundled_catalog, small_model())
    process_refs = [p.catalog_ref for p in prompts if p.component_id == "P"]
    assert process_refs == ["A3-08"]


def test_agentic_prompts_kept_for_ai_process(bundled_catalog):
    prompts = generate_prompts(
        bundled_catalog, small_model(process_attrs="{contains_ai: true}")
    )
    process_refs = [p.catalog_ref for p in prompts if p.component_id == "P"]
    assert len(process_refs) == 11


def test_no_prompts_outside_catalog_lifecycles(bundled_catalog):
    assert generate_prompts(bundled_catalog, small_model(lifecycle="design")) == []


def test_deployment_prompts_are_controller_only(bundled_catalog):
    prompts = generate_prompts(bundled_catalog, small_model(lifecycle="deployment"))
    assert [p.catalog_ref for p in prompts] == [
        "A3-16",
        "A3-17",
        "A3-18",
        "A3-19",
        "A3-20",
    ]
    assert {p.component_id for p in prompts} == {"C"}


def test_agentic_characteristic_set_contents():
    assert AiCharacteristic.AGENCY in AGENTIC_CHARACTERISTICS
    assert AiCharacteristic.HUMAN_ERROR not in AGENTIC_CHARACTERISTICS
    assert len(AGENTIC_CHARACTERISTICS) == 7
