"""The benchmark's workloads: a CLI script and an in-process API pass each.

A CLI script is the list of ``stpa-loc`` commands one pass runs, in order,
each with the name of the check its output must pass (see checks.py).
An API pass calls the library directly on the same inputs and returns
deferred checks, so checking stays outside the timed region. API passes
look every function up through its module at call time, so the traced
run can swap in timing wrappers.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Callable

import checks

Check = tuple[str, Callable[[], list[str]]]


@dataclass
class Inputs:
    """One generated input set, in ``work``, and what the passes need from it."""

    root: Path
    work: Path
    facts: dict
    lib: object = None
    loaded: dict = field(default_factory=dict)

    def file(self, name: str) -> str:
        return str(self.work / self.facts["files"][name])

    @property
    def bundled_model(self) -> str:
        return str(self.root / "src" / "stpa_loc" / "data" / "chat_monitoring.stpa")

    @property
    def bundled_scenarios(self) -> str:
        return str(self.root / "src" / "stpa_loc" / "data" / "chat_monitoring_scenarios.stpa")

    @property
    def cli_ledger(self) -> str:
        """Working copy of the ledger that CLI ``ledger add|resolve`` rewrite."""
        return str(self.work / "ledger-cli.jsonl")

    def reset_cli_ledger(self) -> None:
        shutil.copyfile(self.file("ledger"), self.cli_ledger)

    def read(self, name: str) -> str:
        if name not in self.loaded:
            self.loaded[name] = Path(self.file(name)).read_text(encoding="utf-8")
        return self.loaded[name]


def _table(fmt: str, direction: str, loss: bool) -> str:
    return f"table:{fmt}:{direction}:{'loss' if loss else 'plain'}"


# --------------------------------------------------------------------------
# CLI scripts: (check kind, argv after ``python -m stpa_loc.cli``), and
# for ``ledger exposure`` a third item, the summary the generator expects


def script_edit_small(inp: Inputs, cycle: int) -> list[tuple[str, list[str]]]:
    m, s, l = inp.file("model"), inp.file("scenarios"), inp.file("ledger")
    bm, bs = inp.bundled_model, inp.bundled_scenarios
    return [
        ("validate", ["validate", m]),
        ("ucas", ["ucas", m]),
        ("ucas-confirmed", ["ucas", m, "--confirmed-only"]),
        ("prompts", ["prompts", m]),
        ("prompts-filtered", ["prompts", m, "--characteristic", "agency"]),
        ("golden:effect_to_cause.csv", ["report", bm, bs, "--direction", "effect-to-cause"]),
        ("golden:cause_to_effect.csv", ["report", bm, bs, "--direction", "cause-to-effect"]),
        (_table("md", "effect-to-cause", False), ["report", m, s, "--format", "md"]),
        (_table("json", "effect-to-cause", True), ["report", m, s, "--format", "json", "--include-loss"]),
        ("ledger-exposure", ["ledger", "exposure", l, "--model", m, "--as-of", inp.facts["ledger"]["as_of"]],
         inp.facts["ledger"]["initial"]),
    ]


def script_report(inp: Inputs, cycle: int) -> list[tuple[str, list[str]]]:
    m, s = inp.file("model"), inp.file("scenarios")
    return [
        (_table("csv", "effect-to-cause", False), ["report", m, s, "--format", "csv", "--direction", "effect-to-cause"]),
        (_table("csv", "cause-to-effect", True),
         ["report", m, s, "--format", "csv", "--direction", "cause-to-effect", "--include-loss"]),
        (_table("md", "effect-to-cause", False), ["report", m, s, "--format", "md"]),
        (_table("json", "effect-to-cause", False), ["report", m, s, "--format", "json"]),
    ]


def script_parse(inp: Inputs, cycle: int) -> list[tuple[str, list[str]]]:
    m = inp.file("model")
    return [
        ("validate", ["validate", m]),
        ("validate-broken", ["validate", inp.file("broken")]),
        ("ucas", ["ucas", m]),
        ("prompts", ["prompts", m]),
    ]


def script_ledger(inp: Inputs, cycle: int) -> list[tuple[str, list[str]]]:
    """One add/resolve/exposure cycle of the generator's plan, on the CLI copy."""
    m, ledger, facts = inp.file("model"), inp.cli_ledger, inp.facts["ledger"]
    step = facts["cycles"][cycle]
    add = step["add"]
    return [
        ("ledger-add", ["ledger", "add", ledger, "--model", m, "--id", add["id"],
                        "--description", add["description"], "--component", add["component"],
                        "--severity", add["severity"], "--source", add["source"],
                        "--opened-at", facts["opened_at"]]),
        ("ledger-resolve", ["ledger", "resolve", ledger, "--model", m, "--id", step["resolve"],
                            "--closed-at", facts["closed_at"]]),
        ("ledger-exposure", ["ledger", "exposure", ledger, "--model", m, "--as-of", facts["as_of"]], step),
    ]


# --------------------------------------------------------------------------
# API passes


def _ts(text: str) -> datetime:
    return datetime.fromisoformat(text)


def _diag_counts(diagnostics) -> dict[str, int]:
    counts: dict[str, int] = {}
    for diag in diagnostics:
        counts[diag.rule_code] = counts.get(diag.rule_code, 0) + 1
    return dict(sorted(counts.items()))


def _expect(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def _pathways(lib, scenarios, model, catalog) -> list[tuple[str, str]]:
    """Trace, render and match every scenario, as a pathway view would."""
    rendered = []
    for scenario in scenarios:
        pathway = lib.analysis.trace_pathway(scenario, model)
        rendered.append((scenario.id, lib.report.render_pathway(pathway)))
        lib.analysis.match_catalog(scenario, catalog)
    return rendered


def _check_pathways(rendered, facts) -> list[str]:
    problems = []
    for sid, text in rendered:
        problems += checks.check_pathway(text, sid, facts)
    return problems[:5]


def api_report(inp: Inputs) -> list[Check]:
    lib, facts = inp.lib, inp.facts
    TD = lib.report.TableDirection
    model, diagnostics = lib.dsl.parse_model(inp.read("model"), file=inp.file("model"))
    diagnostics = diagnostics + lib.model.validate_model(model)
    scenarios, scenario_diags = lib.dsl.parse_scenarios(inp.read("scenarios"), model, file=inp.file("scenarios"))
    rows_e2c = lib.report.build_table(scenarios, model, TD.EFFECT_TO_CAUSE)
    rows_c2e = lib.report.build_table(scenarios, model, TD.CAUSE_TO_EFFECT, include_loss=True)
    csv_e2c = lib.report.render_csv(rows_e2c, TD.EFFECT_TO_CAUSE)
    md_c2e = lib.report.render_markdown(rows_c2e, TD.CAUSE_TO_EFFECT)
    json_e2c = lib.report.render_json(rows_e2c, TD.EFFECT_TO_CAUSE, model)
    json_c2e = lib.report.render_json(rows_c2e, TD.CAUSE_TO_EFFECT, model)
    catalog = lib.catalog.load_catalog()
    pathways = _pathways(lib, scenarios, model, catalog)
    return [
        ("parse", lambda: _expect(not diagnostics and not scenario_diags, "parse: unexpected diagnostics")),
        ("render_csv", lambda: checks.check_table(csv_e2c, "csv", "effect-to-cause", False, facts)),
        ("render_markdown", lambda: checks.check_table(md_c2e, "md", "cause-to-effect", True, facts)),
        ("render_json", lambda: checks.check_table(json_e2c, "json", "effect-to-cause", False, facts)),
        ("render_json", lambda: checks.check_table(json_c2e, "json", "cause-to-effect", True, facts)),
        ("model_fingerprint", lambda: _expect(
            checks.json_fingerprint(json_e2c) == checks.json_fingerprint(json_c2e),
            "json: model_fingerprint differs between directions")),
        ("trace_pathway", lambda: _check_pathways(pathways, facts)),
    ]


def api_parse(inp: Inputs) -> list[Check]:
    lib, facts = inp.lib, inp.facts
    model, diagnostics = lib.dsl.parse_model(inp.read("model"), file=inp.file("model"))
    diagnostics = diagnostics + lib.model.validate_model(model)
    fingerprint = lib.model.model_fingerprint(model)
    canonical = lib.dsl.serialize_model(model)
    again, again_diags = lib.dsl.parse_model(canonical)
    fingerprint_again = lib.model.model_fingerprint(again)
    ucas = lib.analysis.enumerate_ucas(model)
    confirmed = [uca for uca in ucas if uca.is_confirmed]
    drafts = lib.analysis.derive_constraints(confirmed)
    prompts = lib.catalog.generate_prompts(lib.catalog.load_catalog(), model)
    broken, broken_diags = lib.dsl.parse_model(inp.read("broken"), file=inp.file("broken"))
    broken_diags = broken_diags + lib.model.validate_model(broken)
    want = facts["model"]
    return [
        ("validate", lambda: _expect(not diagnostics, f"validate: {len(diagnostics)} diagnostics on the clean model")),
        ("serialize", lambda: _expect(not again_diags and fingerprint == fingerprint_again,
                                      "serialize: re-parsed model has another fingerprint")),
        ("enumerate_ucas", lambda: _expect(
            len(ucas) == want["uca_count"] and len(confirmed) == want["confirmed_count"],
            f"enumerate_ucas: {len(ucas)}/{len(confirmed)}, expected {want['uca_count']}/{want['confirmed_count']}")),
        ("derive_constraints", lambda: _expect(len(drafts) == len(confirmed), "derive_constraints: count differs")),
        ("generate_prompts", lambda: _expect(
            bool(prompts) and all(p.component_id in want["components"] for p in prompts),
            "generate_prompts: no prompts or unknown component")),
        ("validate-broken", lambda: checks.check_diagnostics(_diag_counts(broken_diags), facts["broken"]["diagnostics"])),
    ]


def _ledger_cycle(lib, inp: Inputs, model, source: str) -> dict:
    """In-process twin of one CLI add/resolve/exposure cycle: each step
    loads the ledger file and the two writes save it."""
    facts = inp.facts["ledger"]
    step = facts["cycles"][0]
    add = step["add"]
    scratch = str(inp.work / "ledger-api.jsonl")
    ledger = lib.analysis.ledger_load(source, model)
    record = lib.analysis.VulnerabilityRecord(
        id=add["id"], description=add["description"], component=add["component"],
        severity=lib.analysis.RecordSeverity(add["severity"]), opened_at=_ts(facts["opened_at"]),
        source=lib.analysis.LedgerSource(add["source"]),
    )
    lib.analysis.ledger_save(lib.analysis.ledger_register(ledger, record), scratch)
    ledger = lib.analysis.ledger_load(scratch, model)
    lib.analysis.ledger_save(lib.analysis.ledger_resolve(ledger, step["resolve"], _ts(facts["closed_at"])), scratch)
    ledger = lib.analysis.ledger_load(scratch, model)
    return lib.analysis.ledger_exposure(ledger, _ts(facts["as_of"]))


def _check_cycle_exposure(got: dict, want: dict) -> list[str]:
    return _expect(
        got["open_count"] == want["open_count"] and got["weighted"] == want["weighted"],
        f"ledger_exposure: {got['open_count']}/{got['weighted']}, expected {want['open_count']}/{want['weighted']}",
    )


def api_ledger(inp: Inputs) -> list[Check]:
    lib = inp.lib
    model, diagnostics = lib.dsl.parse_model(inp.read("model"), file=inp.file("model"))
    diagnostics = diagnostics + lib.model.validate_model(model)
    exposure = _ledger_cycle(lib, inp, model, inp.file("ledger"))
    return [
        ("validate", lambda: _expect(not diagnostics, "validate: diagnostics on the clean model")),
        ("ledger_exposure", lambda: _check_cycle_exposure(exposure, inp.facts["ledger"]["cycles"][0])),
    ]


def api_edit_small(inp: Inputs) -> list[Check]:
    """The whole library once over small inputs, as an editor integration
    or a test suite would call it."""
    lib, facts = inp.lib, inp.facts
    TD = lib.report.TableDirection
    model, diagnostics = lib.dsl.parse_model(inp.read("model"), file=inp.file("model"))
    diagnostics = diagnostics + lib.model.validate_model(model)
    ucas = lib.analysis.enumerate_ucas(model)
    drafts = lib.analysis.derive_constraints([uca for uca in ucas if uca.is_confirmed])
    catalog = lib.catalog.load_catalog()
    prompts = lib.catalog.generate_prompts(catalog, model)
    canonical = lib.dsl.serialize_model(model)
    scenarios, scenario_diags = lib.dsl.parse_scenarios(inp.read("scenarios"), model, file=inp.file("scenarios"))
    md = lib.report.render_markdown(lib.report.build_table(scenarios, model, TD.EFFECT_TO_CAUSE), TD.EFFECT_TO_CAUSE)
    rows_loss = lib.report.build_table(scenarios, model, TD.EFFECT_TO_CAUSE, include_loss=True)
    js = lib.report.render_json(rows_loss, TD.EFFECT_TO_CAUSE, model)
    pathways = _pathways(lib, scenarios, model, catalog)

    bundled_source = Path(inp.bundled_model).read_text(encoding="utf-8")
    bundled, _ = lib.dsl.parse_model(bundled_source, file=inp.bundled_model)
    bundled_scenarios, _ = lib.dsl.parse_scenarios(
        Path(inp.bundled_scenarios).read_text(encoding="utf-8"), bundled, file=inp.bundled_scenarios
    )
    goldens = {
        f"{direction.token}.csv": lib.report.render_csv(
            lib.report.build_table(bundled_scenarios, bundled, direction), direction
        )
        for direction in (TD.EFFECT_TO_CAUSE, TD.CAUSE_TO_EFFECT)
    }
    initial = lib.analysis.ledger_exposure(
        lib.analysis.ledger_load(inp.file("ledger"), model), _ts(facts["ledger"]["as_of"])
    )
    cycle = _ledger_cycle(lib, inp, model, inp.file("ledger"))
    want = facts["model"]
    golden = inp.loaded["golden"]
    return [
        ("validate", lambda: _expect(not diagnostics and not scenario_diags, "validate: unexpected diagnostics")),
        ("enumerate_ucas", lambda: _expect(
            len(ucas) == want["uca_count"] and len(drafts) == want["confirmed_count"],
            "enumerate_ucas: counts differ from facts")),
        ("generate_prompts", lambda: _expect(bool(prompts), "generate_prompts: no prompts")),
        ("serialize_model", lambda: _expect(canonical.startswith("system "), "serialize_model: bad output")),
        ("render_markdown", lambda: checks.check_table(md, "md", "effect-to-cause", False, facts)),
        ("render_json", lambda: checks.check_table(js, "json", "effect-to-cause", True, facts)),
        ("trace_pathway", lambda: _check_pathways(pathways, facts)),
        ("golden", lambda: _expect(goldens == golden, "bundled tables differ from the golden files")),
        ("ledger_exposure", lambda: _expect(initial == facts["ledger"]["initial"], "ledger_exposure: differs from facts")),
        ("ledger_cycle", lambda: _check_cycle_exposure(cycle, facts["ledger"]["cycles"][0])),
    ]


@dataclass(frozen=True)
class Workload:
    """A CLI script and an API pass; README.md says why each workload exists."""

    name: str
    script: Callable[[Inputs, int], list[tuple[str, list[str]]]]
    api: Callable[[Inputs], list[Check]]
    # the script walks the generator's ledger plan, one cycle per pass
    follows_plan: bool = False
    # API passes timed back to back in one sample, so that a sample lasts
    # about a second and spans the host's fast and slow stretches
    api_repeat: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("edit-small", script_edit_small, api_edit_small, api_repeat=8),
        Workload("report-500", script_report, api_report),
        Workload("parse-1k", script_parse, api_parse),
        Workload("ledger-2k", script_ledger, api_ledger, follows_plan=True),
    )
}
