"""Hazard analysis for control structures with AI-containing components.

The package models a system as a control loop (controller, actuator,
controlled process, sensor), enumerates unsafe control actions,
classifies loss scenarios against a causal-factor catalog, traces causal
pathways, and renders characterization tables in both reading
directions.

Typical flow::

    from stpa_loc import dsl, analysis, catalog, report

    model, diags = dsl.parse_model(source)
    ucas = analysis.enumerate_ucas(model)
    prompts = catalog.generate_prompts(catalog.load_catalog(), model)
    rows = report.build_table(scenarios, model,
                              report.TableDirection.EFFECT_TO_CAUSE)
    print(report.render_csv(rows, report.TableDirection.EFFECT_TO_CAUSE))
"""

import importlib

# Each public name and the submodule that defines it. Names load on first
# access (PEP 562), so a command imports only the submodules it runs.
_HOME = {
    name: module
    for module, names in {
        "model": (
            "AgentNature", "AiCharacteristic", "CausalFactorType", "Component",
            "ComponentKind", "ControlAction", "ControlStructureModel", "Diagnostic",
            "FeedbackChannel", "Hazard", "InvalidModel", "LedgerSource", "LifecyclePhase",
            "Loss", "LossScenario", "RecordSeverity", "SafetyConstraint", "ScenarioSubType",
            "ScenarioType", "Severity", "SourceSpan", "TableDirection", "UcaAnnotation",
            "UcaType", "UnsafeControlAction", "format_diagnostic", "has_errors",
            "model_fingerprint", "validate_model",
        ),
        "dsl": ("parse_model", "parse_scenarios", "serialize_model"),
        "catalog": (
            "Catalog", "CatalogEntry", "CatalogFormatError", "Prompt",
            "filter_entries", "generate_prompts", "load_catalog",
        ),
        "analysis": (
            "Ledger", "LedgerFormatError", "Pathway", "PathwayStage", "StageKind",
            "VulnerabilityRecord", "classify_scenario", "derive_constraints", "enumerate_ucas",
            "ledger_exposure", "ledger_load", "ledger_register", "ledger_resolve", "ledger_save",
            "match_catalog", "trace_pathway",
        ),
        "report": (
            "CharacterizationRow", "build_table", "render_csv", "render_json",
            "render_markdown", "render_pathway",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]
