"""Footprint modeling for document-processing workflows.

Converts token counts, workforce parameters, and data-center
efficiency factors into energy, CO2, and water footprints for manual,
AI-assisted, and agentic scenarios, and ships a deterministic invoice
extraction pipeline with full token and energy accounting.
"""

from .core import (
    Carbon,
    Energy,
    FootprintProfile,
    Interval,
    Water,
    apply_pue,
    co2_from_energy,
    inference_energy,
    interval_add,
    interval_scale,
    prompt_co2,
    thinking_delta,
    water_from_energy,
)
from .pipeline import (
    InvoiceParseError,
    LineItem,
    TokenLedger,
    count_tokens,
    footprint_from_ledger,
    ledger_shares,
    normalize_energy,
    parse_invoice,
    render_output_json,
    run_pipeline,
    verify_items,
)
from .reference import get_deviation
from .reporting import (
    ConfigError,
    build_bundle,
    emit_bundle_json,
    emit_plot_data,
    emit_table,
    load_config,
)
from .scenarios import (
    DailyFootprint,
    PipelineStage,
    Scenario,
    WorkforceParams,
    cloud_energy_per_doc,
    compare_scenarios,
    docs_per_operator_day,
    evaluate_scenario,
    incremental_cost,
    operators_required,
)

__version__ = "0.1.0"

# What the CLI, the tests and the README example import from the package;
# the benchmark also reads several of these as package attributes. Result
# records such as Config or ScenarioComparison stay in their modules.
__all__ = [
    "Carbon", "ConfigError", "DailyFootprint", "Energy", "FootprintProfile",
    "Interval", "InvoiceParseError", "LineItem", "PipelineStage", "Scenario",
    "TokenLedger", "Water", "WorkforceParams",
    "apply_pue", "build_bundle", "cloud_energy_per_doc", "co2_from_energy",
    "compare_scenarios", "count_tokens", "docs_per_operator_day",
    "emit_bundle_json", "emit_plot_data", "emit_table", "evaluate_scenario",
    "footprint_from_ledger", "get_deviation", "incremental_cost",
    "inference_energy", "interval_add", "interval_scale", "ledger_shares",
    "load_config", "normalize_energy", "operators_required", "parse_invoice",
    "prompt_co2", "render_output_json", "run_pipeline", "thinking_delta",
    "verify_items", "water_from_energy",
]
