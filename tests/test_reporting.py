import dataclasses
import json
import shutil

import pytest

from docfootprint import (
    ConfigError,
    Scenario,
    build_bundle,
    emit_bundle_json,
    emit_plot_data,
    emit_table,
    load_config,
    run_pipeline,
)
from docfootprint.reporting import present, present_pct


@pytest.fixture(scope="module")
def bundle(config):
    return build_bundle(config, "manual")


@pytest.fixture(scope="module")
def full_bundle(config, invoice_text, prompt_text, measured_ledger):
    result = run_pipeline(invoice_text, prompt_text,
                          config.profiles[config.usecase_profile],
                          ledger_override=measured_ledger)
    return build_bundle(config, "manual", usecase=result)


def test_present_half_up():
    assert str(present(16.165, 1)) == "16.2"
    assert str(present(6.085, 1)) == "6.1"
    assert str(present(4.86, 1)) == "4.9"
    assert present_pct(89.4709810) == 90
    assert present_pct(83.1955922) == 83
    assert present_pct(26.5432098) == 27


def test_load_config_bundled(config):
    assert sorted(config.profiles) == ["flash-prompt-2025", "usecase-2025"]
    assert [s.name for s in config.scenarios] == ["manual", "hitl", "agentic"]
    assert config.scenario_profile == "flash-prompt-2025"
    assert config.usecase_profile == "usecase-2025"
    assert len(config.config_hash) == 64


def test_config_hash_stable(data_dir):
    first = load_config(data_dir / "config.json")
    second = load_config(data_dir / "config.json")
    assert first.config_hash == second.config_hash


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="file not found"):
        load_config(tmp_path / "absent.json")


def test_load_config_empty_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    with pytest.raises(ConfigError, match=r"/profiles: missing required key"):
        load_config(path)


def test_load_config_rejects_low_pue(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["profiles"]["flash-prompt-2025"]["pue"] = 0.9
    raw["scenarios"] = []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="pue >= 1") as exc:
        load_config(path)
    assert "/profiles/flash-prompt-2025" in str(exc.value)


def test_load_config_rejects_unknown_key(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["surprise"] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="/surprise: unknown key"):
        load_config(path)


def test_load_config_rejects_unknown_profile_binding(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenario_profile"] = "nope"
    raw["scenarios"] = []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="unknown profile"):
        load_config(path)


def test_load_config_missing_scenario_file(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenarios"] = ["gone.json"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=r"/scenarios/0: file not found"):
        load_config(path)


def test_scenario_refs_resolve_as_before(tmp_path, data_dir):
    # conf/link points at real/sub, so link/.. is real/ (the kernel walks
    # .. from the link's target), not conf/ where a decoy set lives.
    real, conf = tmp_path / "real", tmp_path / "conf"
    (real / "sub").mkdir(parents=True)
    shutil.copytree(data_dir / "scenarios", real / "scenarios")
    shutil.copytree(data_dir / "scenarios", conf / "scenarios")
    decoy = conf / "scenarios" / "manual.json"
    decoy.write_text(decoy.read_text().replace('"manual"', '"decoy"'))
    (conf / "link").symlink_to(real / "sub", target_is_directory=True)
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenarios"] = [f"link/../{ref}" for ref in raw["scenarios"]]
    path = conf / "config.json"
    path.write_text(json.dumps(raw))
    bundled = load_config(data_dir / "config.json")
    assert load_config(path).scenarios == bundled.scenarios

    raw["scenarios"][1] = "link/../scenarios/missing.json"
    path.write_text(json.dumps(raw))
    missing = tmp_path.resolve() / "real" / "scenarios" / "missing.json"
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"/scenarios/1: file not found: {missing}"


def test_load_config_scenario_pointer(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenarios"] = ["bad.json"]
    (tmp_path / "bad.json").write_text(json.dumps({"name": "x"}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=r"/scenarios/0: daily_volume"):
        load_config(path)


def test_config_round_trip_matches_raw(config, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    for name, profile in config.profiles.items():
        assert profile.to_json_obj() == raw["profiles"][name]
    for scenario, ref in zip(config.scenarios, raw["scenarios"]):
        scenario_raw = json.loads((data_dir / ref).read_text())
        assert scenario.to_json_obj() == scenario_raw


def test_build_bundle_unknown_baseline(config):
    with pytest.raises(ValueError, match="unknown scenario"):
        build_bundle(config, "nope")


def test_increase_overflow_names_candidate_and_metric(config):
    # A subnormal manual footprint overflows the hitl-over-manual increase.
    obj = config.scenarios[0].to_json_obj()
    obj.update(operators_override=[0, 0], overhead_kwh_per_day=1e-308)
    tiny = dataclasses.replace(config, scenarios=(Scenario.from_json_obj(obj),
                                                  *config.scenarios[1:]))
    with pytest.raises(ConfigError) as exc:
        build_bundle(tiny, "agentic")
    assert str(exc.value) == "/scenarios/1: energy increase vs manual: lo: must be finite, got inf"


def test_scenario_table_markdown(bundle):
    text = emit_table(bundle, "scenario_table", "markdown")
    assert "| manual | 70 -- 400 | 36.3 -- 194.7 | 10.5 -- 56.1 | 6.5 -- 58.4 | 0.000000 |" in text
    assert "| hitl | 7 -- 28 | 6.1 -- 16.2 | 1.8 -- 4.7 | 1.1 -- 4.9 | 0.000545 |" in text
    assert "| agentic | 7 -- 28 | 10.1 -- 20.2 | 2.9 -- 5.8 | 1.8 -- 6.1 | 0.001345 |" in text


def test_scenario_table_json_digits(bundle):
    obj = json.loads(emit_table(bundle, "scenario_table", "json"))
    rows = {r["scenario"]: r for r in obj["rows"]}
    assert rows["manual"]["energy_kwh_per_day"] == [36.3, 194.7]
    assert rows["manual"]["co2_kg_per_day"] == [10.5, 56.1]
    assert rows["manual"]["water_l_per_day"] == [6.5, 58.4]
    assert rows["hitl"]["energy_kwh_per_day"] == [6.1, 16.2]
    assert rows["hitl"]["co2_kg_per_day"] == [1.8, 4.7]
    assert rows["hitl"]["water_l_per_day"] == [1.1, 4.9]
    assert rows["agentic"]["energy_kwh_per_day"] == [10.1, 20.2]
    assert rows["agentic"]["energy_per_doc_kwh"] == 0.001345


def test_reduction_table_csv_shape(bundle):
    text = emit_table(bundle, "reduction_table", "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header + 3 metric rows
    assert lines[0].startswith("metric,")
    assert lines[1].split(",")[0] == "energy"


def test_reduction_table_values(bundle):
    obj = json.loads(emit_table(bundle, "reduction_table", "json"))
    energy = next(r for r in obj["rows"] if r["metric"] == "energy")
    assert energy["reductions"]["hitl"] == [83, 92]
    assert energy["reductions"]["agentic"] == [72, 90]
    assert energy["increases"]["agentic_vs_hitl"] == [25, 66]


def test_token_table(full_bundle):
    obj = json.loads(emit_table(full_bundle, "token_table", "json"))
    shares = {r["component"]: r["share_pct"] for r in obj["rows"]}
    assert shares == {"document": 75.8, "prompt": 10.6, "output": 1.8, "thinking": 11.8}
    assert obj["total_tokens"] == 11_906
    assert obj["total_share_pct"] == 100.0
    assert obj["source"] == "measured"


def test_token_table_requires_usecase(bundle):
    with pytest.raises(ValueError, match="no usecase data"):
        emit_table(bundle, "token_table", "markdown")


def test_emit_rejects_unknown_table_and_format(bundle):
    with pytest.raises(ValueError, match="unknown table"):
        emit_table(bundle, "mystery", "markdown")
    with pytest.raises(ValueError, match="unknown format"):
        emit_table(bundle, "scenario_table", "yaml")


def _md_range(cell):
    lo, hi = cell.split(" -- ")
    return [float(lo), float(hi)]


def test_formats_encode_identical_numbers(bundle):
    obj = json.loads(emit_table(bundle, "scenario_table", "json"))
    json_rows = {r["scenario"]: r for r in obj["rows"]}

    csv_lines = emit_table(bundle, "scenario_table", "csv").strip().split("\n")
    header = csv_lines[0].split(",")
    for line in csv_lines[1:]:
        cells = dict(zip(header, line.split(",")))
        row = json_rows[cells["scenario"]]
        assert [float(cells["energy_kwh_lo"]), float(cells["energy_kwh_hi"])] == \
            row["energy_kwh_per_day"]
        assert [float(cells["water_l_lo"]), float(cells["water_l_hi"])] == \
            row["water_l_per_day"]
        assert float(cells["energy_per_doc_kwh"]) == row["energy_per_doc_kwh"]

    md_lines = [l for l in emit_table(bundle, "scenario_table", "markdown").splitlines()
                if l.startswith("|") and "---" not in l][1:]
    for line in md_lines:
        cells = [c.strip() for c in line.strip("|").split("|")]
        row = json_rows[cells[0]]
        assert _md_range(cells[2]) == row["energy_kwh_per_day"]
        assert _md_range(cells[3]) == row["co2_kg_per_day"]
        assert _md_range(cells[4]) == row["water_l_per_day"]


def test_plot_data(bundle):
    records = json.loads(emit_plot_data(bundle))
    assert len(records) == 9  # 3 scenarios x 3 metrics
    table = json.loads(emit_table(bundle, "scenario_table", "json"))
    rows = {r["scenario"]: r for r in table["rows"]}
    for record in records:
        lo, hi = rows[record["scenario"]][record["metric"]]
        assert record["lo"] == lo
        assert record["hi"] == hi
        assert record["mid"] == pytest.approx((lo + hi) / 2, abs=1e-9)


def test_plot_data_single_scenario(config):
    single = build_bundle(dataclasses.replace(config, scenarios=config.scenarios[:1]), "manual")
    assert len(json.loads(emit_plot_data(single))) == 3


def test_emission_is_pure(bundle):
    for which in ("scenario_table", "reduction_table"):
        for fmt in ("markdown", "csv", "json"):
            assert emit_table(bundle, which, fmt) == emit_table(bundle, which, fmt)
    assert emit_plot_data(bundle) == emit_plot_data(bundle)


def test_bundle_json_has_hash_but_no_timestamp(full_bundle, config):
    text = emit_bundle_json(full_bundle)
    obj = json.loads(text)
    assert obj["metadata"]["config_hash"] == config.config_hash
    assert "generated_at" not in text
    assert "token_table" in obj


def test_bundle_json_is_one_whole_dump(config, invoice_text, prompt_text, perfbench_gen,
                                       tmp_path):
    """bundle.json reads as json.dumps(indent=2) of its members in order."""
    usecase = run_pipeline(invoice_text, prompt_text, config.profiles[config.usecase_profile])
    odd = 'hitl ü ✓ "q" \\ \n'
    renamed = dataclasses.replace(config, scenarios=(
        config.scenarios[0], dataclasses.replace(config.scenarios[1], name=odd),
        config.scenarios[2]))
    cases = [(config, "manual"), (renamed, "manual"), (renamed, odd),
             (dataclasses.replace(config, scenarios=config.scenarios[:1]), "manual")]
    cases += [(load_config(d.path / "config.json"), d.baseline)
              for d in perfbench_gen.config_dirs(1, tmp_path)]
    for cfg, baseline in cases:
        for result in (None, usecase):
            b = build_bundle(cfg, baseline, usecase=result)
            whole = {"metadata": {"profile": cfg.scenario_profile,
                                  "config_hash": cfg.config_hash},
                     "scenario_table": json.loads(emit_table(b, "scenario_table", "json")),
                     "reduction_table": json.loads(emit_table(b, "reduction_table", "json")),
                     "plot_data": json.loads(emit_plot_data(b))}
            if result is not None:
                whole["token_table"] = json.loads(emit_table(b, "token_table", "json"))
            assert emit_bundle_json(b) == json.dumps(whole, indent=2) + "\n"
