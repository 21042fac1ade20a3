"""Randomized invariant suites with a fixed seed.

Each suite is a plain function so the acceptance tests can re-run it;
the test_* wrappers below execute them at full case counts.
"""

import json
import math
import random

from docfootprint import (
    Carbon,
    Energy,
    FootprintProfile,
    Interval,
    Scenario,
    TokenLedger,
    Water,
    co2_from_energy,
    compare_scenarios,
    evaluate_scenario,
    footprint_from_ledger,
    incremental_cost,
    inference_energy,
    interval_scale,
    load_config,
    water_from_energy,
)
from docfootprint.pipeline import Footprint

SEED = 20260826


def _random_interval(rng, scale=1000.0):
    lo = rng.uniform(0.0, scale)
    return Interval(lo, lo + rng.uniform(0.0, scale))


def run_interval_suite(cases=10_000, seed=SEED):
    """Closure and identity of interval scaling."""
    rng = random.Random(seed)
    zero = Interval(0.0, 0.0)
    for _ in range(cases):
        a = _random_interval(rng)
        _random_interval(rng)  # unused; keeps the seeded sequence of draws
        k = rng.uniform(0.0, 50.0)

        scaled = interval_scale(a, k)
        assert scaled.lo <= scaled.hi
        assert interval_scale(a, 1.0) == a
        assert interval_scale(a, 0.0) == zero
        assert a.contains(a.midpoint())


def run_linearity_suite(cases=10_000, seed=SEED):
    """inference_energy(a + b) equals the split sum to within 2 ulp.

    The evaluation order tokens * rate / 1000 (kept so that reference
    workloads land on exact binary values) costs one more rounding step
    than a pre-divided rate would, hence 2 ulp rather than 1.
    """
    rng = random.Random(seed)
    rates = [0.24, 30.0]
    for _ in range(cases):
        rate = rng.choice(rates + [rng.uniform(0.01, 100.0)])
        total_tokens = rng.randint(0, 10_000_000)
        a = rng.randint(0, total_tokens)
        b = total_tokens - a
        whole = inference_energy(total_tokens, rate)
        split = inference_energy(a, rate) + inference_energy(b, rate)
        assert abs(split - whole) <= 2 * math.ulp(whole)
        assert whole >= 0.0


def run_footprint_suite(cases=10_000, seed=SEED):
    """ExtractionResult footprints equal an independent recomputation."""
    rng = random.Random(seed)
    profiles = []
    for i in range(20):
        wue_lo = rng.uniform(0.01, 0.5)
        profiles.append(FootprintProfile(
            name=f"random-{i}",
            rate=rng.uniform(0.1, 50.0),
            pue=rng.uniform(1.0, 2.0),
            wue=Interval(wue_lo, wue_lo + rng.uniform(0.0, 0.5)),
            emission_factor_g_per_kwh=rng.uniform(100.0, 1000.0),
            co2_per_prompt_g=0.03,
        ))
    for _ in range(cases):
        ledger = TokenLedger(
            document=rng.randint(0, 1_000_000),
            prompt=rng.randint(0, 100_000),
            output=rng.randint(0, 100_000),
            thinking=rng.randint(0, 1_000_000),
            source=rng.choice(["measured", "estimated"]),
        )
        profile = rng.choice(profiles)
        fp = footprint_from_ledger(ledger, profile)
        kwh = inference_energy(ledger.total(), profile.rate) / 1000.0
        expected = Footprint(
            energy=Energy(kwh),
            co2=Carbon(co2_from_energy(kwh, profile.emission_factor_g_per_kwh)),
            water=Water(water_from_energy(kwh, profile.wue)),
        )
        assert fp == expected
        water = fp.water.liters
        assert water.lo <= water.hi


def _random_config_obj(rng, n_scenarios):
    profiles = {}
    for i in range(2):
        wue_lo = rng.uniform(0.01, 0.5)
        profiles[f"profile-{i}"] = {
            "rate_wh_per_ktok": rng.uniform(0.01, 50.0),
            "pue": rng.uniform(1.0, 2.0),
            "wue_l_per_kwh": [wue_lo, wue_lo + rng.uniform(0.0, 0.5)],
            "emission_factor_g_per_kwh": rng.uniform(100.0, 1000.0),
            "co2_per_prompt_g": rng.uniform(0.0, 1.0),
        }
    scenario_objs = []
    for i in range(n_scenarios):
        per_doc_lo = rng.uniform(1.0, 600.0)
        productive = rng.uniform(1.0, 8.0)
        override = None
        if rng.random() < 0.5:
            lo = rng.randint(1, 50)
            override = [lo, lo + rng.randint(0, 400)]
        scenario_objs.append({
            "name": f"scenario-{i}",
            "daily_volume": rng.randint(1, 10_000),
            "workforce": {
                "shift_hours": 8.0,
                "productive_hours": productive,
                "buffer": rng.uniform(1.0, 2.0),
                "per_doc_time_s": [per_doc_lo, per_doc_lo + rng.uniform(0.0, 3000.0)],
                "laptop_kwh_per_day": rng.uniform(0.0, 2.0),
            },
            "stages": [{"name": f"stage-{j}", "energy_wh_per_doc": rng.uniform(0.0, 2.0)}
                       for j in range(rng.randint(0, 3))],
            "overhead_kwh_per_day": rng.uniform(0.0, 5.0),
            "operators_override": override,
        })
    config_obj = {
        "profiles": profiles,
        "scenario_profile": "profile-0",
        "usecase_profile": "profile-1",
        "scenarios": [f"scenario_{i}.json" for i in range(n_scenarios)],
    }
    return config_obj, scenario_objs


def run_config_roundtrip_suite(tmp_dir, cases=100, seed=SEED):
    """load_config then re-serialize reproduces the raw JSON objects."""
    rng = random.Random(seed)
    for case in range(cases):
        config_obj, scenario_objs = _random_config_obj(rng, rng.randint(1, 3))
        path = tmp_dir / "config.json"
        path.write_text(json.dumps(config_obj), encoding="utf-8")
        for i, obj in enumerate(scenario_objs):
            (tmp_dir / f"scenario_{i}.json").write_text(json.dumps(obj), encoding="utf-8")
        config = load_config(path)
        for name, profile in config.profiles.items():
            assert profile.to_json_obj() == config_obj["profiles"][name]
        assert [s.to_json_obj() for s in config.scenarios] == scenario_objs
        again = load_config(path)
        assert again.config_hash == config.config_hash
        assert [Scenario.from_json_obj(s.to_json_obj()) for s in config.scenarios] == \
            list(config.scenarios)


def _assert_trusted(iv):
    """Float endpoints, finite, in order: what Interval() would accept."""
    assert type(iv.lo) is float and type(iv.hi) is float
    assert math.isfinite(iv.lo) and math.isfinite(iv.hi)
    assert iv.lo <= iv.hi


def run_trusted_results_suite(cases=2_000, seed=SEED):
    """Every interval the scenario layer computes is one Interval() accepts,
    and every footprint figure is non-negative."""
    rng = random.Random(seed)
    previous = None
    for _ in range(cases):
        config_obj, scenario_objs = _random_config_obj(rng, 2)
        for obj in scenario_objs:
            # Spread volumes and stage energies over many magnitudes.
            obj["daily_volume"] = rng.randint(0, 10 ** rng.randint(0, 12))
            for stage in obj["stages"]:
                stage["energy_wh_per_doc"] *= 10.0 ** rng.randint(-300, 6)
        profile = FootprintProfile.from_json_obj("p", config_obj["profiles"]["profile-0"])
        base, candidate = (evaluate_scenario(Scenario.from_json_obj(obj), profile)
                           for obj in scenario_objs)
        for fp in (base, candidate):
            for iv in (fp.operators, fp.energy_kwh, fp.co2_kg, fp.water_l):
                _assert_trusted(iv)
                assert iv.lo >= 0, (fp, iv)
            assert fp.energy_per_doc_kwh >= 0, fp
        if base.energy_kwh.lo > 0:
            comparison = compare_scenarios(base, candidate)
            for iv in (comparison.energy_reduction_pct, comparison.co2_reduction_pct,
                       comparison.water_reduction_pct):
                _assert_trusted(iv)
        if previous is not None and previous.energy_kwh.lo > 0:
            _assert_trusted(incremental_cost(previous, candidate))
        previous = candidate


def test_interval_properties():
    run_interval_suite()


def test_inference_energy_linearity():
    run_linearity_suite()


def test_footprint_consistency():
    run_footprint_suite()


def test_config_round_trip(tmp_path):
    run_config_roundtrip_suite(tmp_path)


def test_computed_intervals_are_trusted():
    run_trusted_results_suite()
