"""Tests for the declarative scenario loader (``repro.serve.scenario``).

Scenarios are validated eagerly and completely at load time — every
unknown key, unknown network, or out-of-range knob is a
:class:`ScenarioError` naming the offender, never a mid-run surprise.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import ScenarioError, load_scenario
from repro.serve.scenario import scenario_from_dict


def minimal(**overrides):
    data = {
        "scenario": {"name": "t"},
        "fleet": {"devices": "gp102:2"},
        "serving": {"scheduler": "least-loaded", "slo_ms": 30.0},
        "tenants": [
            {
                "name": "only",
                "slo_ms": 30.0,
                "arrival": {
                    "kind": "poisson",
                    "rps": 100.0,
                    "requests": 50,
                    "networks": ["gru"],
                },
            },
        ],
    }
    data.update(overrides)
    return data


class TestHappyPath:
    def test_minimal_scenario(self):
        scenario = scenario_from_dict(minimal())
        assert scenario.name == "t"
        assert scenario.networks == ("gru",)
        assert [t.name for t in scenario.tenants] == ["only"]
        assert scenario.config.scheduler == "least-loaded"
        assert scenario.config.slo_ms == 30.0
        assert scenario.autoscale is None
        assert len(scenario.fleet()) == 2

    def test_defaults_flow_through(self):
        scenario = scenario_from_dict(minimal())
        assert scenario.seed == 0
        assert scenario.config.admission == "none"

    def test_full_scenario_round_trip(self):
        data = minimal()
        data["scenario"].update(seed=9, description="d")
        data["admission"] = {
            "policy": "slo-aware",
            "priority_fill": [1.0, 0.5],
            "slo_slack": 2.0,
        }
        data["autoscale"] = {
            "template": "gp102",
            "min_devices": 1,
            "max_devices": 4,
        }
        scenario = scenario_from_dict(data)
        assert scenario.seed == 9
        assert scenario.config.admission == "slo-aware"
        assert scenario.autoscale.max_devices == 4
        described = scenario.describe()
        assert described["scenario"] == "t"
        assert described["admission"] == "slo-aware"
        assert "gp102" in described["autoscale"]
        # The pipeline builds with the declared admission kwargs.
        pipeline = scenario.pipeline()
        assert pipeline.admission.priority_fill == (1.0, 0.5)

    def test_workload_mixes_all_arrival_kinds(self):
        data = minimal()
        data["tenants"] = [
            {"name": "a", "slo_ms": 10.0, "arrival": {
                "kind": "poisson", "rps": 10.0, "requests": 5,
                "networks": ["gru"]}},
            {"name": "b", "slo_ms": 10.0, "arrival": {
                "kind": "bursty", "rps": 10.0, "requests": 5,
                "networks": ["alexnet"], "on_ms": 5.0, "off_ms": 5.0}},
            {"name": "c", "slo_ms": 10.0, "arrival": {
                "kind": "diurnal", "base_rps": 10.0, "requests": 5,
                "networks": ["gru"], "period_ms": 100.0}},
            {"name": "d", "slo_ms": 10.0, "priority": 1, "arrival": {
                "kind": "closed", "clients": 2, "requests": 5,
                "networks": ["gru"], "think_ms": 1.0}},
        ]
        scenario = scenario_from_dict(data)
        workload = scenario.workload()
        assert [t.name for t in workload.tenants] == ["a", "b", "c", "d"]
        assert scenario.networks == ("alexnet", "gru")


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="serv1ng"):
            scenario_from_dict({**minimal(), "serv1ng": {}})

    def test_unknown_serving_key(self):
        data = minimal()
        data["serving"]["schduler"] = "x"
        with pytest.raises(ScenarioError, match="schduler"):
            scenario_from_dict(data)

    def test_unknown_network_named(self):
        data = minimal()
        data["tenants"][0]["arrival"]["networks"] = ["transformer9000"]
        with pytest.raises(ScenarioError, match="transformer9000"):
            scenario_from_dict(data)

    def test_unknown_scheduler(self):
        data = minimal()
        data["serving"]["scheduler"] = "psychic"
        with pytest.raises(ScenarioError, match="psychic"):
            scenario_from_dict(data)

    def test_unknown_loop(self):
        # There is one event loop, so ``loop`` is an unknown key.
        data = minimal()
        data["scenario"]["loop"] = "fast"
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(data)
        assert str(exc.value) == (
            "serve scenario: unknown key 'loop' in [scenario]; "
            "known keys: name, description, seed"
        )

    def test_unknown_arrival_kind(self):
        data = minimal()
        data["tenants"][0]["arrival"]["kind"] = "fractal"
        with pytest.raises(ScenarioError, match="fractal"):
            scenario_from_dict(data)

    def test_arrival_key_from_wrong_kind(self):
        data = minimal()
        # think_ms belongs to closed-loop arrivals, not poisson.
        data["tenants"][0]["arrival"]["think_ms"] = 5.0
        with pytest.raises(ScenarioError, match="think_ms"):
            scenario_from_dict(data)

    def test_bad_admission_kwargs_fail_at_load(self):
        data = minimal()
        data["admission"] = {"policy": "slo-aware", "slo_slack": -1.0}
        with pytest.raises(ScenarioError, match="slo_slack"):
            scenario_from_dict(data)

    def test_bad_autoscale_bounds_fail_at_load(self):
        data = minimal()
        data["autoscale"] = {
            "template": "gp102", "min_devices": 5, "max_devices": 2,
        }
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key,value,message", [
        ("max_batch", 0, "max_batch must be >= 1, got 0"),
        ("batch_timeout_ms", -1.0, "batch_timeout_ms must be >= 0, got -1.0"),
        ("max_queue", 0, "max_queue must be >= 1, got 0"),
        ("slo_ms", 0.0, "slo_ms must be > 0, got 0.0"),
    ])
    def test_out_of_range_serving_knob(self, key, value, message):
        data = minimal()
        data["serving"][key] = value
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(data)
        assert str(exc.value) == f"serve scenario: {message}"

    def test_missing_tenants(self):
        data = minimal()
        data["tenants"] = []
        with pytest.raises(ScenarioError, match="tenant"):
            scenario_from_dict(data)

    def test_non_table_sections_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({**minimal(), "serving": "fast please"})


class TestFileLoading:
    def test_toml_file(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            "[scenario]\nname = \"from-toml\"\n"
            "[fleet]\ndevices = \"gp102:1\"\n"
            "[serving]\nslo_ms = 25.0\n"
            "[[tenants]]\nname = \"t\"\nslo_ms = 25.0\n"
            "[tenants.arrival]\nkind = \"poisson\"\nrps = 50.0\n"
            "requests = 10\nnetworks = [\"gru\"]\n"
        )
        scenario = load_scenario(path)
        assert scenario.name == "from-toml"
        assert scenario.networks == ("gru",)

    def test_json_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal()))
        scenario = load_scenario(path)
        assert scenario.name == "t"

    def test_suffixless_file_tries_both_formats(self, tmp_path):
        path = tmp_path / "scenario"
        path.write_text(json.dumps(minimal()))
        assert load_scenario(path).name == "t"

    def test_dict_passthrough(self):
        assert load_scenario(minimal()).name == "t"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.toml")

    def test_malformed_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[scenario\nname=")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_trace_paths_resolve_against_scenario_dir(self, tmp_path):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([
            {"time_ms": 0.0, "network": "gru"},
            {"time_ms": 1.0, "network": "gru"},
        ]))
        data = minimal()
        data["tenants"][0]["arrival"] = {
            "kind": "trace", "path": "arrivals.json",
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        scenario = load_scenario(path)
        assert scenario.networks == ("gru",)

    def test_committed_examples_load(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parents[1] / "examples"
        day = load_scenario(examples / "day_in_the_life.toml")
        assert [t.name for t in day.tenants] == [
            "interactive", "scoring", "reporting",
        ]
        assert len(day.fleet()) == 100
        smoke = load_scenario(examples / "serve_scale.toml")
        assert len(smoke.fleet()) == 20
        assert smoke.autoscale is not None
