"""Tests for the declarative sweep registry (repro.core.registry)."""

import json

import pytest

from repro import api
from repro.core import registry
from repro.core.registry import (
    REGISTRY,
    ScenarioSpec,
    SweepSpec,
    access,
    adhoc_sweep,
    backbone,
    get,
)
from repro.core.scenarios import access_scenario
from repro.runner import CellTask, GridRunner, ResultCache

PAPER_NAMES = ("fig4-up", "fig4-down", "fig5", "table1-access",
               "table1-backbone", "fig7a", "fig7b", "fig8", "fig9a",
               "fig9b", "fig10a", "fig10b", "fig11")
EXTENSION_NAMES = ("aqm-voip", "aqm-video", "aqm-web", "wireless-voip",
                   "wireless-qos", "bufferbloat-mixed")


def runner_for(tmp_path):
    return GridRunner(workers=1, progress=False,
                      cache=ResultCache(directory=str(tmp_path), enabled=True))


class TestScenarioSpec:
    def test_build_access(self):
        scenario = access("long-many", "bidir").build()
        assert scenario.testbed == "access"
        assert scenario.up_flows == 8 and scenario.down_flows == 64

    def test_build_backbone_ignores_direction(self):
        scenario = backbone("short-low").build()
        assert scenario.testbed == "backbone"
        assert scenario.direction == "down"

    def test_loss_plumbs_into_scenario(self):
        scenario = access("long-few", "up", loss=0.02).build()
        assert scenario.down_loss == 0.02
        assert scenario.up_loss == 0.02
        assert scenario.is_lossy

    def test_key_defaults_to_workload(self):
        assert access("noBG").key == "noBG"
        assert access("noBG", label="clean").key == "clean"

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("space", "noBG")
        with pytest.raises(ValueError):
            ScenarioSpec("access", "noBG", loss=1.5)

    def test_json_round_trip(self):
        spec = access("long-few", "up", loss=0.01, label="lossy")
        assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestRegistryCatalog:
    def test_all_paper_grids_registered(self):
        for name in PAPER_NAMES:
            assert get(name).provenance != "extension"

    def test_extension_families_registered(self):
        for name in EXTENSION_NAMES:
            assert get(name).provenance == "extension"
        # The issue's acceptance bar: at least three new families.
        families = {name.split("-")[0] for name in EXTENSION_NAMES}
        assert len(families) >= 3

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get("fig99")

    def test_names_cover_registry(self):
        assert set(registry.names()) == set(REGISTRY)
        assert (len(registry.paper_sweeps())
                + len(registry.extension_sweeps())) == len(REGISTRY)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            registry.register(get("fig5"))

    def test_every_spec_json_round_trips(self):
        for spec in REGISTRY.values():
            data = json.loads(json.dumps(spec.to_json()))
            assert SweepSpec.from_json(data) == spec, spec.name

    def test_every_spec_lowers_to_tasks(self):
        for spec in REGISTRY.values():
            tasks = spec.tasks(scale=1.0)
            assert len(tasks) == spec.cell_count(scale=1.0), spec.name
            assert len(tasks) == len(spec.cells(scale=1.0)), spec.name
            for task in tasks:
                assert task.content_hash()


class TestSweepSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SweepSpec(name="x", kind="quantum", title="", provenance="")

    def test_unknown_discipline(self):
        with pytest.raises(ValueError):
            SweepSpec(name="x", kind="qos", title="", provenance="",
                      disciplines=("madmax",))

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            SweepSpec(name="x", kind="qos", title="", provenance="",
                      scenarios=(access("noBG", "down"),
                                 access("noBG", "up")))


class TestScaleResolution:
    def test_duration_floor(self):
        spec = get("fig5")  # duration 15 s, floor 10 s
        assert spec.resolved_duration(scale=1.0) == 15.0
        assert spec.resolved_duration(scale=0.1) == 10.0
        assert spec.resolved_duration(scale=4.0) == 60.0

    def test_axis_switching(self):
        spec = get("fig7b")
        assert len(spec.scenario_axis(scale=1.0)) == 3
        assert len(spec.scenario_axis(scale=4.0)) == 5
        assert spec.buffer_axis(scale=1.0) == (8, 64, 256)
        assert len(spec.buffer_axis(scale=4.0)) == 6

    def test_count_scaling(self):
        spec = get("fig10a")  # fetches base 8, floor 4
        assert spec.resolved_counts(scale=1.0) == {"fetches": 8}
        assert spec.resolved_counts(scale=0.25) == {"fetches": 4}
        assert spec.resolved_counts(scale=2.0) == {"fetches": 16}

    def test_env_scale_used_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4")
        assert registry.resolve_scale() == 4.0
        assert len(get("fig7b").scenario_axis()) == 5

    @pytest.mark.parametrize("value", ["fast", "-3", "0", "inf", "nan"])
    def test_bad_env_scale_raises_naming_it(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SCALE", value)
        with pytest.raises(ValueError, match="REPRO_SCALE='%s'" % value):
            registry.resolve_scale()
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            get("fig10a").describe()

    @pytest.mark.parametrize("value", [-2.0, 0, float("inf"),
                                       float("nan")])
    def test_bad_explicit_scale_raises_naming_it(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SCALE", "4")
        with pytest.raises(ValueError, match=r"scale=%r" % value):
            registry.resolve_scale(value)

    def test_explicit_scale_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4")
        assert registry.resolve_scale(0.5) == 0.5
        monkeypatch.delenv("REPRO_SCALE")
        assert registry.resolve_scale() == 1.0

    def test_describe_is_jsonable(self):
        for spec in REGISTRY.values():
            json.dumps(spec.describe(scale=1.0))


class TestTaskEquivalence:
    def test_fig5_spec_encodes_benchmark_grid(self):
        """The registered fig5 cells ARE the benchmark's historical grid."""
        spec = get("fig5")
        expected = [
            CellTask.make("qos", access_scenario("long-many", "bidir"),
                          packets, seed=1, warmup=8.0, duration=15.0)
            for packets in (8, 16, 32, 64, 128, 256)
        ]
        assert ([task.content_hash() for task in spec.tasks(scale=1.0)]
                == [task.content_hash() for task in expected])

    def test_aqm_axis_multiplies_disciplines(self):
        spec = get("aqm-voip")
        tasks = spec.tasks(scale=1.0)
        assert {task.discipline for task in tasks} == {"droptail", "red",
                                                       "codel"}
        keys = spec.cells(scale=1.0)
        assert ("long-few", 256, "codel") in keys

    def test_wireless_labels_distinguish_loss(self):
        spec = get("wireless-voip")
        keys = spec.cells(scale=1.0)
        assert ("long-few", 64) in keys
        assert ("long-few+loss1%", 64) in keys
        tasks = dict(zip(keys, spec.tasks(scale=1.0)))
        assert tasks[("long-few+loss1%", 64)].scenario.up_loss == 0.01
        assert tasks[("long-few", 64)].scenario.up_loss == 0.0


class TestAdhocSweep:
    def test_duration_passes_through_verbatim(self):
        spec = adhoc_sweep("t", "qos", [access("noBG")], [8], duration=2.5)
        assert spec.resolved_duration(scale=1.0) == 2.5
        assert spec.resolved_duration(scale=0.01) == 2.5

    def test_run_returns_keyed_reports(self, tmp_path):
        spec = adhoc_sweep("t", "qos", [access("long-few", "down")], [8, 16],
                           seed=3, warmup=1.0, duration=2.0)
        results = api.run_sweep(spec, scale=1.0, runner=runner_for(tmp_path))
        assert set(results.keys()) == {("long-few", 8), ("long-few", 16)}
        for report in results:
            assert report.value("down_utilization") > 0.0

    def test_axes_extend_cell_keys(self, tmp_path):
        spec = adhoc_sweep("t", "video", [access("noBG")], [8],
                           warmup=0.5, duration=1.0,
                           params=(("clip", "C"),),
                           axes=(("resolution", ("SD",)),))
        results = api.run_sweep(spec, scale=1.0, runner=runner_for(tmp_path))
        assert set(results.keys()) == {("noBG", 8, "SD")}
        assert results[("noBG", 8, "SD")].value("ssim") > 0.9
