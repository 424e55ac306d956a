"""Fast integration tests for the per-figure study runners."""

import pytest

from repro import api
from repro.core.registry import access, adhoc_sweep, backbone
from repro.core.scenarios import access_scenario, backbone_scenario
from repro.core.video_study import run_video_cell
from repro.core.voip_study import median_mos, run_voip_cell
from repro.core.web_study import run_web_cell
from repro.report.figures import REPORT_FIGURES
from repro.runner import GridRunner, ResultCache
from repro.sim.queues import CoDelQueue


def run_serial(spec):
    return api.run_sweep(spec, scale=1.0, runner=GridRunner(
        workers=1, cache=ResultCache(enabled=False), progress=False))


class TestQosStudies:
    def test_fig4_grid_and_render(self):
        spec = adhoc_sweep("t", "qos", [access("long-few", "up")], [8, 64],
                           seed=2, warmup=3, duration=5)
        results = run_serial(spec)
        assert results.keys() == [("long-few", 8), ("long-few", 64)]
        # Bigger buffer, bigger mean uplink delay.
        assert (results[("long-few", 64)].value("up_mean_delay")
                > results[("long-few", 8)].value("up_mean_delay"))
        text = REPORT_FIGURES["fig4-up"].text(results, spec, 1.0)
        assert "UPLINK" in text and "DOWNLINK" in text

    def test_fig5_and_render(self):
        spec = adhoc_sweep("t", "qos", [access("long-many", "bidir")], [64],
                           seed=1, warmup=3, duration=5)
        results = run_serial(spec)
        report = results[("long-many", 64)]
        assert len(report.payload["up_utilization_samples"]) >= 4
        assert "utilization" in REPORT_FIGURES["fig5"].text(results, spec,
                                                            1.0)

    def test_table1_rows_and_render(self):
        spec = adhoc_sweep("t", "qos", [
            backbone(w) for w in ("short-low", "short-medium", "short-high",
                                  "long")], [749],
            seed=1, warmup=2, duration=4)
        results = run_serial(spec)
        assert len(results) == 4
        text = REPORT_FIGURES["table1-backbone"].text(results, spec, 1.0)
        assert "short-low" in text

    def test_table2_render(self):
        text = REPORT_FIGURES["table2"].text(None, None, 1.0)
        assert "96" in text  # 8-packet uplink delay
        assert "7490" in text


class TestVoipCells:
    def test_nobg_cell_excellent(self):
        scores = run_voip_cell(access_scenario("noBG"), 64, calls=1,
                               warmup=1, duration=2.0)
        assert median_mos(scores["talks"]) > 4.0
        assert median_mos(scores["listens"]) > 4.0

    def test_single_direction(self):
        scores = run_voip_cell(backbone_scenario("noBG"), 749, calls=1,
                               warmup=1, duration=2.0,
                               directions=("listens",))
        assert set(scores) == {"listens"}
        assert median_mos(scores["listens"]) > 4.0

    def test_queue_factory_plumbs_through(self):
        scores = run_voip_cell(
            access_scenario("noBG"), 64, calls=1, warmup=1, duration=2.0,
            queue_factory=lambda p: CoDelQueue(capacity_packets=p))
        assert median_mos(scores["talks"]) > 4.0

    def test_median_mos_empty(self):
        assert median_mos([]) == 0.0


class TestVideoCells:
    def test_nobg_cell_is_perfect(self):
        cell = run_video_cell(access_scenario("noBG"), 64, duration=2.0,
                              warmup=1)
        assert cell["ssim"] == pytest.approx(1.0, abs=1e-6)
        assert cell["mos"] == 5.0
        assert cell["packet_loss"] == 0.0

    def test_arq_flag(self):
        cell = run_video_cell(access_scenario("noBG"), 64, duration=2.0,
                              warmup=1, arq=True)
        assert cell["ssim"] == pytest.approx(1.0, abs=1e-6)


class TestWebCells:
    def test_nobg_cell_fast(self):
        cell = run_web_cell(access_scenario("noBG"), 64, fetches=2, warmup=1)
        assert cell["median_plt"] < 1.0
        assert cell["mos"] > 4.0
        assert len(cell["plts"]) == 2

    def test_backbone_anchor_used(self):
        cell = run_web_cell(backbone_scenario("noBG"), 749, fetches=2,
                            warmup=1)
        assert cell["mos"] == 5.0  # under the 0.85 s backbone anchor
