"""Tests for the typed results layer (repro.results).

The round-trip suite executes one real cell per kind (tiny windows) and
checks payload → record → rows/CSV/JSON → parse-back fidelity; the
ResultSet verb tests run on synthetic records and stay sim-free.
"""

import csv
import io
import json

import pytest

from repro.core.scenarios import access_scenario
from repro.results import (
    CellResult,
    QosResult,
    ResultSet,
    StreamAggregator,
    VideoResult,
    VoipResult,
    WebResult,
    aggregate_stream,
    flatten_metrics,
    format_buffer,
    jsonify,
    key_str,
    record_from_payload,
    summarize,
)
from repro.runner import CellTask
from repro.runner.execute import execute_task

# ---------------------------------------------------------------------------
# One real payload per kind (executed once per test session).
# ---------------------------------------------------------------------------
KIND_TASKS = {
    "qos": lambda: CellTask.make(
        "qos", access_scenario("long-few", "down"), 16, seed=1,
        warmup=0.5, duration=1.0),
    "voip": lambda: CellTask.make(
        "voip", access_scenario("noBG"), 64, seed=0, warmup=0.5,
        duration=1.5, calls=1, directions=("listens",)),
    "video": lambda: CellTask.make(
        "video", access_scenario("noBG"), 64, seed=0, warmup=0.5,
        duration=1.0, clip="C", resolution="SD"),
    "web": lambda: CellTask.make(
        "web", access_scenario("noBG"), 64, seed=0, warmup=0.5, fetches=2),
}

RECORD_CLASSES = {"qos": QosResult, "voip": VoipResult,
                  "video": VideoResult, "web": WebResult}


@pytest.fixture(scope="module")
def executed():
    """``{kind: (task, payload)}`` — each cell simulated exactly once."""
    out = {}
    for kind, make in KIND_TASKS.items():
        task = make()
        out[kind] = (task, execute_task(task))
    return out


class TestRecordRoundTrip:
    @pytest.mark.parametrize("kind", sorted(KIND_TASKS))
    def test_payload_to_record_to_rows_preserves_every_metric(self, kind,
                                                              executed):
        task, payload = executed[kind]
        record = record_from_payload(task, payload, key=("cell", 1),
                                     index=0)
        assert isinstance(record, RECORD_CLASSES[kind])
        assert record.kind == kind
        assert record.payload == payload  # wire format untouched
        metrics = record.metrics
        assert metrics, "every kind must expose scalar metrics"

        (row,) = ResultSet([record]).to_rows()
        for name, value in metrics.items():
            assert row[name] == value, name

        text = ResultSet([record]).to_csv()
        (parsed,) = list(csv.DictReader(io.StringIO(text)))
        for name, value in metrics.items():
            assert float(parsed[name]) == value, (
                "metric %s did not survive the CSV round trip" % name)
        assert parsed["kind"] == kind
        assert parsed["scenario"] == str(task.scenario)
        assert parsed["key"] == "cell/1"

    @pytest.mark.parametrize("kind", sorted(KIND_TASKS))
    def test_json_export_keeps_payload_bit_identical(self, kind, executed):
        task, payload = executed[kind]
        rs = ResultSet.from_payloads([task], [payload])
        (entry,) = json.loads(rs.to_json())
        assert entry["payload"] == payload
        assert entry["kind"] == kind
        assert entry["seed"] == task.seed

    @pytest.mark.parametrize("kind", sorted(KIND_TASKS))
    def test_summary_matches_payload_helper(self, kind, executed):
        task, payload = executed[kind]
        record = record_from_payload(task, payload)
        assert record.summary() == summarize(kind, payload)
        assert record.summary()  # non-empty

    def test_qos_record_revives_and_delegates(self, executed):
        from repro.core.experiment import QosReport

        task, payload = executed["qos"]
        record = record_from_payload(task, payload)
        assert isinstance(record.report, QosReport)
        assert record.report is record.report  # cached
        assert record.down_utilization == payload["down_utilization"]
        assert record.buffer_packets == 16  # axis value, not payload echo
        box = record.down_utilization_boxplot()
        assert box[0] <= box[2] <= box[4]
        assert record.qoe is None

    def test_voip_record_accessors(self, executed):
        task, payload = executed["voip"]
        record = record_from_payload(task, payload)
        assert record.directions == ("listens",)
        assert record.mos("listens") == payload["listens"]
        assert record.delay("listens") == payload["delay"]["listens"]
        assert record.qoe == payload["listens"]
        assert record.metrics["delay.listens"] == payload["delay"]["listens"]
        assert record["listens"] == payload["listens"]  # dict-style

    def test_video_and_web_accessors(self, executed):
        __, video_payload = executed["video"]
        video = record_from_payload(KIND_TASKS["video"](), video_payload)
        assert video.ssim == video_payload["ssim"]
        assert video.qoe == video_payload["mos"]

        __, web_payload = executed["web"]
        web = record_from_payload(KIND_TASKS["web"](), web_payload)
        assert web.median_plt == web_payload["median_plt"]
        assert web.plts == web_payload["plts"]  # series kept on payload
        assert "plts" not in web.metrics  # ... but it is not a metric


# ---------------------------------------------------------------------------
# Sim-free ResultSet verbs on synthetic records.
# ---------------------------------------------------------------------------
def voip_record(scenario, packets, talks, listens, discipline="droptail",
                index=None):
    return VoipResult(
        scenario=scenario, buffer_packets=packets, seed=3,
        discipline=discipline, params=(("calls", 1),),
        payload={"talks": talks, "listens": listens,
                 "delay": {"talks": 0.1, "listens": 0.2}},
        key=(scenario, packets, discipline), index=index)


@pytest.fixture()
def synthetic():
    return ResultSet([
        voip_record("noBG", 8, 4.2, 4.3, index=0),
        voip_record("noBG", 256, 4.1, 4.2, index=1),
        voip_record("long-few", 8, 3.0, 3.6, index=2),
        voip_record("long-few", 256, 1.2, 2.8, index=3),
    ])


class TestResultSet:
    def test_len_iter_and_indexing(self, synthetic):
        assert len(synthetic) == 4
        assert [r.buffer_packets for r in synthetic] == [8, 256, 8, 256]
        assert synthetic[0].scenario == "noBG"
        assert synthetic[("long-few", 256, "droptail")].value("talks") == 1.2
        assert ("noBG", 8, "droptail") in synthetic
        assert ("ghost", 8, "droptail") not in synthetic
        assert len(synthetic[1:3]) == 2

    def test_column_and_value_lookup(self, synthetic):
        assert synthetic.column("talks") == [4.2, 4.1, 3.0, 1.2]
        assert synthetic.column("buffer") == [8, 256, 8, 256]
        assert synthetic.column("calls") == [1, 1, 1, 1]  # params
        with pytest.raises(KeyError):
            synthetic.column("mystery")

    def test_filter_equality_and_membership(self, synthetic):
        assert len(synthetic.filter(scenario="noBG")) == 2
        assert len(synthetic.filter(scenario="noBG", buffer=8)) == 1
        assert len(synthetic.filter(buffer=(8, 256))) == 4  # membership
        low = synthetic.filter(lambda r: r.value("talks") < 4.0)
        assert [r.scenario for r in low] == ["long-few", "long-few"]

    def test_group_by_and_aggregate(self, synthetic):
        groups = synthetic.group_by("scenario")
        assert set(groups) == {"noBG", "long-few"}
        assert len(groups["noBG"]) == 2
        means = synthetic.aggregate("talks", agg="mean", by="scenario")
        assert means["noBG"] == pytest.approx((4.2 + 4.1) / 2)
        assert synthetic.aggregate("talks", agg="min") == 1.2
        assert synthetic.aggregate("talks", agg="count") == 4
        assert synthetic.aggregate("talks", agg="median") == pytest.approx(
            (3.0 + 4.1) / 2)

    def test_pivot_is_heatmap_shaped(self, synthetic):
        grid = synthetic.pivot("scenario", "buffer", "talks")
        assert grid[("long-few", 256)] == 1.2
        assert grid[("noBG", 8)] == 4.2
        assert len(grid) == 4

    def test_sort_and_merge(self, synthetic):
        by_talks = synthetic.sort("talks")
        assert [r.value("talks") for r in by_talks] == [1.2, 3.0, 4.1, 4.2]
        merged = synthetic.merge(ResultSet([voip_record("x", 8, 2.0, 2.0)]))
        assert len(merged) == 5
        assert len(synthetic) == 4  # merge is non-destructive

    def test_from_stream_restores_task_order(self, synthetic):
        shuffled = [synthetic[2], synthetic[0], synthetic[3], synthetic[1]]
        rs = ResultSet.from_stream(shuffled)
        assert [r.index for r in rs] == [0, 1, 2, 3]
        assert rs == synthetic

    def test_from_stream_accepts_task_record_pairs(self, synthetic):
        rs = ResultSet.from_stream(
            (object(), record) for record in synthetic)
        assert rs == synthetic

    def test_csv_handles_heterogeneous_columns(self, synthetic):
        other = ResultSet([WebResult(
            scenario="w", buffer_packets=8, seed=0, discipline="droptail",
            params=(), payload={"median_plt": 1.0, "mos": 4.0,
                                "p80_plt": 1.2, "plts": [1.0]},
            key=("w", 8))])
        text = synthetic.merge(other).to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 5
        assert rows[0]["median_plt"] == ""  # missing column left empty
        assert rows[4]["median_plt"] == "1.0"


class TestStreamingAggregation:
    def test_matches_batch_aggregate(self, synthetic):
        streamed = StreamAggregator("talks", by="scenario").consume(
            synthetic).result()
        batch = synthetic.aggregate("talks", agg="mean", by="scenario")
        for scenario, stats in streamed.items():
            assert stats["mean"] == pytest.approx(batch[scenario])
        assert streamed["noBG"]["count"] == 2
        assert streamed["long-few"]["min"] == 1.2
        assert streamed["long-few"]["max"] == 3.0

    def test_groupless_and_helper(self, synthetic):
        flat = aggregate_stream(synthetic, "talks")
        assert flat["count"] == 4
        assert flat["sum"] == pytest.approx(4.2 + 4.1 + 3.0 + 1.2)

    def test_empty_stream_is_not_an_all_zero_aggregate(self):
        flat = aggregate_stream([], "talks")
        assert flat["count"] == 0
        assert flat["mean"] is None  # 'no data', not MOS 0.0
        assert flat["min"] is None and flat["max"] is None
        assert aggregate_stream([], "talks", by="scenario") == {}

    def test_constant_memory_contract(self, synthetic):
        # The aggregator must keep per-group counters, not records.
        agg = StreamAggregator("talks", by="scenario").consume(synthetic)
        assert len(agg._groups) == 2
        for state in agg._groups.values():
            assert isinstance(state, list) and len(state) == 4


class TestConvertHelpers:
    def test_key_str_and_format_buffer(self):
        assert key_str(("long-few", 64, "codel")) == "long-few/64/codel"
        assert format_buffer(64) == "64"
        assert format_buffer((64, 8)) == "64:8"

    def test_flatten_metrics(self):
        flat = flatten_metrics({"a": 1.5, "b": {"c": 2, "d": {"e": 3}},
                                "s": "text", "l": [1, 2], "f": True})
        assert flat == {"a": 1.5, "b.c": 2, "b.d.e": 3}

    def test_jsonify_reexported_and_canonical(self):
        import numpy as np

        assert jsonify({"a": np.float64(1.5), "b": (1, 2)}) == {
            "a": 1.5, "b": [1, 2]}
        from repro.runner.execute import jsonify as runner_jsonify

        assert runner_jsonify is jsonify  # one copy, not three

    def test_unknown_kind_rejected(self):
        class Fake:
            kind = "quantum"

        with pytest.raises(ValueError):
            record_from_payload(Fake(), {})

    def test_base_record_value_errors_name_unknown_columns(self):
        record = CellResult(scenario="s", buffer_packets=8, seed=0,
                            discipline="droptail", params=(),
                            payload={"x": 1.0})
        assert record.value("x") == 1.0
        with pytest.raises(KeyError):
            record.value("y")
