"""Tests for the stable facade (repro.api) and streaming grid runs."""

import pytest

from repro import api
from repro.core.registry import access, adhoc_sweep
from repro.results import ResultSet
from repro.runner import GridRunner, ResultCache, execute_task


def tiny_spec(buffers=(8, 16), duration=2.0):
    return adhoc_sweep("api-test", "qos",
                       scenarios=[access("long-few", "down")],
                       buffers=buffers, seed=3, warmup=1.0,
                       duration=duration)


def runner_for(tmp_path, workers=1):
    return GridRunner(workers=workers, progress=False,
                      cache=ResultCache(directory=str(tmp_path / "cache"),
                                        enabled=True))


class TestRunSweep:
    def test_matches_legacy_spec_run(self, tmp_path):
        # The spec-level run this facade replaced: the runner's payloads
        # for spec.tasks(), keyed by spec.cells().
        spec = tiny_spec()
        results = api.run_sweep(spec, scale=1.0,
                                runner=runner_for(tmp_path / "a"))
        stream = runner_for(tmp_path / "b").iter_run(spec.tasks(1.0))
        legacy = {key: record.payload
                  for key, (__, record) in zip(spec.cells(1.0), stream)}
        assert results.keys() == list(legacy)
        assert {record.key: record.payload for record in results} == legacy

    def test_accepts_registry_names_and_overrides(self, tmp_path):
        results = api.run_sweep(
            "wireless-qos", scale=1.0,
            overrides={"workloads": ("long-few",), "buffers": (8,),
                       "duration": 2.0, "warmup": 1.0},
            runner=runner_for(tmp_path))
        assert results.keys() == [("long-few", 8)]
        assert results[("long-few", 8)].payload["duration"] == 2.0

    def test_unknown_override_labels_raise(self, tmp_path):
        with pytest.raises(ValueError, match="mystery"):
            api.run_sweep("wireless-qos", scale=1.0,
                          overrides={"workloads": ("mystery",)},
                          runner=runner_for(tmp_path))
        with pytest.raises(ValueError, match="fifo"):
            api.run_sweep("wireless-qos", scale=1.0,
                          overrides={"disciplines": ("fifo",)},
                          runner=runner_for(tmp_path))

    @pytest.mark.parametrize("overrides, message", [
        ({"buffers": (0,)}, "buffer size 0 "),
        ({"buffers": (8, -8)}, "buffer size -8 "),
        ({"buffers": ((64, 0),)}, r"buffer size \(64, 0\)"),
        ({"buffers": ([0, 8],)}, r"buffer size \[0, 8\]"),
        ({"buffers": ()}, "empty buffer list"),
        ({"workloads": ()}, "empty workload list"),
        ({"disciplines": ()}, "empty discipline list"),
        ({"duration": 0.0}, "duration 0.0 "),
        ({"duration": -1.0}, "duration -1.0 "),
        ({"warmup": -1.0}, "warmup -1.0 "),
    ])
    def test_out_of_range_overrides_raise(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            api.apply_overrides(tiny_spec(), scale=1.0, **overrides)

    def test_boundary_overrides_are_accepted(self):
        spec = api.apply_overrides(tiny_spec(), scale=1.0,
                                   buffers=(1, (1, 1)), warmup=0.0,
                                   duration=0.5)
        assert spec.buffer_axis(1.0) == (1, (1, 1))
        assert spec.resolved_duration(scale=1.0) == 0.5

    def test_duration_override_is_literal_above_scale_one(self):
        spec = api.apply_overrides(tiny_spec(), scale=4.0, duration=2.0)
        assert spec.resolved_duration(scale=4.0) == 2.0


class TestStreaming:
    def test_iter_sweep_equals_run_sweep(self, tmp_path):
        spec = tiny_spec()
        batch = api.run_sweep(spec, scale=1.0,
                              runner=runner_for(tmp_path / "a"))
        streamed = ResultSet.from_stream(
            api.iter_sweep(spec, scale=1.0,
                           runner=runner_for(tmp_path / "b")))
        assert streamed == batch
        assert streamed.keys() == batch.keys()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_iter_run_bit_identical_to_run(self, tmp_path, workers):
        """iter_run at 1 and 4 workers vs running each cell directly."""
        spec = tiny_spec(buffers=(8, 12, 16, 24), duration=1.0)
        tasks = spec.tasks(1.0)
        batch = ResultSet.from_payloads(
            tasks, [execute_task(task) for task in tasks])
        runner = runner_for(tmp_path / "b", workers=workers)
        streamed = ResultSet.from_stream(
            runner.iter_run(tasks, keys=spec.cells(1.0)))
        # from_stream restores task order, so records align with batch.
        assert len(streamed) == len(batch)
        for record, direct in zip(streamed, batch):
            assert record.payload == direct.payload  # bit-identical
        assert [r.index for r in streamed] == [0, 1, 2, 3]
        assert runner.last_stats["failed"] is False

    def test_iter_run_streams_cache_hits_lazily(self, tmp_path):
        # Constant-memory contract: the cache scan must not pre-load
        # every hit before the first yield.
        spec = tiny_spec(duration=1.0)
        tasks = spec.tasks(1.0)
        cache = ResultCache(directory=str(tmp_path / "cache"), enabled=True)
        list(GridRunner(workers=1, cache=cache,
                        progress=False).iter_run(tasks))

        reads = []
        original = cache.get
        cache.get = lambda task: reads.append(task) or original(task)
        stream = GridRunner(workers=1, cache=cache,
                            progress=False).iter_run(tasks)
        next(stream)
        assert len(reads) == 1  # second hit not touched yet
        stream.close()

    def test_abandoning_iter_run_cancels_queued_cells(self, tmp_path):
        # Breaking out of the stream must not compute the whole grid:
        # queued pool futures are cancelled on GeneratorExit.
        spec = tiny_spec(buffers=(8, 12, 16, 24, 32, 48), duration=1.0)
        tasks = spec.tasks(1.0)
        cache = ResultCache(directory=str(tmp_path / "cache"), enabled=True)
        runner = GridRunner(workers=2, cache=cache, progress=False)
        for __, record in runner.iter_run(tasks):
            break  # abandon after the first completed cell
        # Only the cells that actually ran reached the cache; the
        # cancelled tail never executed.
        finished = sum(1 for task in tasks if cache.get(task) is not None)
        assert finished < len(tasks)
        # A deliberate abandon is not a failure.
        assert runner.last_stats.get("failed") is not True

    def test_iter_run_yields_cache_hits_first(self, tmp_path):
        spec = tiny_spec(duration=1.0)
        tasks = spec.tasks(1.0)
        cache = ResultCache(directory=str(tmp_path / "cache"), enabled=True)
        warm = GridRunner(workers=1, cache=cache, progress=False)
        list(warm.iter_run([tasks[1]]))  # only the *second* task is cached
        runner = GridRunner(workers=1, cache=cache, progress=False)
        order = [task.buffer_packets
                 for task, __ in runner.iter_run(tasks)]
        assert order == [16, 8]  # hit streams before the computed cell
        assert runner.last_stats["cached"] == 1
        assert runner.last_stats["computed"] == 1


class TestLoadSweep:
    def test_cache_only_round_trip(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(directory=str(tmp_path / "cache"), enabled=True)
        ran = api.run_sweep(spec, scale=1.0,
                            runner=GridRunner(workers=1, cache=cache,
                                              progress=False))
        loaded = api.load_sweep(spec, scale=1.0, cache=cache, strict=True)
        assert loaded == ran

    def test_misses_skip_or_raise(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(directory=str(tmp_path / "empty"), enabled=True)
        assert len(api.load_sweep(spec, scale=1.0, cache=cache)) == 0
        with pytest.raises(KeyError, match="not cached"):
            api.load_sweep(spec, scale=1.0, cache=cache, strict=True)

