"""Tests for the parallel grid runner and its result cache."""

from dataclasses import asdict

import pytest

from repro import api
from repro.core.experiment import run_qos_cell
from repro.core.registry import access, adhoc_sweep
from repro.core.scenarios import access_scenario
from repro.results import ResultSet
from repro.runner import CellTask, GridRunner, ResultCache, resolve_workers
from repro.runner.execute import execute_task, jsonify, queue_factory_for
from repro.sim.queues import CoDelQueue, REDQueue


def _flaky_execute(task):
    """Module-level (so it pickles into pool workers): fail one cell."""
    if task.buffer_packets == 32:
        raise RuntimeError("boom")
    return execute_task(task)


def qos_task(packets=16, seed=1, warmup=1.0, duration=2.0):
    return CellTask.make("qos", access_scenario("long-few", "down"), packets,
                         seed=seed, warmup=warmup, duration=duration)


def run_all(runner, tasks):
    """Fully consume ``runner.iter_run``; records in task order."""
    return list(ResultSet.from_stream(runner.iter_run(tasks)))


def fresh_runner(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(directory=str(tmp_path / "cache"),
                                           enabled=True))
    kwargs.setdefault("progress", False)
    return GridRunner(**kwargs)


class TestCellTask:
    def test_hash_is_stable(self):
        assert qos_task().content_hash() == qos_task().content_hash()

    def test_hash_covers_every_knob(self):
        base = qos_task()
        assert qos_task(packets=32).content_hash() != base.content_hash()
        assert qos_task(seed=2).content_hash() != base.content_hash()
        assert qos_task(warmup=2.0).content_hash() != base.content_hash()
        assert qos_task(duration=4.0).content_hash() != base.content_hash()
        other_scenario = CellTask.make(
            "qos", access_scenario("long-few", "up"), 16,
            seed=1, warmup=1.0, duration=2.0)
        assert other_scenario.content_hash() != base.content_hash()

    def test_hash_covers_params_and_discipline(self):
        scenario = access_scenario("noBG")
        web = CellTask.make("web", scenario, 16, fetches=5)
        assert (CellTask.make("web", scenario, 16, fetches=6).content_hash()
                != web.content_hash())
        assert (CellTask.make("web", scenario, 16, fetches=5,
                              discipline="codel").content_hash()
                != web.content_hash())

    def test_tuple_buffer_is_hashable_and_stable(self):
        task = CellTask.make("qos", access_scenario("noBG"), (64, 8))
        same = CellTask.make("qos", access_scenario("noBG"), [64, 8])
        assert task.content_hash() == same.content_hash()
        assert task.buffer_packets == (64, 8)

    def test_web_ignored_duration_normalized_out_of_hash(self):
        # Web cells run a fixed fetch count; the unused duration knob
        # must not split semantically identical cells across cache keys.
        scenario = access_scenario("noBG")
        short = CellTask.make("web", scenario, 16, fetches=5, duration=5.0)
        long = CellTask.make("web", scenario, 16, fetches=5, duration=20.0)
        assert short == long
        assert short.content_hash() == long.content_hash()

    def test_unknown_kind_and_discipline_rejected(self):
        with pytest.raises(ValueError):
            CellTask.make("quantum", access_scenario("noBG"), 16)
        with pytest.raises(ValueError):
            CellTask.make("qos", access_scenario("noBG"), 16,
                          discipline="madmax")

    def test_queue_factory_mapping(self):
        assert queue_factory_for("droptail") is None
        assert queue_factory_for(None) is None
        assert isinstance(queue_factory_for("red")(16), REDQueue)
        assert isinstance(queue_factory_for("codel")(16), CoDelQueue)
        with pytest.raises(ValueError):
            queue_factory_for("madmax")

    def test_jsonify_numpy_and_tuples(self):
        import numpy as np

        payload = jsonify({"a": np.float64(1.5), "b": (1, np.int32(2)),
                           "c": [True, None, "x"]})
        assert payload == {"a": 1.5, "b": [1, 2], "c": [True, None, "x"]}
        assert type(payload["a"]) is float
        with pytest.raises(TypeError):
            jsonify(object())


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), enabled=True)
        task = qos_task()
        assert cache.get(task) is None
        cache.put(task, {"x": 1.25})
        assert cache.get(task) == {"x": 1.25}

    def test_disabled_cache_is_a_noop(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), enabled=False)
        cache.put(qos_task(), {"x": 1})
        assert cache.get(qos_task()) is None
        assert not list(tmp_path.iterdir())

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not ResultCache(directory=str(tmp_path)).enabled
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert ResultCache(directory=str(tmp_path)).enabled

    def test_code_fingerprint_partitions_keys(self, tmp_path):
        task = qos_task()
        old = ResultCache(directory=str(tmp_path), enabled=True,
                          fingerprint="old-code")
        new = ResultCache(directory=str(tmp_path), enabled=True,
                          fingerprint="new-code")
        old.put(task, {"x": 1})
        assert old.get(task) == {"x": 1}
        assert new.get(task) is None  # code changed -> cache invalidated

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), enabled=True)
        task = qos_task()
        cache.put(task, {"x": 1})
        with open(cache.path(task), "w") as handle:
            handle.write("not json {")
        assert cache.get(task) is None


class TestGridRunner:
    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(3) == 3
        assert resolve_workers() >= 1
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers() == 7
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        with pytest.raises(ValueError, match="REPRO_WORKERS='banana'"):
            resolve_workers()

    @pytest.mark.parametrize("value", ["two", "-4", "0", "2.5"])
    def test_bad_env_workers_raise_naming_it(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_WORKERS='%s'" % value):
            resolve_workers()
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            GridRunner()

    @pytest.mark.parametrize("value", [0, -4, 2.5])
    def test_bad_explicit_workers_raise_naming_it(self, value):
        with pytest.raises(ValueError, match="workers=%r" % value):
            resolve_workers(value)

    def test_workers_1_never_spawns_a_pool(self, tmp_path, monkeypatch):
        import repro.runner.grid as grid_module

        def boom(*args, **kwargs):
            raise AssertionError("serial path must not build a pool")

        monkeypatch.setattr(grid_module, "ProcessPoolExecutor", boom)
        runner = fresh_runner(tmp_path, workers=1)
        results = run_all(runner, [qos_task(16), qos_task(32)])
        assert len(results) == 2
        assert results[0].value("down_utilization") > 0.0

    def test_parallel_matches_serial_and_direct(self, tmp_path):
        tasks = [qos_task(16), qos_task(32)]
        serial = [record.payload for record in run_all(
            fresh_runner(tmp_path / "a", workers=1), tasks)]
        parallel = [record.payload for record in run_all(
            fresh_runner(tmp_path / "b", workers=2), tasks)]
        direct = [jsonify(asdict(run_qos_cell(
            access_scenario("long-few", "down"), packets,
            warmup=1.0, duration=2.0, seed=1))) for packets in (16, 32)]
        assert serial == parallel
        assert parallel == direct

    def test_warm_cache_skips_all_simulations(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), enabled=True)
        tasks = [qos_task(16), qos_task(32)]
        cold = GridRunner(workers=2, cache=cache, progress=False)
        first = [record.payload for record in run_all(cold, tasks)]
        assert cold.last_stats["computed"] == 2
        warm = GridRunner(workers=2, cache=cache, progress=False)
        second = [record.payload for record in run_all(warm, tasks)]
        assert warm.last_stats["computed"] == 0
        assert warm.last_stats["cached"] == 2
        assert first == second

    def test_failed_cell_still_caches_finished_siblings(self, tmp_path,
                                                        monkeypatch):
        import repro.runner.grid as grid_module

        monkeypatch.setattr(grid_module, "execute_task", _flaky_execute)
        cache = ResultCache(directory=str(tmp_path), enabled=True)
        runner = GridRunner(workers=2, cache=cache, progress=False)
        with pytest.raises(RuntimeError, match="boom"):
            run_all(runner, [qos_task(16), qos_task(32), qos_task(48)])
        # The healthy siblings' results survived the failure.
        assert cache.get(qos_task(16)) is not None
        assert cache.get(qos_task(48)) is not None
        assert cache.get(qos_task(32)) is None

    def test_failed_run_still_populates_last_stats(self, tmp_path,
                                                   monkeypatch):
        # Regression: a worker failure used to leave last_stats at its
        # previous value (empty on a fresh runner), so callers reporting
        # cells/cached/elapsed crashed or lied after a failed grid.
        import repro.runner.grid as grid_module

        monkeypatch.setattr(grid_module, "execute_task", _flaky_execute)
        cache = ResultCache(directory=str(tmp_path), enabled=True)
        runner = GridRunner(workers=2, cache=cache, progress=False)
        with pytest.raises(RuntimeError, match="boom"):
            run_all(runner, [qos_task(16), qos_task(32), qos_task(48)])
        stats = runner.last_stats
        assert stats["failed"] is True
        assert stats["cells"] == 3
        assert stats["cached"] == 0
        assert stats["computed"] == 2  # siblings finished before re-raise
        assert stats["elapsed"] > 0.0

        # Serial path: the failure aborts immediately, stats still land.
        serial = GridRunner(workers=1, cache=ResultCache(
            directory=str(tmp_path / "serial"), enabled=True),
            progress=False)
        with pytest.raises(RuntimeError, match="boom"):
            run_all(serial, [qos_task(32), qos_task(16)])
        assert serial.last_stats["failed"] is True
        assert serial.last_stats["cells"] == 2
        assert serial.last_stats["computed"] == 0

    def test_successful_run_reports_not_failed(self, tmp_path):
        runner = fresh_runner(tmp_path, workers=1)
        run_all(runner, [qos_task(16)])
        assert runner.last_stats["failed"] is False
        assert runner.last_stats["computed"] == 1

    def test_run_is_a_collector_over_the_payload_stream(self, tmp_path):
        # api.run_sweep() and iter_run() must agree cell for cell.
        spec = adhoc_sweep("t", "qos", [access("long-few", "down")],
                           [16, 32], seed=1, warmup=1.0, duration=2.0)
        tasks = spec.tasks(1.0)
        assert tasks == [qos_task(16), qos_task(32)]
        batch = api.run_sweep(spec, scale=1.0,
                              runner=fresh_runner(tmp_path / "a", workers=1))
        streamed = list(fresh_runner(tmp_path / "b", workers=1).iter_run(
            tasks, keys=spec.cells(1.0)))
        assert [task for task, __ in streamed] == tasks
        for (__, record), collected in zip(streamed, batch):
            assert record.payload == collected.payload
            assert record.kind == "qos"

    def test_progress_lines_report_cells_and_eta(self, tmp_path):
        lines = []
        runner = fresh_runner(tmp_path, workers=1, progress=True,
                              log=lines.append)
        run_all(runner, [qos_task(16)])
        assert any("running 1 cells" in line for line in lines)
        assert any("eta" in line for line in lines)

    def test_voip_cell_payload_matches_direct_run(self, tmp_path):
        from repro.core.voip_study import median_mos, run_voip_cell

        scenario = access_scenario("noBG")
        task = CellTask.make("voip", scenario, 64, seed=0, warmup=0.5,
                             duration=2.0, calls=1,
                             directions=("listens",))
        result = run_all(fresh_runner(tmp_path, workers=1), [task])[0]
        scores = run_voip_cell(scenario, 64, calls=1, warmup=0.5,
                               duration=2.0, seed=0,
                               directions=("listens",))
        assert result.value("listens") == median_mos(scores["listens"])
        assert result.value("delay.listens") == pytest.approx(
            scores["listens"][0].mouth_to_ear_delay)


class TestStudyGridsThroughRunner:
    def test_fig4_parallel_identical_to_serial(self, tmp_path):
        spec = adhoc_sweep("t", "qos", [access("long-few", "down")], [8, 16],
                           seed=3, warmup=1.0, duration=2.0)
        serial = api.run_sweep(
            spec, scale=1.0, runner=fresh_runner(tmp_path / "a", workers=1))
        parallel = api.run_sweep(
            spec, scale=1.0, runner=fresh_runner(tmp_path / "b", workers=2))
        assert serial.keys() == parallel.keys()
        assert serial == parallel

    def test_table1_parallel_identical_to_serial(self, tmp_path):
        # Table 1 access cells use per-direction BDP buffers.
        spec = adhoc_sweep("t", "qos", [
            access(name, "down", label="%s/down" % name)
            for name in ("long-few", "short-few")], [(64, 8)],
            seed=3, warmup=1.0, duration=2.0)
        serial = api.run_sweep(
            spec, scale=1.0, runner=fresh_runner(tmp_path / "a", workers=1))
        parallel = api.run_sweep(
            spec, scale=1.0, runner=fresh_runner(tmp_path / "b", workers=2))
        assert serial == parallel
        assert [key[0] for key in serial.keys()] == ["long-few/down",
                                                     "short-few/down"]
        assert serial[0].buffer_packets == (64, 8)
        assert serial[0].value("down_utilization") > 0.0

    def test_fig4_warm_cache_repeat(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), enabled=True)
        spec = adhoc_sweep("t", "qos", [access("long-few", "down")], [8],
                           seed=3, warmup=1.0, duration=2.0)
        first_runner = GridRunner(workers=1, cache=cache, progress=False)
        first = api.run_sweep(spec, scale=1.0, runner=first_runner)
        warm_runner = GridRunner(workers=1, cache=cache, progress=False)
        second = api.run_sweep(spec, scale=1.0, runner=warm_runner)
        assert warm_runner.last_stats["computed"] == 0
        assert first == second
