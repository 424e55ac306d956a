"""Tests for the ``python -m repro`` command line (repro.cli)."""

import csv
import hashlib
import io
import json

import pytest

from repro.cli import _parse_buffer, build_parser, main
from repro.core.registry import REGISTRY, get


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point every CLI run at a private cache and a single worker."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.delenv("REPRO_SCALE", raising=False)


class TestParsing:
    def test_buffer_tokens(self):
        assert _parse_buffer("64") == 64
        assert _parse_buffer("64:8") == (64, 8)

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_sweep_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["describe", "fig99"])

    def test_export_subcommand_is_gone(self):
        with pytest.raises(SystemExit) as info:
            main(["export", "fig5"])
        assert info.value.code == 2

    @pytest.mark.parametrize("value", ["fast", "-3", "inf", "nan"])
    def test_bad_env_scale_exits_cleanly(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SCALE", value)
        for argv in (["list"], ["describe", "fig10a"],
                     ["report", "fig5", "--cached-only"]):
            with pytest.raises(SystemExit,
                               match="REPRO_SCALE='%s'" % value) as info:
                main(argv)
            assert info.value.code != 0

    def test_bad_scale_flag_exits_cleanly(self):
        with pytest.raises(SystemExit, match="scale=-2.0"):
            main(["list", "--scale", "-2"])

    @pytest.mark.parametrize("env, flags, message", [
        ("two", (), "REPRO_WORKERS='two'"),
        ("-4", (), "REPRO_WORKERS='-4'"),
        ("1", ("--workers", "0"), "workers=0"),
    ])
    def test_bad_workers_exit_cleanly(self, monkeypatch, capsys, env, flags,
                                      message):
        monkeypatch.setenv("REPRO_WORKERS", env)
        with pytest.raises(SystemExit, match=message):
            main(["run", "wireless-qos", "--no-cache"] + list(flags))
        assert capsys.readouterr().out == ""


class TestList:
    def test_lists_every_registered_sweep(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_json_output(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in entries} == set(REGISTRY)
        for entry in entries:
            assert entry["cells"] > 0


class TestDescribe:
    def test_plain(self, capsys):
        assert main(["describe", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "long-many" in out

    def test_hashes_match_spec_tasks(self, capsys):
        assert main(["describe", "fig5", "--json", "--hashes"]) == 0
        description = json.loads(capsys.readouterr().out)
        spec = get("fig5")
        expected = {task.content_hash() for task in spec.tasks()}
        assert set(description["cell_hashes"].values()) == expected

    def test_scale_override(self, capsys):
        assert main(["describe", "fig7b", "--json", "--scale", "4"]) == 0
        description = json.loads(capsys.readouterr().out)
        assert len(description["workloads"]) == 5


class TestRun:
    def test_tiny_override_run(self, capsys):
        code = main(["run", "wireless-qos", "--workloads", "long-few",
                     "--buffers", "8", "--duration", "2", "--warmup", "1",
                     "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "long-few/8" in out
        assert "util" in out

    def test_json_run(self, capsys):
        code = main(["run", "wireless-qos", "--workloads", "long-few",
                     "--buffers", "8", "--duration", "2", "--warmup", "1",
                     "--no-cache", "--format", "json"])
        assert code == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["key"] == ["long-few", 8]
        assert entry["payload"]["duration"] == 2.0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--workloads", "mystery"])

    def test_unknown_discipline_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--discipline", "fifo"])

    def test_malformed_buffers_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--buffers", "8x"])

    @pytest.mark.parametrize("flags, message", [
        (("--buffers", "0"), "buffer size 0 "),
        (("--buffers", "-8"), "buffer size -8 "),
        (("--buffers", "64:0"), r"buffer size \(64, 0\)"),
        (("--buffers", ","), "empty buffer list"),
        (("--workloads", ","), "empty workload list"),
        (("--discipline", ","), "empty discipline list"),
        (("--duration", "-1"), "duration -1.0 "),
        (("--warmup", "-1"), "warmup -1.0 "),
    ])
    def test_out_of_range_overrides_exit_cleanly(self, flags, message,
                                                 capsys):
        with pytest.raises(SystemExit, match=message):
            main(["run", "wireless-qos", "--no-cache"] + list(flags))
        assert capsys.readouterr().out == ""

    def test_duration_override_is_literal_under_scale(self, capsys,
                                                      monkeypatch):
        # --duration must mean simulated seconds, not seconds*REPRO_SCALE.
        monkeypatch.setenv("REPRO_SCALE", "4")
        code = main(["run", "wireless-qos", "--workloads", "long-few",
                     "--buffers", "8", "--duration", "2", "--warmup", "1",
                     "--no-cache", "--format", "json"])
        assert code == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["payload"]["duration"] == 2.0

    def test_per_direction_buffer_override(self, capsys):
        code = main(["run", "wireless-qos", "--workloads", "long-few",
                     "--buffers", "16:4", "--duration", "2", "--warmup",
                     "1", "--no-cache"])
        assert code == 0
        assert "long-few/(16, 4)" in capsys.readouterr().out

    def test_format_csv(self, capsys):
        code = main(["run", "wireless-qos", "--workloads", "long-few",
                     "--buffers", "8", "--duration", "2", "--warmup", "1",
                     "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert rows[0]["key"] == "long-few/8"
        assert float(rows[0]["down_utilization"]) > 0.0


#: One tiny CSV export per cell kind (the CI smoke runs the same quartet).
EXPORT_CASES = {
    "qos": ["run", "wireless-qos", "--workloads", "long-few",
            "--buffers", "8", "--duration", "1", "--warmup", "0.5",
            "--format", "csv"],
    "voip": ["run", "fig7a", "--workloads", "noBG", "--buffers", "8",
             "--duration", "1", "--warmup", "0.5", "--format", "csv"],
    "video": ["run", "fig9a", "--workloads", "noBG", "--buffers", "8",
              "--duration", "1", "--warmup", "0.5", "--format", "csv"],
    "web": ["run", "fig10b", "--workloads", "noBG", "--buffers", "8",
            "--warmup", "0.5", "--format", "csv"],
}


class TestExport:
    @pytest.mark.parametrize("kind", sorted(EXPORT_CASES))
    def test_csv_per_kind_is_parseable_and_nonempty(self, kind, capsys):
        assert main(EXPORT_CASES[kind]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows, "export produced an empty CSV"
        assert all(row["kind"] == kind for row in rows)
        # Every row carries at least one parseable numeric metric.
        metric = {"qos": "down_utilization", "voip": "listens",
                  "video": "ssim", "web": "median_plt"}[kind]
        for row in rows:
            float(row[metric])

    def test_json_format(self, capsys):
        argv = [arg if arg != "csv" else "json" for arg in EXPORT_CASES["qos"]]
        assert main(argv) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert entries[0]["kind"] == "qos"
        assert entries[0]["payload"]["duration"] == 1.0

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main(EXPORT_CASES["qos"] + ["--output", str(target)]) == 0
        assert "wrote 1 records" in capsys.readouterr().err
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 1

    def test_cached_only_round_trip(self, capsys):
        # Cold cache: nothing to export.
        argv = EXPORT_CASES["qos"]
        assert main(argv + ["--cached-only"]) == 1
        capsys.readouterr()
        # Run once (fills the isolated cache), then export cache-only.
        assert main(argv) == 0
        ran = capsys.readouterr().out
        assert main(argv + ["--cached-only"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ran
        assert "partial" not in captured.err  # full grid, no warning

    def test_cached_only_partial_grid_is_reported(self, capsys):
        # Cache only one of two cells, then export the two-cell grid.
        one = EXPORT_CASES["qos"]
        assert main(one) == 0
        capsys.readouterr()
        two = [arg if arg != "8" else "8,16" for arg in one]
        assert main(two + ["--cached-only"]) == 0
        captured = capsys.readouterr()
        assert "partial grid — only 1 of 2 cells cached" in captured.err
        assert len(captured.out.strip().splitlines()) == 2  # header + 1 row


class TestFigures:
    #: SHA-256 of ``python -m repro figures table2`` as printed before
    #: the text figures were drawn from the report's descriptions.
    TABLE2_SHA256 = ("56c1d046a852b62109617c0b9f0c9bc0"
                     "1f827ec0a4310860cc0b6c3567617ccd")

    def test_table2_prints_both_blocks_unchanged(self, capsys):
        assert main(["figures", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2 (access): buffer sizes and max queueing delay" in out
        assert "Table 2 (backbone): buffer sizes and max queueing delay" \
            in out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
            == self.TABLE2_SHA256

    def test_unknown_name_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "table2", "fig99"])
        assert "no report figure for fig99" in str(exc.value.code)
        # Validated before anything runs or prints.
        assert capsys.readouterr().out == ""

    def test_sweep_figure_runs_through_the_cache(self, capsys, monkeypatch):
        import repro.runner.grid as grid_module

        assert main(["figures", "fig4-down"]) == 0
        first = capsys.readouterr().out
        assert "Figure 4 (down): mean UPLINK queueing delay [ms]" in first
        assert "Figure 4 (down): mean DOWNLINK queueing delay [ms]" in first

        def no_simulation(task):
            raise AssertionError("warm figures run simulated %s"
                                 % task.label)

        monkeypatch.setattr(grid_module, "execute_task", no_simulation)
        assert main(["figures", "fig4-down"]) == 0
        assert capsys.readouterr().out == first
