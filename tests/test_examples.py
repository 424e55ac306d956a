"""Smoke tests: every example imports cleanly and runs on a tiny grid."""

import importlib.util
import os

import pytest

from repro.runner import GridRunner, ResultCache

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


def load_example(name):
    path = os.path.join(EXAMPLES_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location("example_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_WORKERS", "1")


def test_examples_import_without_side_effects():
    # Importing must not run simulations (the smoke runs below are the
    # only slow part); every example exposes a main() entry point.
    for name in ("quickstart", "bufferbloat_voip", "iptv_video",
                 "backbone_sweep", "web_browsing", "wild_cdn_analysis"):
        module = load_example(name)
        assert callable(module.main), name


def test_quickstart_tiny(capsys):
    load_example("quickstart").main(buffers=(8,), warmup=1.0, duration=1.5)
    assert "uplink buffer" in capsys.readouterr().out


def test_bufferbloat_voip_tiny(capsys):
    load_example("bufferbloat_voip").main(
        buffers=(8,), workloads=("noBG",), warmup=1.0, duration=1.5,
        runner=GridRunner(workers=1, cache=ResultCache(enabled=False),
                          progress=False))
    assert "user TALKS" in capsys.readouterr().out


def test_iptv_video_tiny(capsys):
    load_example("iptv_video").main(
        workloads=("noBG",), resolutions=("SD",), buffers=(8,),
        duration=1.5, warmup=1.0)
    out = capsys.readouterr().out
    assert "SSIM" in out and "noBG" in out


def test_backbone_sweep_tiny(capsys):
    load_example("backbone_sweep").main(
        workloads=("noBG",), buffers=(749,), warmup=1.0,
        voip_duration=1.5, fetches=1)
    assert "VoIP MOS" in capsys.readouterr().out


def test_web_browsing_tiny(capsys):
    load_example("web_browsing").main(
        cases=(("short-few", "down", "moderate download load"),),
        buffers=(8,), fetches=1, warmup=1.0)
    assert "median PLT" in capsys.readouterr().out


def test_wild_cdn_analysis_tiny(capsys):
    load_example("wild_cdn_analysis").main(n_flows=3000)
    assert "bufferbloat" in capsys.readouterr().out
