"""Unit tests for the Table-1 benchmark landscape runner."""

import pytest

from repro.bench.landscape import BenchmarkProfile, run_landscape


@pytest.fixture(scope="module")
def profiles():
    return run_landscape()


def test_five_benchmarks(profiles):
    assert [p.name for p in profiles] == [
        "Graph500", "WGB", "BigDataBench", "LDBC Graphalytics", "Ours"
    ]


def test_only_ours_has_usability(profiles):
    flags = {p.name: p.usability_axis for p in profiles}
    assert flags == {
        "Graph500": False, "WGB": False, "BigDataBench": False,
        "LDBC Graphalytics": False, "Ours": True,
    }


def test_only_ours_controls_diameter(profiles):
    for p in profiles:
        assert ("diameter" in p.controls) == (p.name == "Ours")


def test_samples_are_measured(profiles):
    by_name = {p.name: p for p in profiles}
    assert by_name["Graph500"].sample["bfs_harmonic_teps"] > 0
    assert by_name["WGB"].sample["k3_hop_vertices"] > 0
    assert by_name["WGB"].sample["dynamic_inceval_seconds"] > 0
    assert by_name["BigDataBench"].sample["suite_seconds"] > 0
    assert by_name["Ours"].sample["algorithms_run"] == 8


def test_profile_dataclass_defaults():
    p = BenchmarkProfile(name="X", workloads="Y", controls="scale",
                         usability_axis=False)
    assert p.sample == {}
