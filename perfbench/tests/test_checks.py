"""The correctness gate trips on any perturbed point."""

import json

import pytest

import checks
import workloads


def _cells():
    return {
        ("GS-L16", 0.4): {"offered_gross": 0.4, "mean_response": 1.5,
                          "saturated": False},
        ("GS-L16", 0.5): {"offered_gross": 0.5, "mean_response": 2.25,
                          "saturated": False},
    }


def test_fingerprint_is_order_independent_and_exact():
    cells = _cells()
    reordered = dict(reversed(list(cells.items())))
    assert checks.fingerprint(cells) == checks.fingerprint(reordered)
    perturbed = _cells()
    perturbed[("GS-L16", 0.5)]["mean_response"] = 2.2500000000000004
    assert checks.fingerprint(perturbed) != checks.fingerprint(cells)


def test_check_fingerprint_trips_on_a_perturbed_point():
    cells = _cells()
    table = {"fingerprints": {"fig3-grid": {"7": checks.fingerprint(cells)}}}
    assert checks.check_fingerprint(table, "fig3-grid", 7, cells) == "match"
    assert checks.check_fingerprint(table, "fig3-grid", 8,
                                    cells) == "unrecorded"
    perturbed = _cells()
    perturbed[("GS-L16", 0.4)]["saturated"] = True
    with pytest.raises(checks.GateError):
        checks.check_fingerprint(table, "fig3-grid", 7, perturbed)


def test_compare_trips_on_a_perturbed_or_missing_cell():
    cells = _cells()
    copy = {cell: dict(point) for cell, point in cells.items()}
    assert checks.compare("a", copy, cells, "b") == 2
    copy[("GS-L16", 0.4)]["mean_response"] += 1e-12
    with pytest.raises(checks.GateError):
        checks.compare("a", copy, cells, "b")
    truncated = {("GS-L16", 0.4): dict(cells[("GS-L16", 0.4)])}
    with pytest.raises(checks.GateError):
        checks.compare("a", truncated, cells, "b")
    with pytest.raises(checks.GateError):
        checks.compare("a", {**cells, ("SC", 0.4): {}}, cells, "b")


def test_recorded_fingerprints_cover_both_seeds_of_every_workload():
    table = checks.load_fingerprints()
    seeds = {str(table["default_seed"]), str(table["second_seed"])}
    for name in workloads.WORKLOADS:
        assert set(table["fingerprints"][name]) == seeds, name


def test_benchmark_json_workloads_are_defined():
    with open(checks.FINGERPRINTS.parent.parent / "BENCHMARK.json",
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
