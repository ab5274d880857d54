"""The `abctorus` command: `main([...])` prints one JSON document of stage
reports per scenario."""

from __future__ import annotations

import json

import pytest

from abctorus.cli import main


def run(capsys, *argv) -> dict:
    assert main(["run", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_circle_reports_every_stage(capsys):
    out = run(capsys, "circle")
    assert out["scenario"] == "circle"
    assert [(s["stage"], s["p"], s["q"]) for s in out["stages"]] == [
        (1, 49, 144), (2, 112897, 331776)]
    for s in out["stages"]:
        for model in ("exact", "analytic"):
            report = s["conjugacy"][model]
            assert report["passed"] and report["samples"] == 64
        assert s["commutation"]["passed"] and s["commutation"]["analytic_residual"] == "0"
        assert s["defect"]["exact"]["total"] == "0"
        assert s["defect"]["exact"]["nonzero"] == []
        assert s["defect"]["analytic"]["atoms"] == [3, 144][s["stage"] - 1]


def test_translation_prints_refusals(capsys):
    out = run(capsys, "translation")
    (stage,) = out["stages"]
    assert stage["conjugacy"]["exact"]["hits"] == 64
    assert stage["conjugacy"]["analytic"]["refused"].startswith("ParamOutOfRange")
    assert stage["defect"]["exact"]["refused"].startswith("ParamOutOfRange")


def test_minimal(capsys):
    out = run(capsys, "minimal")
    (stage,) = out["stages"]
    assert stage["conjugacy"]["exact"]["passed"]
    assert stage["commutation"]["passed"]


def test_unknown_scenario_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["run", "sphere"])

