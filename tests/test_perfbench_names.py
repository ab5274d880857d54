"""The benchmark still runs against the package: every name the perfbench
tracer patches resolves, and every workload builds.

`perfbench/layers.py` wraps package functions and methods by name, and
the workloads call the package's public entry points (among them
`translation_params(h=2, ...)`), so a change that deletes or renames one
of them fails here rather than only when the benchmark runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import tracer
        import workloads
        yield layers, tracer, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_resolves(perfbench):
    layers, tracer, _ = perfbench
    t = tracer.Tracer()
    try:
        layers.install(t)
    finally:
        t.uninstall()


@pytest.mark.parametrize("name", ["circle", "translation", "minimal", "ledger"])
def test_every_workload_builds(perfbench, name):
    _, _, workloads = perfbench
    assert sorted(workloads.WORKLOADS) == ["circle", "ledger", "minimal", "translation"]
    assert workloads.WORKLOADS[name](1).build() is not None
