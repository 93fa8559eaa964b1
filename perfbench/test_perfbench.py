"""The benchmark's own checks: determinism at a tiny size, output, metadata.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from measure import END_TO_END, PER_LAYER, VIRTUAL, measure  # noqa: E402

TINY_EVENTS = {"q1-greedy-cost": 400, "q2-nongreedy-lru": 600, "fleet-burst-shed": 500}


def _tiny(name: str):
    return dataclasses.replace(
        workloads.WORKLOADS[name], segments=1, segment_events=TINY_EVENTS[name]
    )


def _is_wall_clock(name: str) -> bool:
    return name.endswith("_s") or name in {"obs.trace_overhead"}


@pytest.mark.parametrize("name", sorted(TINY_EVENTS))
def test_counts_and_virtual_metrics_repeat_exactly(name):
    spec = _tiny(name)
    first = measure(spec, seed=3, seconds=0, trace=True)
    second = measure(spec, seed=3, seconds=0, trace=True)
    assert first.correct and second.correct
    assert first.failed == second.failed == 0
    assert first.attempted == second.attempted == 2
    assert set(first.metrics) == {m.name for m in PER_LAYER}
    exact = {k: v for k, v in first.metrics.items() if not _is_wall_clock(k)}
    assert exact == {k: v for k, v in second.metrics.items() if not _is_wall_clock(k)}
    assert first.metrics["engine.runs_created"][0] > 0


@pytest.mark.parametrize("name", sorted(TINY_EVENTS))
def test_another_seed_changes_the_stream(name):
    spec = _tiny(name)

    def events(seed):
        workload = spec.generate(spec.sub_seed(seed, 0), spec.segment_events)
        return [(event.t, dict(event.attrs)) for event in workload.stream]

    assert events(3) == events(3)
    assert events(3) != events(4)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(monkeypatch, capsys, trace):
    name = "q2-nongreedy-lru"
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in expected]
    for metric in expected:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert isinstance(result["metrics"][metric.name]["value"], float)
    printed = expected + (() if trace else VIRTUAL)
    table = "\n".join(lines[:-1])
    for metric in printed:
        assert any(
            line.split()[:1] == [metric.name] and line.split()[2] == metric.unit
            for line in table.splitlines()
        ), metric.name


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        config = json.load(handle)

    def entries(metrics):
        return [(m.name, m.unit, m.better) for m in metrics]

    assert [(m["name"], m["unit"], m["better"]) for m in config["end_to_end"]] == entries(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == entries(PER_LAYER)
    assert {w["name"]: w["why"] for w in config["workloads"]} == {
        spec.name: spec.why for spec in workloads.WORKLOADS.values()
    }
