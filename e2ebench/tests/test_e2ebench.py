"""Tests of the end-to-end benchmark harness itself.

Run from the repository root: ``PYTHONPATH=src python -m pytest e2ebench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from repro.bench import BENCHMARK_NAMES  # noqa: E402

from e2ebench import harness, measure, speed, workloads  # noqa: E402
from e2ebench.checks import AnswerFacts, answer  # noqa: E402
from e2ebench.layers import analyse, split  # noqa: E402
from e2ebench.spans import SpanRecord, self_times  # noqa: E402


# -- percentile helper ----------------------------------------------------


def test_p95_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="need 10"):
        measure.percentile(list(range(199)), 0.95)
    assert measure.percentile(list(range(1, 201)), 0.95) == 190
    assert measure.samples_needed(0.95) == 200


def test_p50_is_the_nearest_rank_median():
    assert measure.percentile(list(range(1, 22)), 0.50) == 11


# -- host-speed rescaling -------------------------------------------------


def test_a_segment_is_rescaled_by_the_probes_around_it(monkeypatch):
    nominal = speed.NOMINAL_PROBE_S
    readings = iter([nominal, 2 * nominal, 2 * nominal, nominal])
    monkeypatch.setattr(speed, "probe_seconds", lambda: next(readings))
    host = speed.HostSpeed()  # probes once: nominal
    # A host at half speed on both sides halves the segment's times.
    assert host.lap() == pytest.approx(2 / 3)  # probes: nominal, 2x
    assert host.lap() == pytest.approx(1 / 2)  # shares the 2x probe
    assert host.lap() == pytest.approx(2 / 3)
    assert host.median_factor() == pytest.approx(2 / 3)


def test_the_probe_is_a_positive_time():
    assert 0 < speed.probe_seconds() < 1


# -- error rate -----------------------------------------------------------


def _solve_fixture():
    program = workloads.serving_programs(1)[5]  # a small random program
    request = workloads.solve_request(program)
    from e2ebench.replay import Replayer

    line = Replayer().serve(request.line(1))
    return request, json.loads(line)


def test_error_rate_counts_a_wrong_answer_as_failed():
    request, good = _solve_fixture()
    wrong = json.loads(json.dumps(good))
    entry = next(iter(wrong["result"]["layouts"].values()))
    entry["rows"][0] = [value + 1 for value in entry["rows"][0]]
    reference = {request.canonical_key: answer(good)}
    run = harness.Run()
    run.tally.attempt(2)
    lines = [json.dumps(good).encode(), json.dumps(wrong).encode()]
    harness._check_responses(
        run, [request, request], lines, reference, AnswerFacts(), "t", cached=False
    )
    assert run.tally.failed == 1
    assert run.tally.error_rate == 0.5
    assert "differs from the reference" in next(iter(run.tally.failures.values()))


def test_an_operation_fails_once_however_many_checks_fail():
    tally = measure.Tally()
    tally.attempt(3)
    tally.check("a", False, "wrong answer")
    tally.check("a", False, "wrong tier")
    assert tally.failed == 1
    assert tally.failures["a"] == "wrong answer"


def test_answers_ignore_timing_id_tier_and_program_name():
    _, good = _solve_fixture()
    other = json.loads(json.dumps(good))
    other.update(id=99, from_cache=True, seconds=123.0)
    other["result"]["program"] = "renamed-twin"
    other["result"]["solve_seconds"] = 9.0
    assert answer(other) == answer(good)


# -- self time --------------------------------------------------------------


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        SpanRecord("request", 0, 100),
        SpanRecord("build", 10, 60, parent=0),
        SpanRecord("candidates", 15, 35, parent=1),
        SpanRecord("build.compile", 30, 50, parent=1),  # overlaps candidates
        SpanRecord("repair", 70, 95, parent=0),
    ]
    assert self_times(spans) == [100 - 50 - 25, 50 - 35, 20, 20, 25]
    analysis = analyse(spans)
    assert analysis["requests"] == 1
    assert analysis["coverage_min"] == pytest.approx(0.75)
    assert analysis["layer_self"]["build"] == 15 + 20
    parts = split(spans, "build")
    assert parts == {
        "build (self)": pytest.approx(0.15),
        "build.compile": pytest.approx(0.20),
        "candidates": pytest.approx(0.20),
    }


# -- workload shape ---------------------------------------------------------


def test_two_seeds_give_different_programs_with_the_same_shape():
    first = workloads.serving_mix(workloads.serving_programs(1))
    second = workloads.serving_mix(workloads.serving_programs(2))
    assert [r.kind for r in first] == [r.kind for r in second]
    paper = sum(r.program.name in BENCHMARK_NAMES for r in first)
    assert [r.body for r in first[:paper]] == [r.body for r in second[:paper]]
    assert all(a.body != b.body for a, b in zip(first[paper:], second[paper:]))
    assert [r.line(1) for r in first] == [
        r.line(1) for r in workloads.serving_mix(workloads.serving_programs(1))
    ]
    hard_one, hard_two = workloads.hard_instances(1), workloads.hard_instances(2)
    assert [i.params[:4] for i in hard_one if i.params] == [
        i.params[:4] for i in hard_two if i.params
    ]
    assert any(
        a.network.canonical_form() != b.network.canonical_form()
        for a, b in zip(hard_one, hard_two)
        if a.params
    )


def test_warm_cycle_twins_share_the_fingerprint_but_not_the_bytes():
    from repro.service.fingerprint import request_fingerprint
    from repro.service.stream import program_from_wire

    mix = workloads.serving_mix(workloads.serving_programs(3))
    cycle = workloads.warm_cycle(mix, 3)
    assert len(cycle) == 2 * len(mix)
    repeats = [r for r in cycle if r.sent_name == r.program.name]
    twins = [r for r in cycle if r.sent_name != r.program.name]
    assert len(repeats) == len(twins) == len(mix)
    for twin in twins[:5]:
        sent = program_from_wire(json.loads(twin.line(1))["program"])
        assert request_fingerprint(sent) == request_fingerprint(twin.program)
        assert twin.body not in {r.body for r in mix}


# -- smoke-size runs ----------------------------------------------------------


@pytest.fixture
def small(monkeypatch):
    monkeypatch.chdir(ROOT)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    monkeypatch.setattr(workloads, "RANDOM_PROGRAMS", 10)
    monkeypatch.setattr(workloads, "RANDOM_NETWORKS", 8)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_run_of_each_workload(small, workload):
    run = getattr(harness, workload)(seed=1, seconds=0.1)
    assert run.tally.attempted > 0
    assert run.tally.failures == {}
    expected = {**harness.END_TO_END_UNITS, **harness.REPORTED_UNITS}
    assert set(run.metrics) == set(expected)
    assert all(value > 0 for value in run.metrics.values())


def test_traced_smoke_run_reports_every_layer_metric(small):
    run = harness.traced_search(seed=1, seconds=0.1)
    assert run.tally.failures == {}
    assert set(harness.layers.PER_LAYER_UNITS) == set(run.metrics)
    assert run.metrics["solve.share"] > 0.5
    assert run.metrics["coverage.min"] >= 0.9


def test_benchmark_json_lists_what_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == harness.layers.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)
    assert bench["paths"] == ["e2ebench"]


def test_refuses_engine_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_CSP_ENGINE", "bitset")
    assert harness.main(["--workload", "search_hard"]) == 2


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "e2ebench")):
        path = os.path.join(ROOT, "e2ebench", name)
        if os.path.isfile(path):
            (bench / name).write_bytes(open(path, "rb").read())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "cold_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
