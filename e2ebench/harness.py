"""Run one workload and print its metrics; the last line is the result.

Workloads (why each exists is in ``BENCHMARK.json``; predictions and
seeds in ``predictions.json``):

* ``cold_mix`` -- a fresh daemon per round, memory-only cache; every
  request of the mix (the five paper programs plus ``random_suite``,
  a fixed share also as ``evaluate``) is a miss.  Closed loop: one
  connection, one request outstanding.
* ``warm_repeat`` -- the same mix after an untimed fill pass, replayed
  as byte-identical repeats and renamed twins in pipelined windows
  over one connection.  Every request is a cache read.
* ``search_hard`` -- in-process, no daemon: unplanted random networks
  near the SAT/UNSAT crossover plus the paper networks, each solved by
  five schemes under fixed budgets and enumerated.

``--trace 0`` measures the end-to-end metrics with tracing off.  Every
time metric is rescaled to a nominal host speed by probes around each
timed segment (see ``e2ebench/speed.py``); ``host_speed`` reports the
median factor.
``--trace 1`` is the separate traced run: it replays the workload's
exact request lines in this process under benchmark-owned spans and
reports the per-layer metrics, the tracing overhead (traced against
untraced replay) and the serving overhead (replay against the daemon's
own ``seconds``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median

from repro.eval.analytic import AnalyticCostModel

from e2ebench import layers, search
from e2ebench.checks import AnswerFacts, answer, answer_of_line, complete_layouts, effort
from e2ebench.measure import Tally, percentile, samples_needed
from e2ebench.proc import Daemon, closed_loop, pipelined
from e2ebench.replay import SPLIT_SHARE, replay_in_fresh_process, untraced_replay
from e2ebench.spans import Tracer, dump_spans
from e2ebench.speed import HostSpeed
from e2ebench.workloads import serving_mix, serving_programs, warm_cycle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".e2ebench"
WORKLOADS = ("cold_mix", "warm_repeat", "search_hard")

#: End-to-end metrics of the result line (``BENCHMARK.json`` lists the same).
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_rps": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "layout_cost": "est-misses",
}
#: End-to-end figures printed by name but kept out of the result line:
#: the exact effort counts spread too widely across seeds for a bound
#: (a few heavy-tailed programs dominate), ``wall_s`` is the time of
#: one pass over the workload, ``ops / throughput_rps``, and
#: ``host_speed`` the median factor that rescaled the run's times.
REPORTED_UNITS = {
    "wall_s": "s",
    "host_speed": "ratio",
    "search_nodes": "count",
    "consistency_checks": "count",
}

#: Environment variables that change which engine or search mode runs;
#: a run under any of them would not measure the default program.
REFUSED_ENV = (
    "REPRO_CSP_ENGINE",
    "REPRO_CSP_SEARCH",
    "REPRO_AUTO_MIN_SUPPORT_CELLS",
    "REPRO_NATIVE_MIN_SUPPORT_CELLS",
    "REPRO_SPLIT_WORKERS",
    "REPRO_NATIVE_CACHE_DIR",
)

#: Pipelined window of the warm load generator, in request lines.
WINDOW = 16
#: Fresh daemons per warm_repeat run (each pays spawn plus fill).
WARM_ROUNDS = 3
#: Set-ups per search_hard run (generate and compile every network).
SEARCH_SETUPS = 3
#: search_hard instances per timed segment (about half a second).
SEARCH_CHUNK = 40
#: No run measures longer than this, whatever its sample count.
HARD_LIMIT_S = 120.0


class Run:
    """What a workload run produced: metrics, tally, report lines."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.tally = Tally()
        self.report: list[str] = []
        self.host: dict = {}

    def note(self, line: str) -> None:
        self.report.append(line)


# -- host record ----------------------------------------------------------


def host_record(seed: int) -> dict:
    import numpy

    from repro.csp.vectorized import native_available

    digest = hashlib.sha256()
    lines = 0
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if not d.startswith(("_", ".")))
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                with open(os.path.join(directory, name), "rb") as handle:
                    data = handle.read()
                digest.update(name.encode() + b"\0" + data)
                if name.endswith(".py"):
                    lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native": native_available(),
        "seed": seed,
        "src_lines": lines,
    }


# -- daemon workloads -----------------------------------------------------


def _socket_path(tag: str) -> str:
    # Relative to the checkout root (the working directory), so a deep
    # checkout never exceeds the unix socket path limit.
    return os.path.join(OUT_DIR, f"{tag}-{os.getpid()}.sock")


def _daemon(tag: str) -> Daemon:
    return Daemon(ROOT, _socket_path(tag), os.path.join(OUT_DIR, f"{tag}-{os.getpid()}.log"))


def _check_responses(run, requests, responses, reference, facts, key_prefix, cached):
    """Per response: ok, expected tier, equal to the reference answer,
    and an exact solve must satisfy an independently built network."""
    parsed = []
    for index, (request, line) in enumerate(zip(requests, responses)):
        key = (key_prefix, index)
        try:
            response = json.loads(line)
        except ValueError:
            run.tally.fail(key, "response is not JSON")
            parsed.append(None)
            continue
        parsed.append(response)
        if not run.tally.check(key, response.get("ok") is True,
                               f"{request.sent_name}: {response.get('error')}"):
            continue
        run.tally.check(key, response.get("from_cache") is cached,
                        f"{request.sent_name}: from_cache is not {cached}")
        run.tally.check(key, answer(response) == reference[request.canonical_key],
                        f"{request.sent_name}: answer differs from the reference")
        if request.kind == "solve":
            run.tally.check(key, facts.solution_ok(request.program, response["result"]),
                            f"{request.sent_name}: layouts violate the network")
    return parsed


def _reference(requests, lines):
    """Canonical answers of the untraced in-process replay."""
    responses, _ = untraced_replay(lines, [])
    return {
        request.canonical_key: answer_of_line(line)
        for request, line in zip(requests, responses)
    }


def _answer_figures(run, requests, parsed, facts) -> None:
    """layout_cost and the search effort carried by one pass's solve answers."""
    cost = nodes = checks = 0
    for request, response in zip(requests, parsed):
        if request.kind != "solve" or not response or not response.get("ok"):
            continue
        result = response["result"]
        cost += facts.layout_cost(request.program, result)
        spent = effort(result)
        nodes += spent[0]
        checks += spent[1]
    run.metrics.update(layout_cost=cost, search_nodes=nodes, consistency_checks=checks)


def _rate_metrics(run, latencies, passes) -> None:
    """Latency percentiles over every request; rates as the median pass.

    ``passes`` holds ``(operations, wall_seconds, cpu_seconds)`` per
    timed pass over the workload; the median pass is robust to a burst
    of host contention in one of them.  Throughput counts ok operations
    only.  Every time comes already rescaled by its segment's host-speed
    factor.
    """
    ms = [value * 1000.0 for value in latencies]
    ok_share = 1.0 - run.tally.failed / run.tally.attempted
    run.metrics["latency_p50_ms"] = percentile(ms, 0.50)
    run.metrics["latency_p95_ms"] = percentile(ms, 0.95)
    run.metrics["throughput_rps"] = ok_share * median(ops / wall for ops, wall, _ in passes)
    run.metrics["cpu_ms_per_op"] = median(cpu * 1000.0 / ops for ops, _, cpu in passes)
    run.metrics["wall_s"] = median(wall for _, wall, _ in passes)
    beyond = len(ms) - math.ceil(0.95 * len(ms))
    run.note(f"latency samples: {len(ms)} (p95 leaves {beyond} beyond)")


def cold_mix(seed: int, seconds: float) -> Run:
    run = Run()
    requests = serving_mix(serving_programs(seed))
    lines = [request.line(index + 1) for index, request in enumerate(requests)]
    facts = AnswerFacts()
    speed = HostSpeed()
    setups, latencies, passes = [], [], []
    rss = 0.0
    first: list[bytes] | None = None
    started = time.perf_counter()
    timed = 0.0
    rounds = 0
    while (timed < seconds or len(latencies) < samples_needed(0.95)) and (
        time.perf_counter() - started < HARD_LIMIT_S
    ):
        run.tally.attempt(len(requests))
        try:
            speed.start()
            with _daemon("cold") as daemon:
                setups.append(daemon.setup_seconds * speed.lap())
                cpu_before = daemon.cpu_seconds()
                begin = time.perf_counter()
                responses, round_trips = closed_loop(daemon.connection, requests, 1)
                wall = time.perf_counter() - begin
                cpu = daemon.cpu_seconds() - cpu_before
                factor = speed.lap()
                stats = daemon.stats()
                rss = max(rss, daemon.peak_rss_mb())
        except (OSError, RuntimeError, ValueError) as exc:
            for index in range(len(requests)):
                run.tally.fail((rounds, index), f"round {rounds}: {exc!r}")
            break
        timed += wall
        passes.append((len(requests), wall * factor, cpu * factor))
        latencies.extend(trip * factor for trip in round_trips)
        if first is None:
            first = responses
        for index, (line, reference) in enumerate(zip(responses, first)):
            run.tally.check((rounds, index), answer_of_line(line) == answer_of_line(reference),
                            f"round {rounds}: answer {index} differs from round 0")
        if stats["counters"]["errors"]:
            run.tally.fail((rounds, 0), f"daemon counted {stats['counters']['errors']} errors")
        rounds += 1
    if first is None:
        return run
    reference = _reference(requests, lines)
    parsed = _check_responses(run, requests, first, reference, facts, "check", cached=False)
    # A wrong answer in round 0 is wrong in every round that repeated it.
    for key, reason in list(run.tally.failures.items()):
        if key[0] == "check":
            for round_index in range(rounds):
                run.tally.fail((round_index, key[1]), reason)
            del run.tally.failures[key]
    _rate_metrics(run, latencies, passes)
    _answer_figures(run, requests, parsed, facts)
    run.metrics.update(setup_s=median(setups), peak_rss_mb=rss,
                       host_speed=speed.median_factor())
    run.note(f"rounds: {rounds} fresh daemons x {len(requests)} requests")
    return run


def _windows(cycle_lines: list[bytes]) -> list[list[bytes]]:
    return [cycle_lines[i:i + WINDOW] for i in range(0, len(cycle_lines), WINDOW)]


def _fill(daemon: Daemon, fill_lines: list[bytes], speed: HostSpeed | None = None):
    """The untimed fill pass; returns the responses and its seconds
    (rescaled per window when ``speed`` is given)."""
    responses, seconds = [], 0.0
    for window in _windows(fill_lines):
        begin = time.perf_counter()
        responses.extend(pipelined(daemon.connection, window)[0])
        seconds += (time.perf_counter() - begin) * (speed.lap() if speed else 1.0)
    return responses, seconds


def warm_repeat(seed: int, seconds: float) -> Run:
    run = Run()
    mix = serving_mix(serving_programs(seed))
    cycle = warm_cycle(mix, seed)
    fill_lines = [request.line(index + 1) for index, request in enumerate(mix)]
    cycle_lines = [request.line(index + 1) for index, request in enumerate(cycle)]
    windows = _windows(cycle_lines)
    facts = AnswerFacts()
    reference = _reference(mix, fill_lines)
    speed = HostSpeed()
    setups, latencies, passes, served = [], [], [], []
    rss = 0.0
    started = time.perf_counter()
    for round_index in range(WARM_ROUNDS):
        run.tally.attempt(len(mix))
        last = round_index == WARM_ROUNDS - 1
        try:
            speed.start()
            with _daemon("warm") as daemon:
                spawn = daemon.setup_seconds * speed.lap()
                filled, fill_seconds = _fill(daemon, fill_lines, speed)
                setups.append(spawn + fill_seconds)
                round_end = time.perf_counter() + seconds / WARM_ROUNDS
                while time.perf_counter() < round_end or (
                    last
                    and len(latencies) < samples_needed(0.95)
                    and time.perf_counter() - started < HARD_LIMIT_S
                ):
                    cpu_before = daemon.cpu_seconds()
                    begin = time.perf_counter()
                    trips = []
                    for window in windows:
                        responses, round_trips = pipelined(daemon.connection, window)
                        trips.extend(round_trips)
                        served.extend(responses)
                    wall = time.perf_counter() - begin
                    cpu = daemon.cpu_seconds() - cpu_before
                    factor = speed.lap()
                    latencies.extend(trip * factor for trip in trips)
                    passes.append((len(cycle), wall * factor, cpu * factor))
                rss = max(rss, daemon.peak_rss_mb())
        except (OSError, RuntimeError, ValueError) as exc:
            run.tally.fail(("fill", round_index), f"round {round_index}: {exc!r}")
            break
        _check_responses(run, mix, sorted(filled, key=_response_id), reference,
                         facts, ("fill", round_index), cached=False)
    if not passes:
        return run
    by_id = {index + 1: request for index, request in enumerate(cycle)}
    run.tally.attempt(len(served))
    for index, line in enumerate(served):
        key = ("timed", index)
        response = json.loads(line)
        request = by_id.get(response.get("id"))
        if request is None:
            run.tally.fail(key, f"response to unknown id {response.get('id')}")
            continue
        if not run.tally.check(key, response.get("ok") is True,
                               f"{request.sent_name}: {response.get('error')}"):
            continue
        run.tally.check(key, response.get("from_cache") is True,
                        f"{request.sent_name}: not served from cache")
        run.tally.check(key, answer(response) == reference[request.canonical_key],
                        f"{request.sent_name}: answer differs from the reference")
    # One pass over the cycle, in cycle order: the layouts and effort served.
    first_pass = [json.loads(line) for line in sorted(served[: len(cycle)], key=_response_id)]
    for request, response in zip(cycle, first_pass):
        if request.kind == "solve" and response.get("ok"):
            run.tally.check(("timed", request.sent_name),
                            facts.solution_ok(request.program, response["result"]),
                            f"{request.sent_name}: layouts violate the network")
    _answer_figures(run, cycle, first_pass, facts)
    _rate_metrics(run, latencies, passes)
    run.metrics.update(setup_s=median(setups), peak_rss_mb=rss,
                       host_speed=speed.median_factor())
    run.note(
        f"rounds: {len(setups)} daemons (spawn + fill); {len(passes)} passes over "
        f"{len(cycle)} requests ({len(mix)} repeats, {len(mix)} renamed twins) "
        f"in pipelined windows of {WINDOW}"
    )
    return run


def _response_id(line: bytes):
    return json.loads(line).get("id")


# -- search_hard ----------------------------------------------------------


def _search_layout_cost(instances, records) -> float:
    """Analytic misses of the enhanced scheme's layouts on the paper networks."""
    model = AnalyticCostModel()
    cost = 0.0
    for instance, record in zip(instances, records):
        assignment = record["enhanced"]["assignment"]
        if instance.program is not None and assignment:
            cost += model.score(
                instance.program, complete_layouts(instance.program, assignment)
            ).value
    return cost


def _timed_search_round(kernels, speed: HostSpeed, latencies: list):
    """One timed pass in segments of :data:`SEARCH_CHUNK` instances.

    Appends each instance's rescaled seconds to ``latencies``; returns
    the records, the raw wall seconds and the rescaled (wall, cpu).
    """
    records, raw, wall, cpu = [], 0.0, 0.0, 0.0
    speed.start()
    for start in range(0, len(kernels), SEARCH_CHUNK):
        cpu_before = time.process_time()
        begin = time.perf_counter()
        chunk_records, per_instance = search.run_round(kernels[start:start + SEARCH_CHUNK])
        chunk_wall = time.perf_counter() - begin
        chunk_cpu = time.process_time() - cpu_before
        factor = speed.lap()
        records.extend(chunk_records)
        latencies.extend(seconds * factor for seconds in per_instance)
        raw += chunk_wall
        wall += chunk_wall * factor
        cpu += chunk_cpu * factor
    return records, raw, wall, cpu


def search_hard(seed: int, seconds: float) -> Run:
    run = Run()
    speed = HostSpeed()
    setups = []
    for _ in range(SEARCH_SETUPS):
        speed.start()
        begin = time.perf_counter()
        instances, kernels = search.prepare(seed)
        setups.append((time.perf_counter() - begin) * speed.lap())
    run.host["engines"] = search.resolved_engines(kernels)
    # Untimed warm-up: one segment's instances, so first-call costs of
    # the kernels and the solvers stay out of the timed rounds.
    search.run_round(kernels[:SEARCH_CHUNK])
    latencies, passes = [], []
    reference = None
    timed = 0.0
    started = time.perf_counter()
    while (timed < seconds or len(latencies) < samples_needed(0.95)) and (
        time.perf_counter() - started < HARD_LIMIT_S
    ):
        round_index = len(passes)
        run.tally.attempt(len(kernels))
        records, raw, wall, cpu = _timed_search_round(kernels, speed, latencies)
        timed += raw
        passes.append((len(kernels), wall, cpu))
        if reference is None:
            reference = records
            for instance, kernel, record in zip(instances, kernels, records):
                search.check_instance(
                    instance, kernel, record,
                    lambda reason, key=(0, instance.name): run.tally.fail(key, reason),
                )
            continue
        for instance, record, expected in zip(instances, records, reference):
            run.tally.check(
                (round_index, instance.name),
                search.comparable(record) == search.comparable(expected),
                f"{instance.name}: round {round_index} differs from round 0",
            )
    _rate_metrics(run, latencies, passes)
    run.metrics.update(
        setup_s=median(setups),
        layout_cost=_search_layout_cost(instances, reference),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        search_nodes=sum(r[s]["nodes"] for r in reference for s in search.SCHEMES),
        consistency_checks=sum(r[s]["checks"] for r in reference for s in search.SCHEMES),
        host_speed=speed.median_factor(),
    )
    verdicts = [r["forward-checking"]["verdict"] for r in reference]
    run.note(
        f"rounds: {len(passes)} x {len(kernels)} instances "
        f"({verdicts.count('sat')} sat, {verdicts.count('unsat')} unsat); "
        f"engines {run.host['engines']}"
    )
    return run


# -- traced runs ----------------------------------------------------------


def _median_metrics(rows: list[dict]) -> dict[str, float]:
    return {name: median([row[name] for row in rows]) for name in rows[0]}


def _heavy_layers(metrics: dict) -> list[str]:
    """Layers above SPLIT_SHARE of request time, to be split further."""
    return [
        layer for layer in layers.LAYERS
        if layer != "other" and metrics[f"{layer}.share"] > SPLIT_SHARE
    ]


def _report_layers(run: Run, metrics: dict, splits: dict) -> None:
    shares = ", ".join(
        f"{layer} {metrics[f'{layer}.share']:.1%}"
        for layer in layers.LAYERS
        if metrics[f"{layer}.share"] >= 0.001
    )
    run.note(f"self-time shares of request time: {shares}")
    run.note(
        f"tracing overhead: traced replay {metrics['trace.overhead']:+.1%} over "
        f"untraced ({metrics['replay.request_ms']:.3f} ms/request untraced)"
    )
    run.note(f"self-time coverage: min {metrics['coverage.min']:.1%} of a request")
    for layer, parts in splits.items():
        inner = ", ".join(f"{name} {share:.1%}" for name, share in parts.items())
        run.note(f"split of {layer} (> {SPLIT_SHARE:.0%}): {inner}")


def traced_daemon(workload: str, seed: int, seconds: float) -> Run:
    run = Run()
    mix = serving_mix(serving_programs(seed))
    fill = mix if workload == "warm_repeat" else []
    requests = warm_cycle(mix, seed) if workload == "warm_repeat" else mix
    fill_lines = [request.line(index + 1) for index, request in enumerate(fill)]
    lines = [request.line(index + 1) for index, request in enumerate(requests)]
    facts = AnswerFacts()
    cached = workload == "warm_repeat"

    # The daemon's own view: server seconds and round trips, closed loop.
    run.tally.attempt(len(requests))
    with _daemon("traced") as daemon:
        if fill_lines:
            _fill(daemon, fill_lines)
        daemon_lines, round_trips = closed_loop(daemon.connection, requests, 1)
        counters = daemon.stats()["counters"]
    daemon_answers = [json.loads(line) for line in daemon_lines]
    server = [response.get("seconds", 0.0) for response in daemon_answers]

    untraced_ms, untraced_server_ms, rows, last = [], [], [], None
    reference = None
    started = time.perf_counter()
    while len(rows) < 2 or time.perf_counter() - started < seconds:
        round_index = len(rows)
        run.tally.attempt(2 * len(requests))
        untraced, untraced_seconds = replay_in_fresh_process(lines, fill_lines, False)
        untraced_ms.append(untraced_seconds * 1000.0 / len(lines))
        untraced_server_ms.append(
            sum(json.loads(line).get("seconds", 0.0) for line in untraced)
            * 1000.0 / len(lines)
        )
        traced, spans = replay_in_fresh_process(lines, fill_lines, True)
        if reference is None:
            reference = {
                request.canonical_key: answer_of_line(line)
                for request, line in zip(requests, untraced)
            }
            _check_responses(run, requests, daemon_lines, reference, facts, "daemon", cached)
        for tag, responses in (("untraced", untraced), ("traced", traced)):
            _check_responses(run, requests, responses, reference, facts,
                             (tag, round_index), cached)
        analysis = layers.analyse(spans)
        row = layers.per_layer_metrics(analysis)
        row["trace.overhead"] = (
            analysis["request_ns"] / analysis["requests"] / 1e6 / untraced_ms[-1] - 1.0
        )
        row["cache.hit_ratio"] = sum(
            json.loads(line).get("from_cache") is True for line in traced
        ) / len(traced)
        rows.append(row)
        last = spans
    metrics = dict.fromkeys(layers.PER_LAYER_UNITS, 0.0)
    metrics.update(_median_metrics(rows))
    replay_ms = median(untraced_ms)
    replay_server_ms = median(untraced_server_ms)
    server_ms = sum(server) * 1000.0 / len(server)
    metrics.update({
        "stream.request_bytes": sum(map(len, lines)) / len(lines),
        "daemon.server_ms": server_ms,
        "daemon.overhead_ms": (sum(round_trips) - sum(server)) * 1000.0 / len(server),
        "daemon.deduplicated": counters["deduplicated"],
        "daemon.errors": counters["errors"],
        "replay.request_ms": replay_ms,
        "serve.overhead_ms": server_ms - replay_server_ms,
    })
    heavy = _heavy_layers(metrics)
    splits = {}
    if heavy:
        _, split_spans = replay_in_fresh_process(lines, fill_lines, True, heavy)
        splits = {layer: layers.split(split_spans, layer) for layer in heavy}
    dump_spans(last, os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    run.metrics = metrics
    _report_layers(run, metrics, splits)
    run.note(
        f"serving overhead: daemon server time {server_ms:.3f} ms/request vs "
        f"{replay_server_ms:.3f} ms for the same span of the in-process replay "
        f"(parsed line to response, before encoding); the socket round trip "
        f"adds {metrics['daemon.overhead_ms']:.3f} ms"
    )
    front = sum(metrics[f"{layer}.share"] for layer in ("stream", "fingerprint", "cache"))
    run.note(
        f"stream+fingerprint+cache: {front:.1%} of request time; "
        f"build {metrics['build.ms']:.3f} ms, solve "
        f"{sum(metrics[f'solve.{s}.ms'] for s in layers.SCHEMES):.3f} ms, "
        f"repair {metrics['repair.ms']:.3f} ms per request"
    )
    run.note(f"traced rounds: {len(rows)} x {len(requests)} requests")
    return run


def traced_search(seed: int, seconds: float) -> Run:
    run = Run()
    instances, kernels = search.prepare(seed)
    run.host["engines"] = search.resolved_engines(kernels)
    untraced_ms, rows, last = [], [], None
    reference = None
    started = time.perf_counter()
    while len(rows) < 2 or time.perf_counter() - started < seconds:
        round_index = len(rows)
        run.tally.attempt(2 * len(kernels))
        untraced, per_instance = search.run_round(kernels)
        untraced_ms.append(sum(per_instance) * 1000.0 / len(kernels))
        tracer = Tracer()
        traced, _ = search.run_round(kernels, tracer)
        if reference is None:
            reference = untraced
            for instance, kernel, record in zip(instances, kernels, untraced):
                search.check_instance(
                    instance, kernel, record,
                    lambda reason, key=("check", instance.name): run.tally.fail(key, reason),
                )
        for tag, records in (("untraced", untraced), ("traced", traced)):
            for instance, record, expected in zip(instances, records, reference):
                run.tally.check(
                    (tag, round_index, instance.name),
                    search.comparable(record) == search.comparable(expected),
                    f"{instance.name}: {tag} round {round_index} differs from reference",
                )
        analysis = layers.analyse(tracer.spans)
        row = layers.per_layer_metrics(analysis)
        row["trace.overhead"] = (
            analysis["request_ns"] / analysis["requests"] / 1e6 / untraced_ms[-1] - 1.0
        )
        rows.append(row)
        last = tracer
    metrics = dict.fromkeys(layers.PER_LAYER_UNITS, 0.0)
    metrics.update(_median_metrics(rows))
    metrics["replay.request_ms"] = median(untraced_ms)
    splits = {layer: layers.split(last.spans, layer) for layer in _heavy_layers(metrics)}
    dump_spans(last.spans, os.path.join(OUT_DIR, f"spans-search_hard-{seed}.jsonl"))
    run.metrics = metrics
    _report_layers(run, metrics, splits)
    run.note(f"traced rounds: {len(rows)} x {len(kernels)} instances")
    return run


# -- entry point ----------------------------------------------------------


def _default_seeds() -> dict:
    with open(os.path.join(ROOT, "e2ebench", "predictions.json"), encoding="utf-8") as handle:
        return json.load(handle)["seeds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: traced per-layer replay")
    args = parser.parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: "
              "the benchmark measures the program's own engine choice", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seed = args.seed if args.seed is not None else _default_seeds()["default"]
    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_record(seed)
    if args.trace:
        if args.workload == "search_hard":
            run = traced_search(seed, args.seconds)
        else:
            run = traced_daemon(args.workload, seed, args.seconds)
        units = layers.PER_LAYER_UNITS
    else:
        run = {"cold_mix": cold_mix, "warm_repeat": warm_repeat,
               "search_hard": search_hard}[args.workload](seed, args.seconds)
        units = END_TO_END_UNITS
    host.update(run.host)
    print("host " + json.dumps(host, sort_keys=True))
    for line in run.report:
        print(line)
    for reason in list(run.tally.failures.values())[:20]:
        print(f"FAILED: {reason}")
    printed = units if args.trace else {**units, **REPORTED_UNITS}
    for name, unit in printed.items():
        if name in run.metrics:
            print(f"{name} = {run.metrics[name]:.6g} {unit}")
    attempted = max(1, run.tally.attempted)
    if run.tally.attempted:
        print(f"error_rate = {run.tally.error_rate:.6g} ratio "
              f"({run.tally.failed} failed of {run.tally.attempted} attempted)")
    complete = all(name in run.metrics for name in units)
    result = {
        "correct": run.tally.failed == 0 and run.tally.attempted > 0 and complete,
        "attempted": attempted,
        "failed": run.tally.failed,
        "metrics": {
            name: {"value": run.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in run.metrics
        },
    }
    print(json.dumps(result))
    return 0
