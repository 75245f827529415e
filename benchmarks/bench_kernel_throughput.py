"""Propagation-kernel throughput: native vs bitset engines.

Not a paper table -- this gates the engine ladder: on the Table 2
benchmark suite, a fixed per-network solver mix must run **>= 6x**
faster through the native C engine (:mod:`repro.csp.native`) than
through the bitset engine, while both return **byte-identical**
solutions, RNG streams and effort counters (nodes, backtracks,
backjumps, consistency checks, restarts).

The mix per network is the propagation-dominated serving work one
request fans out into:

* an AC-3 preprocessing pass (whole-domain revisions);
* an enhanced-scheme solve (the whole MCV/LCV, graph-backjumping
  search, one native call);
* a forward-checking solve (MRV selection);
* a 16-seed min-conflicts restart portfolio with a fixed step budget,
  the dominant share by design -- conflict scanning is the paper
  workload's propagation hot spot.

Environment knobs (the CI smoke jobs cap the budgets and disable the
timing gate; parity is asserted either way):

* ``REPRO_BENCH_MC_STEPS``    -- per-chain step budget (default 600);
* ``REPRO_BENCH_MC_CHAINS``   -- chains per network (default 16);
* ``REPRO_BENCH_NATIVE_GATE`` -- the native-vs-bitset gate: ``0``
  reports without failing, any other value is the required multiple
  (default ``6``).  The native run is skipped on compilerless hosts.

Run:  pytest benchmarks/bench_kernel_throughput.py --benchmark-only -s
"""

import os
import time

import pytest

from repro.bench import BENCHMARK_NAMES
from repro.csp.arc_consistency import ac3
from repro.csp.enhanced import EnhancedSolver
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.vectorized import batch_min_conflicts
from repro.opt.report import format_table
from benchmarks.conftest import HARNESS_SEED

#: Min-conflicts budgets: the chains deliberately dominate the mix.
MC_STEPS = int(os.environ.get("REPRO_BENCH_MC_STEPS", 600))
MC_CHAINS = int(os.environ.get("REPRO_BENCH_MC_CHAINS", 16))
MC_RESTARTS = 2

#: Native-vs-bitset gate: "0" reports only, anything else is the
#: required multiple.  The default 6x is what the ladder demanded
#: when a 3x tier sat between the two and native had to beat it 2x.
_NATIVE_GATE_RAW = os.environ.get("REPRO_BENCH_NATIVE_GATE", "6").strip()
NATIVE_GATE = _NATIVE_GATE_RAW != "0"
NATIVE_REQUIRED_SPEEDUP = float(_NATIVE_GATE_RAW) if NATIVE_GATE else 0.0

#: Observability overhead gate: the traced mix may cost at most 3%
#: over the untraced mix (``REPRO_BENCH_OBS_GATE=0`` reports without
#: failing -- shared CI runners time unreliably).
OBS_GATE = os.environ.get("REPRO_BENCH_OBS_GATE", "1") != "0"
OBS_MAX_OVERHEAD = 0.03

_runs: dict[str, dict] = {}


def _run_mix(kernel, engine: str) -> tuple[dict, dict[str, float]]:
    """One network's request mix; returns (observables, seconds-by-op)."""
    seconds: dict[str, float] = {}

    start = time.perf_counter()
    arc = ac3(kernel, engine=engine)
    seconds["ac3"] = time.perf_counter() - start

    start = time.perf_counter()
    enhanced = EnhancedSolver(seed=HARNESS_SEED, engine=engine).solve(kernel)
    seconds["enhanced"] = time.perf_counter() - start

    start = time.perf_counter()
    forward = ForwardCheckingSolver(engine=engine).solve(kernel)
    seconds["fc"] = time.perf_counter() - start

    start = time.perf_counter()
    chains = batch_min_conflicts(
        kernel,
        seeds=[HARNESS_SEED + index for index in range(MC_CHAINS)],
        max_steps=MC_STEPS,
        max_restarts=MC_RESTARTS,
        engine=engine,
    )
    seconds["minconflicts"] = time.perf_counter() - start

    def counters(result):
        stats = result.stats.as_dict()
        stats.pop("time_seconds")
        return stats

    observed = {
        "ac3": (arc.consistent, arc.domains, arc.revisions, arc.removed),
        "enhanced": (enhanced.assignment, counters(enhanced)),
        "fc": (forward.assignment, counters(forward)),
        "chains": [
            (chain.assignment, chain.complete, counters(chain))
            for chain in chains
        ],
    }
    return observed, seconds


def _native_param():
    from repro.csp.vectorized import native_available

    return pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(),
            reason="native kernel unavailable (no C compiler, no cache)",
        ),
    )


@pytest.mark.parametrize("engine", ["bitset", _native_param()])
def test_kernel_throughput(benchmark, engine, networks):
    """Time the full-suite mix once per engine (one-shot, like Table 2)."""
    kernels = {name: networks[name].kernel() for name in BENCHMARK_NAMES}
    if engine == "native":
        # A resident worker compiles/loads the shared library and
        # lowers each kernel once, then serves many requests from it,
        # which is the throughput being modelled here.
        from repro.csp.native.ops import as_native

        for kernel in kernels.values():
            as_native(kernel)

    def run_suite():
        observed: dict[str, dict] = {}
        seconds: dict[str, dict[str, float]] = {}
        for name, kernel in kernels.items():
            observed[name], seconds[name] = _run_mix(kernel, engine)
        return observed, seconds

    start = time.perf_counter()
    observed, seconds = run_suite()
    elapsed = time.perf_counter() - start
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"suite_seconds": elapsed, "suites_per_second": 1.0 / elapsed}
    )
    _runs[engine] = {
        "observed": observed,
        "seconds": seconds,
        "elapsed": elapsed,
    }


def test_parity_and_speedup(benchmark):
    """Byte-identical observables; gated native suite throughput."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert "bitset" in _runs, "run the engine benchmarks first"
    bitset = _runs["bitset"]
    native_run = _runs.get("native")  # absent on compilerless hosts
    if native_run is None:
        pytest.skip("native kernel unavailable: nothing to compare")

    # Parity: solutions, UNSAT/completeness verdicts, RNG-stream-pinned
    # effort counters, AC-3 domains and revision counts -- everything
    # observable must match byte for byte across the engines.
    for name in BENCHMARK_NAMES:
        assert bitset["observed"][name] == native_run["observed"][name], name

    rows = []
    for name in BENCHMARK_NAMES:
        per_engine = {
            "bitset": bitset["seconds"][name],
            "native": native_run["seconds"][name],
        }
        rows.append(
            [
                name,
                *(
                    " / ".join(
                        f"{per_engine[eng][op] * 1e3:.1f}" for eng in per_engine
                    )
                    for op in ("ac3", "enhanced", "fc", "minconflicts")
                ),
                f"{sum(per_engine['bitset'].values()) / sum(per_engine['native'].values()):.2f}x",
            ]
        )
    speedup = bitset["elapsed"] / native_run["elapsed"]
    print("\n\n=== Propagation-kernel throughput (ms bitset / ms native) ===")
    print(
        format_table(
            ["Benchmark", "ac3", "enhanced", "fc", f"mc x{MC_CHAINS}", "speedup"],
            rows,
        )
    )
    print(
        f"suite: bitset {bitset['elapsed']:.3f}s, native "
        f"{native_run['elapsed']:.3f}s -> {speedup:.2f}x "
        f"(gate {'>= %.1fx' % NATIVE_REQUIRED_SPEEDUP if NATIVE_GATE else 'off'})"
    )
    benchmark.extra_info.update(
        {"native_speedup_vs_bitset": speedup, "native_gated": NATIVE_GATE}
    )
    if NATIVE_GATE:
        assert speedup >= NATIVE_REQUIRED_SPEEDUP, (
            f"native engine is {speedup:.2f}x the bitset engine; "
            f"the C kernel must deliver >= {NATIVE_REQUIRED_SPEEDUP}x "
            f"(tune with REPRO_BENCH_NATIVE_GATE)"
        )


def test_observability_overhead(benchmark, networks):
    """Tracing costs <= 3% on the mix; the disabled API writes nothing.

    Deliberately independent of ``_runs`` (the engine benchmarks above
    own that): this test times its own suite pair, once with the
    ambient observability APIs disabled (the default) and once inside a
    worker-style :func:`repro.obs.capture`, and gates the ratio.
    """
    from repro.obs import capture
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    # The no-op claim is deterministic, not a timing claim: disabled,
    # the ambient APIs hand back shared singletons and write nothing.
    assert not obs_trace.enabled() and not obs_metrics.enabled()
    assert obs_trace.span("anything") is obs_trace.span("else")
    before = obs_metrics.get_registry().snapshot()
    obs_metrics.counter("bench_noop_total")
    obs_metrics.observe("bench_noop_seconds", 1.0)
    assert obs_metrics.get_registry().snapshot() == before

    kernels = {name: networks[name].kernel() for name in BENCHMARK_NAMES}

    def suite() -> None:
        for kernel in kernels.values():
            _run_mix(kernel, "auto")

    def traced_suite():
        with capture("bench_overhead") as captured:
            suite()
        return captured

    suite()  # warm-up both paths before timing
    captured = traced_suite()
    assert captured.root.children, "tracing recorded no spans"
    assert captured.registry.snapshot()["metrics"], "no metrics captured"

    plain_runs, traced_runs = [], []
    for _ in range(3):  # interleaved min-of-3: robust to ambient load
        start = time.perf_counter()
        suite()
        plain_runs.append(time.perf_counter() - start)
        start = time.perf_counter()
        traced_suite()
        traced_runs.append(time.perf_counter() - start)
    overhead = min(traced_runs) / min(plain_runs) - 1.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"obs_overhead_fraction": overhead, "gated": OBS_GATE}
    )
    print(
        f"\nobservability overhead: untraced {min(plain_runs):.3f}s, "
        f"traced {min(traced_runs):.3f}s -> {overhead * 100:+.2f}% "
        f"(gate {'<= %.0f%%' % (OBS_MAX_OVERHEAD * 100) if OBS_GATE else 'off'})"
    )
    if OBS_GATE:
        assert overhead <= OBS_MAX_OVERHEAD, (
            f"observability adds {overhead * 100:.2f}% to the traced mix; "
            f"the budget is {OBS_MAX_OVERHEAD * 100:.0f}%"
        )
