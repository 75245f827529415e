"""The engine seam: ``resolve_engine`` rules and engine-independent answers.

Two engines exist -- ``bitset`` (the reference loops) and ``native``
(the C kernel) -- and ``auto`` picks one per network.  This module pins
the resolution rules and checks that the choice never shows in an
answer: ``auto`` agrees with ``bitset``, and a ``batch_min_conflicts``
portfolio equals standalone solves on every engine this host can run.
The full bitset-vs-native parity suite is ``test_native_equivalence.py``.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import benchmark_build_options, build_benchmark
from repro.csp import vectorized
from repro.csp.arc_consistency import ac3
from repro.csp.compiled import compile_network
from repro.csp.enhanced import EnhancedSolver
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.network import ConstraintNetwork
from repro.csp.random_networks import random_network
from repro.csp.vectorized import (
    ENGINE_ENV,
    ENGINES,
    batch_min_conflicts,
    native_available,
    resolve_engine,
    support_cells,
)
from repro.opt.network_builder import build_layout_network

#: Every engine this host can run explicitly.
HOST_ENGINES = [
    "bitset",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(),
            reason="native kernel unavailable (no C compiler, no cache)",
        ),
    ),
]


@pytest.fixture
def kernel():
    return compile_network(
        random_network(5, 4, density=0.9, tightness=0.4, seed=11)
    )


@pytest.fixture
def tiny_kernel():
    return compile_network(random_network(2, 2, 0.5, 0.3, seed=1))


@pytest.fixture
def table1_kernel():
    program = build_benchmark("Med-Im04")
    return build_layout_network(program, benchmark_build_options()).kernel()


def counters(result):
    stats = result.stats.as_dict()
    stats.pop("time_seconds")  # wall clock is the one legitimate delta
    return stats


# -- resolution rules -------------------------------------------------------


@pytest.mark.parametrize("spec", ["gpu", "numpy"])
def test_resolve_engine_rejects_unknown_spec(kernel, spec):
    with pytest.raises(ValueError, match="unknown engine") as info:
        resolve_engine(spec, kernel)
    for engine in ENGINES:
        assert repr(engine) in str(info.value)


def test_resolve_engine_explicit_choices(kernel):
    assert resolve_engine("bitset", kernel) == "bitset"
    if native_available():
        assert resolve_engine("native", kernel) == "native"


def test_resolve_engine_auto_uses_size_threshold(
    tiny_kernel, table1_kernel, monkeypatch
):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    monkeypatch.setattr(vectorized, "native_available", lambda: True)
    assert support_cells(tiny_kernel) < vectorized.NATIVE_MIN_SUPPORT_CELLS
    assert resolve_engine("auto", tiny_kernel) == "bitset"
    assert support_cells(table1_kernel) >= vectorized.NATIVE_MIN_SUPPORT_CELLS
    assert resolve_engine("auto", table1_kernel) == "native"


def test_resolve_engine_auto_prefers_native(
    tiny_kernel, table1_kernel, monkeypatch
):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    monkeypatch.setattr(vectorized, "native_available", lambda: True)
    assert resolve_engine("auto", table1_kernel) == "native"
    # Without a usable native kernel every size stays on bitsets.
    monkeypatch.setattr(vectorized, "native_available", lambda: False)
    assert resolve_engine("auto", tiny_kernel) == "bitset"
    assert resolve_engine("auto", table1_kernel) == "bitset"


def test_resolve_engine_env_override(kernel, table1_kernel, monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "bitset")
    assert resolve_engine("auto", table1_kernel) == "bitset"
    # The explicit argument is not overridden by the environment.
    monkeypatch.setenv(ENGINE_ENV, "native")
    assert resolve_engine("bitset", kernel) == "bitset"


@pytest.mark.parametrize("override", ["numpy", "gpu"])
def test_unrecognised_env_override_resolves_as_auto(
    kernel, tiny_kernel, table1_kernel, monkeypatch, override
):
    for network in (kernel, tiny_kernel, table1_kernel):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        expected = resolve_engine("auto", network)
        monkeypatch.setenv(ENGINE_ENV, override)
        assert resolve_engine("auto", network) == expected


# -- the choice never shows in an answer ------------------------------------


@st.composite
def small_networks(draw):
    """Random networks spanning loose, tight, SAT and UNSAT regimes."""
    variables = draw(st.integers(2, 6))
    domain = draw(st.integers(2, 5))
    density = draw(st.floats(0.2, 1.0))
    tightness = draw(st.floats(0.0, 0.7))
    seed = draw(st.integers(0, 10_000))
    plant = draw(st.booleans())
    return random_network(
        variables, domain, density, tightness, seed=seed, plant_solution=plant
    )


@given(small_networks())
@settings(max_examples=15, deadline=None)
def test_auto_engine_matches_bitset(network):
    """``auto`` may pick either engine; the answer must not depend on it."""
    kernel = compile_network(network)
    auto = EnhancedSolver(seed=5, engine="auto").solve(kernel)
    bitset = EnhancedSolver(seed=5, engine="bitset").solve(kernel)
    assert auto.assignment == bitset.assignment
    assert counters(auto) == counters(bitset)


def _mixed_domain_network():
    """One wide hub pair constrained against a chain of narrow spokes."""
    rng = random.Random(17)
    network = ConstraintNetwork()
    network.add_variable("hub", list(range(40)))
    network.add_variable("hub2", list(range(40)))
    network.add_constraint(
        "hub",
        "hub2",
        [(a, b) for a in range(40) for b in range(40) if rng.random() > 0.3],
    )
    for index in range(6):
        name = f"spoke{index}"
        network.add_variable(name, list(range(4)))
        pairs = [(h, s) for h in range(40) for s in range(4) if rng.random() > 0.3]
        network.add_constraint("hub", name, pairs)
    for index in range(5):
        pairs = [(a, b) for a in range(4) for b in range(4) if rng.random() > 0.4]
        network.add_constraint(f"spoke{index}", f"spoke{index + 1}", pairs)
    return network


AC3_NETWORKS = {
    "small": lambda: random_network(30, 4, 0.3, 0.3, seed=5),
    "wide": lambda: random_network(6, 40, 0.8, 0.4, seed=9),
    "mixed": _mixed_domain_network,
}


@pytest.mark.parametrize("build", AC3_NETWORKS.values(), ids=AC3_NETWORKS.keys())
def test_auto_ac3_matches_bitset(build):
    """Narrow, wide and mixed-width domains: same fixpoint, same work."""
    network = build()
    auto = ac3(network, engine="auto")
    bitset = ac3(network, engine="bitset")
    assert auto.consistent == bitset.consistent
    assert auto.revisions == bitset.revisions
    assert auto.removed == bitset.removed
    assert auto.domains == bitset.domains


# -- batch_min_conflicts ----------------------------------------------------


@given(small_networks(), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_bitset_batch_matches_standalone_solves(network, chain_count):
    """Each bitset chain is byte-identical to its standalone run (the
    native batch has the same check in ``test_native_equivalence.py``)."""
    kernel = compile_network(network)
    seeds = [7 * index + 1 for index in range(chain_count)]
    batched = batch_min_conflicts(
        kernel, seeds, max_steps=120, max_restarts=2, engine="bitset"
    )
    assert len(batched) == chain_count
    for seed, result in zip(seeds, batched):
        standalone = MinConflictsSolver(
            seed=seed, max_steps=120, max_restarts=2, engine="bitset"
        ).solve(kernel)
        assert result.assignment == standalone.assignment
        assert result.complete == standalone.complete
        assert counters(result) == counters(standalone)
        if result.satisfiable:
            assert network.is_solution(result.assignment)


#: Loose network: some seeds converge in a handful of steps, others
#: wander much longer -- chains of mixed length in one batch.
LOOSE = random_network(12, 4, 0.4, 0.25, seed=2)
SEEDS = list(range(8))


@pytest.mark.parametrize("engine", HOST_ENGINES)
def test_mixed_length_chains_match_standalone_runs(engine):
    batch = batch_min_conflicts(
        LOOSE, SEEDS, max_steps=200, max_restarts=3, engine=engine
    )
    for seed, result in zip(SEEDS, batch):
        solo = MinConflictsSolver(
            seed=seed, max_steps=200, max_restarts=3, engine="bitset"
        ).solve(LOOSE)
        assert result.assignment == solo.assignment
        assert counters(result) == counters(solo)


@pytest.mark.parametrize("engine", HOST_ENGINES)
def test_deadline_cuts_the_batch_short(engine):
    hard = random_network(30, 6, 0.4, 0.5, seed=4, plant_solution=False)
    start = time.perf_counter()
    results = batch_min_conflicts(
        hard,
        SEEDS,
        max_steps=1_000_000,
        max_restarts=1_000,
        engine=engine,
        deadline_at=time.monotonic() + 0.2,
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert len(results) == len(SEEDS)
    assert all(result.assignment is None for result in results)


@pytest.mark.parametrize("engine", HOST_ENGINES)
def test_empty_network_batch_solves(engine):
    kernel = compile_network(ConstraintNetwork())
    results = batch_min_conflicts(kernel, [3], max_steps=5, engine=engine)
    assert results[0].assignment == {}
