"""Property-based equivalence: native C engine vs bitset engine.

The bitset kernel (PR 2) defines the solver semantics; the compiled C
kernel (:mod:`repro.csp.native`) is only allowed to make the same
search cheaper.  Over random networks this suite asserts, for every
solver and for AC-3, that the two engines agree **byte for byte**:
same assignments, same UNSAT proofs, same pruned domains, and the same
effort counters (nodes, backtracks, backjumps, consistency checks,
restarts) -- which also pins the RNG streams, since a diverging stream
immediately diverges the counters (the C kernel carries its own
MT19937 replicating CPython's ``random.Random`` exactly).

Mirrors ``test_compiled_equivalence.py`` one tier down the ladder:
that suite ties the bitset kernel to the legacy object semantics,
this one ties the shared library to the bitset kernel.
"""

import pytest

from repro.csp.native import build as native_build

if not native_build.usable():  # pragma: no cover - compilerless host
    pytest.skip(
        "native kernel unavailable (no C compiler and no cached build)",
        allow_module_level=True,
    )

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csp.arc_consistency import ac3
from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.backtracking import BacktrackingSolver
from repro.csp.compiled import compile_network
from repro.csp.enhanced import EnhancedSolver, EnhancementConfig
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.random_networks import random_network
from repro.csp.vectorized import batch_min_conflicts

#: scheme name -> (seed, engine) -> solver; every systematic scheme.
ENGINE_SCHEMES = {
    "base": lambda seed, engine: BacktrackingSolver(seed=seed, engine=engine),
    "enhanced": lambda seed, engine: EnhancedSolver(seed=seed, engine=engine),
    "cbj": lambda seed, engine: ConflictDirectedSolver(seed=seed, engine=engine),
    "forward-checking": lambda seed, engine: ForwardCheckingSolver(
        seed=seed, engine=engine
    ),
    "min-conflicts": lambda seed, engine: MinConflictsSolver(
        seed=seed, max_steps=150, max_restarts=2, engine=engine
    ),
}


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


def counters(result):
    stats = result.stats.as_dict()
    stats.pop("time_seconds")  # wall clock is the one legitimate delta
    return stats


@given(small_networks(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_engines_agree_on_every_scheme(network, seed):
    """Assignment, completeness and all counters match per scheme."""
    kernel = compile_network(network)
    for name, make in ENGINE_SCHEMES.items():
        bitset = make(seed, "bitset").solve(kernel)
        native = make(seed, "native").solve(kernel)
        assert bitset.assignment == native.assignment, name
        assert bitset.complete == native.complete, name
        assert counters(bitset) == counters(native), name
        if native.satisfiable:
            assert network.is_solution(native.assignment), name


@given(small_networks(), st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_engines_agree_on_ordering_ablations(network, var_on, val_on):
    """Each enhancement toggle individually takes the same decisions."""
    kernel = compile_network(network)
    config = EnhancementConfig(var_on, val_on, backjumping=True)
    bitset = EnhancedSolver(config, seed=2, engine="bitset").solve(kernel)
    native = EnhancedSolver(config, seed=2, engine="native").solve(kernel)
    assert bitset.assignment == native.assignment
    assert counters(bitset) == counters(native)


@given(small_networks())
@settings(max_examples=30, deadline=None)
def test_engines_agree_on_ac3(network):
    """Consistency verdict, pruned domains and revision/removal counts."""
    kernel = compile_network(network)
    bitset = ac3(kernel, engine="bitset")
    native = ac3(kernel, engine="native")
    assert bitset.consistent == native.consistent
    assert bitset.domains == native.domains
    assert bitset.revisions == native.revisions
    assert bitset.removed == native.removed


@given(small_networks(), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_batched_chains_match_sequential_solves(network, chain_count):
    """Each native chain is byte-identical to its standalone bitset run."""
    kernel = compile_network(network)
    seeds = [7 * index + 1 for index in range(chain_count)]
    batched = batch_min_conflicts(
        kernel, seeds, max_steps=120, max_restarts=2, engine="native"
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


@given(small_networks(), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_bitset_native_spot_check(network, seed):
    """The enhanced scheme, seeded, agrees across both engines."""
    kernel = compile_network(network)
    runs = {
        engine: EnhancedSolver(seed=seed, engine=engine).solve(kernel)
        for engine in ("bitset", "native")
    }
    reference = runs["bitset"]
    for engine, run in runs.items():
        assert run.assignment == reference.assignment, engine
        assert run.complete == reference.complete, engine
        assert counters(run) == counters(reference), engine


def test_forward_checking_budget_cutoff_matches():
    """A node budget cuts both engines at the same node with the same
    counters (the cutoff unwinds without restoring domains in Python;
    the C search replicates that observable too)."""
    network = random_network(8, 4, 0.6, 0.45, seed=13)
    for budget in (1, 3, 17, 1000):
        bitset = ForwardCheckingSolver(engine="bitset", max_nodes=budget).solve(
            network
        )
        native = ForwardCheckingSolver(engine="native", max_nodes=budget).solve(
            network
        )
        assert bitset.assignment == native.assignment, budget
        assert bitset.complete == native.complete, budget
        assert counters(bitset) == counters(native), budget
