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

from repro.bench import (
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
    random_suite,
)
from repro.csp.arc_consistency import ac3
from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.backtracking import BacktrackingSolver
from repro.csp.compiled import compile_network
from repro.csp.engine import (
    JUMP_CHRONOLOGICAL,
    JUMP_CONFLICT,
    JUMP_GRAPH,
    EngineConfig,
    SearchEngine,
)
from repro.csp.enhanced import EnhancedSolver, EnhancementConfig
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.random_networks import random_network
from repro.csp.vectorized import batch_min_conflicts
from repro.opt.network_builder import build_layout_network

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


#: scheme name -> (engine, max_nodes) -> solver; the schemes whose
#: whole search is one ``repro_bt_search`` call under ``native``.
BUDGETED_SCHEMES = {
    "base": lambda engine, budget: BacktrackingSolver(
        engine=engine, max_nodes=budget
    ),
    "enhanced": lambda engine, budget: EnhancedSolver(
        engine=engine, max_nodes=budget
    ),
    # ConflictDirectedSolver's own configuration, plus the budget.
    "cbj": lambda engine, budget: SearchEngine(
        EngineConfig(
            variable_ordering=True,
            value_ordering=True,
            jump_mode=JUMP_CONFLICT,
            max_nodes=budget,
            engine=engine,
        )
    ),
    "forward-checking": lambda engine, budget: ForwardCheckingSolver(
        engine=engine, max_nodes=budget
    ),
}

#: Solver seeds: small ones, multi-limb ``init_by_array`` keys
#: (``2**32 + k``) and negative ones (``random.Random`` seeds on abs).
solver_seeds = st.one_of(
    st.integers(0, 5),
    st.integers(0, 5).map(lambda k: 2**32 + k),
    st.integers(-5, -1),
)


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


@given(small_networks(), solver_seeds)
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
    the C search replicates that observable too).  Covers the base,
    enhanced and CBJ searches as well as forward checking."""
    network = random_network(8, 4, 0.6, 0.45, seed=13)
    for name, make in BUDGETED_SCHEMES.items():
        for budget in (1, 3, 17, 1000):
            bitset = make("bitset", budget).solve(network)
            native = make("native", budget).solve(network)
            assert bitset.assignment == native.assignment, (name, budget)
            assert bitset.complete == native.complete, (name, budget)
            assert counters(bitset) == counters(native), (name, budget)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_domains_agree(seed):
    """Domains of 70 values span two 64-bit words per support row."""
    network = random_network(6, 70, 0.7, 0.5, seed=seed)
    for name in ("base", "enhanced", "cbj"):
        make = BUDGETED_SCHEMES[name]
        bitset = make("bitset", 5000).solve(network)
        native = make("native", 5000).solve(network)
        assert bitset.assignment == native.assignment, name
        assert bitset.complete == native.complete, name
        assert counters(bitset) == counters(native), name


@pytest.mark.parametrize("seed", [1, 4])
def test_many_variable_conflict_sets_agree(seed):
    """70 variables: the conflict sets of depths span two 64-bit words
    (random orders reach dead ends past depth 64 whose culprits sit
    there too)."""
    network = random_network(70, 2, 0.05, 0.3, seed=seed)
    for ordering in (False, True):
        for jump_mode in (JUMP_CHRONOLOGICAL, JUMP_GRAPH, JUMP_CONFLICT):
            runs = [
                SearchEngine(
                    EngineConfig(
                        variable_ordering=ordering,
                        value_ordering=ordering,
                        jump_mode=jump_mode,
                        max_nodes=3000,
                        engine=engine,
                    )
                ).solve(network)
                for engine in ("bitset", "native")
            ]
            bitset, native = runs
            case = (ordering, jump_mode)
            assert bitset.assignment == native.assignment, case
            assert bitset.complete == native.complete, case
            assert counters(bitset) == counters(native), case


#: Random-suite programs whose layout networks join the paper's five.
RANDOM_PROGRAMS = {program.name: program for program in random_suite(4, 3)}


@pytest.mark.parametrize("program", [*BENCHMARK_NAMES, *RANDOM_PROGRAMS])
def test_engines_agree_on_layout_networks(program):
    """Layout networks mix domain sizes, so the most-constraining key's
    domain digit decides ties that random networks never reach."""
    source = RANDOM_PROGRAMS.get(program) or build_benchmark(program)
    kernel = build_layout_network(source, benchmark_build_options()).kernel()
    for name in ("base", "enhanced", "cbj"):
        make = BUDGETED_SCHEMES[name]
        bitset = make("bitset", 2000).solve(kernel)
        native = make("native", 2000).solve(kernel)
        assert bitset.assignment == native.assignment, (program, name)
        assert bitset.complete == native.complete, (program, name)
        assert counters(bitset) == counters(native), (program, name)


def test_zero_deadline_stops_both_engines_at_node_256():
    """An expired deadline is noticed at the first 256-node check."""
    network = random_network(14, 4, 0.5, 0.5, seed=18)  # > 256 nodes each
    for name in ("base", "enhanced", "cbj"):
        runs = []
        for engine in ("bitset", "native"):
            solver = BUDGETED_SCHEMES[name](engine, None)
            solver.set_deadline(0.0)
            runs.append(solver.solve(network))
        bitset, native = runs
        assert bitset.stats.nodes == native.stats.nodes == 256, name
        assert not bitset.complete and not native.complete, name
        assert bitset.assignment is None and native.assignment is None, name
        assert counters(bitset) == counters(native), name
