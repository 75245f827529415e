"""Parity of the per-program facts index with the per-call paths.

Every fact :class:`~repro.ir.facts.ProgramFacts` serves must equal what
the program and the locality helpers compute call by call, and the
inflation repair that reads it must leave the same assignment as the
objective that recomputed each delta per candidate layout.
"""

import pickle

import pytest

from repro.bench import (
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
    random_suite,
)
from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.enhanced import EnhancedSolver
from repro.ir.dependence import analyze_nest_dependences
from repro.ir.facts import (
    ProgramFacts,
    access_matrices,
    identity_direction,
    program_facts,
)
from repro.ir.parser import parse_program
from repro.layout.layout import Layout
from repro.layout.locality import (
    access_delta,
    has_spatial_locality,
    has_temporal_locality,
)
from repro.layout.mapping import LayoutMapping
from repro.opt.network_builder import build_layout_network
from repro.opt.passes.solve import repair_inflation
from repro.transform.catalog import legal_transforms

OPTIONS = benchmark_build_options()

PROGRAMS = [build_benchmark(name) for name in BENCHMARK_NAMES] + list(
    random_suite(30, seed=7)
)


def _ids(programs):
    return [program.name for program in programs]


def _oracle_repair(network, assignment: dict, program) -> None:
    """The repair fixpoint with its per-candidate objective, as it was
    before the facts index: every delta recomputed, every lookup a
    linear scan of the program."""
    objective_cache: dict[tuple[str, Layout], tuple[float, int]] = {}

    def objective(array, layout):
        cached = objective_cache.get((array, layout))
        if cached is not None:
            return cached
        inflation = LayoutMapping.create(program.array(array), layout).inflation
        locality = 0
        for nest in program.nests_referencing(array):
            direction = tuple([0] * (nest.depth - 1) + [1])
            order = nest.index_order
            for reference in nest.references_to(array):
                delta = access_delta(reference, order, direction)
                if has_temporal_locality(delta) or has_spatial_locality(
                    layout, delta
                ):
                    locality += nest.weight
        score = (inflation, -locality)
        objective_cache[(array, layout)] = score
        return score

    for _ in range(len(network.variables)):
        changed = False
        for array in network.variables:
            current = assignment[array]
            best = current
            best_key = objective(array, current)
            for candidate in network.domain(array):
                if candidate == current:
                    continue
                key = objective(array, candidate)
                if key >= best_key:
                    continue
                if all(
                    network.check_pair(
                        array, candidate, neighbor, assignment[neighbor]
                    )
                    for neighbor in network.neighbors(array)
                ):
                    best = candidate
                    best_key = key
            if best != current:
                assignment[array] = best
                changed = True
        if not changed:
            break


@pytest.mark.parametrize("program", PROGRAMS, ids=_ids(PROGRAMS))
def test_deltas_equal_access_delta_for_every_legal_direction(program):
    facts = program_facts(program)
    for nest in program.nests:
        directions = [identity_direction(nest.depth)] + [
            transform.innermost_direction()
            for transform in legal_transforms(
                nest, OPTIONS.include_reversals, OPTIONS.skew_factors
            )
        ]
        for direction in directions:
            deltas = facts.deltas(nest, direction)
            assert len(deltas) == len(nest.body)
            for reference, delta in zip(nest.body, deltas):
                assert delta == access_delta(reference, nest.index_order, direction)


@pytest.mark.parametrize("program", PROGRAMS, ids=_ids(PROGRAMS))
def test_lookups_match_the_program_methods(program):
    facts = program_facts(program)
    for decl in program.arrays:
        assert facts.decls[decl.name] is program.array(decl.name)
        assert facts.nests_referencing(decl.name) == program.nests_referencing(
            decl.name
        )
    for nest in program.nests:
        assert facts.matrices[nest.name] == tuple(
            reference.access_matrix(nest.index_order) for reference in nest.body
        )
        groups = facts.groups[nest.name]
        assert [array for array, _ in groups] == sorted(nest.arrays())
        for array, positions in groups:
            assert tuple(nest.body[p] for p in positions) == nest.references_to(array)


@pytest.mark.parametrize("program", PROGRAMS, ids=_ids(PROGRAMS))
def test_locality_rows_sum_to_the_per_reference_weights(program):
    facts = program_facts(program)
    for array in program.referenced_arrays():
        expected: dict[tuple[int, ...], int] = {}
        for nest in program.nests_referencing(array):
            direction = identity_direction(nest.depth)
            for reference in nest.references_to(array):
                delta = access_delta(reference, nest.index_order, direction)
                expected[delta] = expected.get(delta, 0) + nest.weight
        rows = facts.locality_rows(array)
        assert {delta: weight for weight, delta, _ in rows} == expected
        assert all(temporal == (not any(delta)) for _, delta, temporal in rows)


@pytest.mark.parametrize("program", PROGRAMS, ids=_ids(PROGRAMS))
def test_repair_leaves_the_oracle_assignment(program):
    layout_network = build_layout_network(program, OPTIONS)
    network = layout_network.network
    for solver in (EnhancedSolver(seed=0), ConflictDirectedSolver(seed=3)):
        result = solver.solve(layout_network.kernel())
        if result.assignment is None:
            continue
        repaired = dict(result.assignment)
        expected = dict(result.assignment)
        repair_inflation(network, repaired, program)
        _oracle_repair(network, expected, program)
        assert repaired == expected


def test_facts_are_memoized_on_the_program_and_survive_pickling():
    program = build_benchmark("MxM")
    facts = program_facts(program)
    assert program_facts(program) is facts
    nest = program.nests[0]
    deltas = facts.deltas(nest, identity_direction(nest.depth))
    clone = pickle.loads(pickle.dumps(program))
    assert clone == program
    assert isinstance(program_facts(clone), ProgramFacts)
    assert program_facts(clone).deltas(
        clone.nests[0], identity_direction(nest.depth)
    ) == deltas


def test_dependences_read_the_shared_matrices():
    program = parse_program(
        """
        array T[16][16]
        array A[16][16]
        nest acc { for i = 0 .. 15 { for j = 0 .. 15 { for k = 0 .. 15 {
            T[i][j] = T[i][j] + A[i][k]
        } } } }
        """
    )
    nest = program.nests[0]
    info = analyze_nest_dependences(nest)
    assert info.rays() == ((0, 0, 1),)
    assert program_facts(program).matrices[nest.name] is access_matrices(nest)


def test_direction_of_the_wrong_depth_is_refused():
    program = build_benchmark("MxM")
    nest = program.nests[0]
    with pytest.raises(ValueError, match="depth"):
        program_facts(program).deltas(nest, (1,) * (nest.depth + 1))
