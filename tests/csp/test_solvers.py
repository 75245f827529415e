"""Cross-solver tests: base, enhanced, CBJ, forward checking, min-conflicts.

Every systematic solver must agree on satisfiability and return actual
solutions; the paper's Section 4 remark "If a solution exists ... both
the base and enhanced schemes will find it" is tested literally, on the
paper's own example network and on random networks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import benchmark_build_options, build_benchmark
from repro.csp.arc_consistency import ac3
from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.backtracking import BacktrackingSolver
from repro.csp.enhanced import EnhancedSolver, EnhancementConfig
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.network import ConstraintNetwork
from repro.csp.compiled import iter_bits
from repro.csp.random_networks import random_network
from repro.opt.network_builder import build_layout_network
from tests.csp.test_network import paper_example_network

SYSTEMATIC_SOLVERS = [
    BacktrackingSolver(seed=3),
    EnhancedSolver(),
    EnhancedSolver(EnhancementConfig(True, False, False), seed=1),
    EnhancedSolver(EnhancementConfig(False, True, False), seed=1),
    EnhancedSolver(EnhancementConfig(False, False, True), seed=1),
    ConflictDirectedSolver(),
    ForwardCheckingSolver(),
]


def unsat_network() -> ConstraintNetwork:
    """A tiny unsatisfiable triangle: pairwise-different over 2 values."""
    network = ConstraintNetwork()
    for name in ("x", "y", "z"):
        network.add_variable(name, [0, 1])
    different = [(0, 1), (1, 0)]
    network.add_constraint("x", "y", different)
    network.add_constraint("y", "z", different)
    network.add_constraint("x", "z", different)
    return network


class TestOnPaperExample:
    @pytest.mark.parametrize(
        "solver", SYSTEMATIC_SOLVERS, ids=lambda s: type(s).__name__ + getattr(s, "name", "")
    )
    def test_finds_a_valid_solution(self, solver):
        network = paper_example_network()
        result = solver.solve(network)
        assert result.satisfiable
        assert network.is_solution(result.assignment)

    def test_min_conflicts_finds_solution(self):
        network = paper_example_network()
        result = MinConflictsSolver(seed=5).solve(network)
        assert result.satisfiable
        assert network.is_solution(result.assignment)

    def test_base_and_enhanced_may_differ(self):
        """Multiple solutions exist; solvers may pick different ones
        (the Table 3 observation) -- but both must be valid."""
        network = paper_example_network()
        base = BacktrackingSolver(seed=11).solve(network)
        enhanced = EnhancedSolver().solve(network)
        assert network.is_solution(base.assignment)
        assert network.is_solution(enhanced.assignment)


class TestOnUnsat:
    @pytest.mark.parametrize(
        "solver", SYSTEMATIC_SOLVERS, ids=lambda s: type(s).__name__ + getattr(s, "name", "")
    )
    def test_proves_unsat(self, solver):
        result = solver.solve(unsat_network())
        assert not result.satisfiable
        assert result.complete

    def test_min_conflicts_gives_up(self):
        result = MinConflictsSolver(seed=0, max_steps=50, max_restarts=2).solve(
            unsat_network()
        )
        assert not result.satisfiable
        assert not result.complete  # no proof


class TestStats:
    def test_nodes_counted(self):
        result = BacktrackingSolver(seed=0).solve(paper_example_network())
        assert result.stats.nodes >= 4  # at least one per variable

    def test_time_recorded(self):
        result = EnhancedSolver().solve(paper_example_network())
        assert result.stats.time_seconds >= 0.0

    def test_enhanced_beats_base_on_effort(self):
        """On a nontrivial satisfiable network the enhanced scheme
        needs no more (usually far fewer) search nodes."""
        network = random_network(14, 5, density=0.4, tightness=0.45, seed=7)
        base = BacktrackingSolver(seed=2).solve(network)
        enhanced = EnhancedSolver().solve(network)
        assert base.satisfiable and enhanced.satisfiable
        assert enhanced.stats.nodes <= base.stats.nodes

    def test_node_budget_reported_incomplete(self):
        network = random_network(16, 6, density=0.5, tightness=0.5, seed=3)
        result = BacktrackingSolver(seed=0, max_nodes=5).solve(network)
        assert not result.complete
        assert result.assignment is None


class TestRandomNetworks:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_all_systematic_solvers_agree(self, seed):
        """On arbitrary (planted-solution) random networks, every
        systematic solver finds a valid solution."""
        network = random_network(
            7, 4, density=0.5, tightness=0.4, seed=seed, plant_solution=True
        )
        for solver in SYSTEMATIC_SOLVERS:
            result = solver.solve(network)
            assert result.satisfiable, type(solver).__name__
            assert network.is_solution(result.assignment)

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_satisfiability_agreement_without_planting(self, seed):
        """Without a planted solution the instance may be UNSAT; all
        systematic solvers must agree either way."""
        network = random_network(
            6, 3, density=0.7, tightness=0.5, seed=seed, plant_solution=False
        )
        verdicts = {
            type(solver).__name__: solver.solve(network).satisfiable
            for solver in SYSTEMATIC_SOLVERS
        }
        assert len(set(verdicts.values())) == 1, verdicts

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_ac3_agrees_with_search(self, seed):
        """If AC-3 wipes out a domain the network is UNSAT; if search
        finds a solution, AC-3 must keep it arc-consistent."""
        network = random_network(
            6, 3, density=0.8, tightness=0.55, seed=seed, plant_solution=False
        )
        ac_result = ac3(network)
        search = EnhancedSolver().solve(network)
        if not ac_result.consistent:
            assert not search.satisfiable
        elif search.satisfiable:
            for variable, value in search.assignment.items():
                assert value in ac_result.domains[variable]


def _ac3_with_duplicate_queue(kernel):
    """AC-3 without the pending set: arcs re-enqueued while queued."""
    from collections import deque

    masks = list(kernel.full_masks)
    queue = deque()
    for first, second in kernel.pairs:
        queue.append((first, second))
        queue.append((second, first))
    revisions = 0
    while queue:
        target, source = queue.popleft()
        revisions += 1
        support = kernel.supports[(target, source)]
        source_mask = masks[source]
        surviving = masks[target]
        pruned_here = False
        for value in iter_bits(masks[target]):
            if not support[value] & source_mask:
                surviving ^= 1 << value
                pruned_here = True
        masks[target] = surviving
        if not surviving:
            return revisions, masks, False
        if pruned_here:
            for neighbor in kernel.neighbors[target]:
                if neighbor != source:
                    queue.append((neighbor, target))
    return revisions, masks, True


def test_ac3_pending_set_cuts_revisions_on_table1_network():
    kernel = build_layout_network(
        build_benchmark("Med-Im04"), benchmark_build_options()
    ).kernel()
    duplicated_revisions, masks, consistent = _ac3_with_duplicate_queue(kernel)
    result = ac3(kernel, engine="bitset")
    assert result.consistent == consistent
    # Same fixpoint...
    for i in range(kernel.variable_count):
        expected = tuple(kernel.domains[i][value] for value in iter_bits(masks[i]))
        assert result.domains[kernel.names[i]] == expected
    # ...for strictly fewer revisions than the duplicating queue.
    assert result.revisions < duplicated_revisions
