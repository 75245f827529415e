"""Constraint-network machinery (Sections 3 and 4 of the paper).

* :mod:`repro.csp.network` -- the binary constraint network
  ``CN = <P, M, S>``: variables, per-variable domains, and binary
  constraints given as sets of allowed value pairs (the *authoring*
  representation).
* :mod:`repro.csp.compiled` -- the *execution* representation: dense
  integer indices and per-value support bitmasks; every solver below
  runs its inner loop on this kernel.
* :mod:`repro.csp.vectorized` -- engine resolution behind every
  solver's ``engine="bitset" | "native" | "auto"`` knob: ``auto`` runs
  a network on the native C kernel (:mod:`repro.csp.native`) when one
  is usable and the network is big enough, and on the bitset loops
  otherwise.  Both engines are parity-preserving (identical RNG
  streams, counters and solutions).
* :mod:`repro.csp.stats` -- search instrumentation shared by all
  solvers (nodes, backtracks, backjumps, consistency checks, time).
* :mod:`repro.csp.backtracking` -- the paper's *base scheme*:
  chronological backtracking with random variable and value orders.
* :mod:`repro.csp.enhanced` -- the *enhanced scheme*: most-constraining
  variable ordering, least-constraining value ordering and graph-based
  backjumping, each individually toggleable (used for Figure 4).
* :mod:`repro.csp.backjumping` -- conflict-directed backjumping (a
  sharper jump rule than the graph-based one, provided as an extension).
* :mod:`repro.csp.forward_checking` -- forward-checking solver
  (extension beyond the paper).
* :mod:`repro.csp.splitsearch` -- space-splitting parallel search:
  the forward-checking space is expanded to a branch frontier, the
  subtrees race across a warm worker pool with work stealing, and a
  deterministic merge keeps results byte-identical to the serial
  solver regardless of worker count or steal order.
* :mod:`repro.csp.arc_consistency` -- AC-3 preprocessing.
* :mod:`repro.csp.minconflicts` -- min-conflicts local search.
* :mod:`repro.csp.weighted` -- weighted networks and branch-and-bound
  (the paper's first future-work direction).
* :mod:`repro.csp.random_networks` -- random network generation for
  scaling studies.
"""

from repro.csp.network import BinaryConstraint, ConstraintNetwork
from repro.csp.compiled import CompiledNetwork, compile_network
from repro.csp.vectorized import (
    batch_min_conflicts,
    native_available,
    resolve_engine,
)
from repro.csp.stats import SolverStats, SolverResult
from repro.csp.backtracking import BacktrackingSolver
from repro.csp.enhanced import EnhancedSolver, EnhancementConfig
from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.splitsearch import (
    SEARCH_AUTO,
    SEARCH_SERIAL,
    SEARCH_SPLIT,
    SplitSearchSolver,
    SplitStats,
    enumerate_solutions_parallel,
    resolve_search,
)
from repro.csp.arc_consistency import ac3, ArcConsistencyResult
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.weighted import WeightedNetwork, BranchAndBoundSolver
from repro.csp.random_networks import random_network

__all__ = [
    "BinaryConstraint",
    "ConstraintNetwork",
    "CompiledNetwork",
    "compile_network",
    "batch_min_conflicts",
    "native_available",
    "resolve_engine",
    "SolverStats",
    "SolverResult",
    "BacktrackingSolver",
    "EnhancedSolver",
    "EnhancementConfig",
    "ConflictDirectedSolver",
    "ForwardCheckingSolver",
    "SEARCH_AUTO",
    "SEARCH_SERIAL",
    "SEARCH_SPLIT",
    "SplitSearchSolver",
    "SplitStats",
    "enumerate_solutions_parallel",
    "resolve_search",
    "ac3",
    "ArcConsistencyResult",
    "MinConflictsSolver",
    "WeightedNetwork",
    "BranchAndBoundSolver",
    "random_network",
]
