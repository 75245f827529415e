"""Program -> constraint network construction (Section 3).

Variables are the program's referenced arrays; the domain ``M_i`` of an
array is every layout some nest would like it to have (plus the
standard layouts as fallbacks); the constraint ``S_ij`` collects, for
every nest touching both arrays and every candidate restructuring of
that nest, the pair of layouts that restructuring wants -- "each pair
represents the best layout choice under a given loop restructuring".

Two nests can constrain the same array pair.  The paper keeps a single
``S_ij`` per pair, so the pairs must be combined; we support both
interpretations:

* ``combine="union"`` (default, matching the paper's example): a
  selected pair need only be the preference of *some* nest;
* ``combine="intersect"``: the pair must suit *every* nest -- stricter,
  and often unsatisfiable, in which case the builder falls back to the
  union for that pair and records a note.

Each constraint also carries a weight (the total estimated cost of the
contributing nests) for the weighted future-work extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.csp.compiled import CompiledNetwork, compile_network
from repro.csp.network import ConstraintNetwork
from repro.csp.weighted import WeightedNetwork
from repro.ir.facts import program_facts
from repro.ir.program import Program
from repro.layout.candidates import (
    LayoutCombo,
    candidate_layouts_for_array,
    nest_layout_combos,
)
from repro.layout.layout import Layout
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class BuildOptions:
    """Knobs for network construction.

    Attributes:
        include_standard: add the conventional layouts to every domain.
        include_reversals: consider reversal-composed restructurings.
        skew_factors: innermost-loop skew factors to consider.
        combine: "union" or "intersect" (see module docstring).
    """

    include_standard: bool = True
    include_reversals: bool = False
    skew_factors: tuple[int, ...] = ()
    combine: str = "union"

    def __post_init__(self) -> None:
        if self.combine not in ("union", "intersect"):
            raise ValueError(f"unknown combine mode {self.combine!r}")


@dataclass
class LayoutNetwork:
    """The built network plus provenance information.

    Attributes:
        network: the binary constraint network over array layouts
            (the authoring representation).
        weights: per-pair constraint weights (nest cost totals).
        combos: the per-nest layout combinations that generated it.
        notes: human-readable remarks (e.g. intersect fallbacks).
        compiled: the execution-form kernel, compiled once at build
            time so no consumer (one scheme, a whole racing portfolio,
            the fingerprinter) ever pays recompilation.
    """

    network: ConstraintNetwork
    weights: dict[frozenset[str], float]
    combos: dict[str, list[LayoutCombo]]
    notes: list[str] = field(default_factory=list)
    compiled: CompiledNetwork | None = None

    def kernel(self) -> CompiledNetwork:
        """The compiled execution form (compiling lazily if unset)."""
        if self.compiled is None:
            self.compiled = compile_network(self.network)
        return self.compiled

    def weighted(self) -> WeightedNetwork:
        """The network with its nest-cost weights attached."""
        return WeightedNetwork(self.network, self.weights)

    @property
    def domain_size(self) -> int:
        """The paper's Table 1 'Domain Size' (sum of domain sizes)."""
        return self.network.total_domain_size


def build_layout_network(
    program: Program, options: BuildOptions | None = None
) -> LayoutNetwork:
    """Construct the layout constraint network of a program.

    Raises:
        ValueError: if the program references no arrays.
    """
    options = options if options is not None else BuildOptions()
    arrays = program.referenced_arrays()
    if not arrays:
        raise ValueError(f"program {program.name} references no arrays")

    with obs_trace.span("facts"):
        program_facts(program)
    with obs_trace.span("candidates"):
        network = ConstraintNetwork()
        for array in arrays:
            domain = candidate_layouts_for_array(
                program,
                array,
                include_standard=options.include_standard,
                include_reversals=options.include_reversals,
                skew_factors=options.skew_factors,
            )
            network.add_variable(array, domain)
    with obs_trace.span("constraints"):
        combos_by_nest, weights, notes = _add_constraints(network, program, options)
    return LayoutNetwork(
        network, weights, combos_by_nest, notes, compiled=compile_network(network)
    )


def _add_constraints(
    network: ConstraintNetwork, program: Program, options: BuildOptions
) -> tuple[dict[str, list[LayoutCombo]], dict[frozenset[str], float], list[str]]:
    """Add every nest's pairwise constraints to a network of domains.

    Returns the per-nest combos, the per-pair weights and the notes.
    """
    combos_by_nest: dict[str, list[LayoutCombo]] = {}
    pair_sources: dict[frozenset[str], list[set[tuple[Layout, Layout]]]] = {}
    pair_orientation: dict[frozenset[str], tuple[str, str]] = {}
    weights: dict[frozenset[str], float] = {}
    notes: list[str] = []

    for nest in program.nests:
        combos = nest_layout_combos(
            program,
            nest,
            include_reversals=options.include_reversals,
            skew_factors=options.skew_factors,
        )
        combos_by_nest[nest.name] = combos
        if not combos:
            continue
        constrained = sorted(
            {array for combo in combos for array in combo.arrays()}
        )
        nest_pairs: dict[frozenset[str], set[tuple[Layout, Layout]]] = {}
        for combo in combos:
            for i, first in enumerate(constrained):
                layout_first = combo.layout_of(first)
                for second in constrained[i + 1:]:
                    layout_second = combo.layout_of(second)
                    if layout_first is None and layout_second is None:
                        # This restructuring leaves both arrays free
                        # (temporal locality): it imposes nothing.
                        continue
                    key = frozenset((first, second))
                    pair_orientation.setdefault(key, (first, second))
                    oriented = pair_orientation[key]
                    # An array the restructuring leaves free (temporal
                    # locality) is a *wildcard*: any layout in its
                    # domain is acceptable alongside the partner's
                    # preference under this restructuring.
                    firsts = (
                        [layout_first]
                        if layout_first is not None
                        else list(network.domain(first))
                    )
                    seconds = (
                        [layout_second]
                        if layout_second is not None
                        else list(network.domain(second))
                    )
                    bucket = nest_pairs.setdefault(key, set())
                    for value_first in firsts:
                        for value_second in seconds:
                            pair = (
                                (value_first, value_second)
                                if oriented == (first, second)
                                else (value_second, value_first)
                            )
                            bucket.add(pair)
        for key, pairs in nest_pairs.items():
            pair_sources.setdefault(key, []).append(pairs)
            weights[key] = weights.get(key, 0.0) + float(nest.estimated_cost)

    for key, source_sets in pair_sources.items():
        first, second = pair_orientation[key]
        if options.combine == "intersect" and len(source_sets) > 1:
            merged = set.intersection(*source_sets)
            if not merged:
                merged = set.union(*source_sets)
                notes.append(
                    f"constraint ({first}, {second}): empty intersection "
                    "across nests; fell back to union"
                )
        else:
            merged = set.union(*source_sets)
        network.add_constraint(first, second, merged)

    return combos_by_nest, weights, notes
