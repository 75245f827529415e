"""Per-program facts that do not depend on the layout.

Section 2 reduces every layout decision to the locality equation
``Y . (A e) = 0``.  The access delta ``A e`` depends only on the
reference and the innermost iteration direction ``e``, never on the
layout ``Y``.  Candidate generation, inflation repair, transform
selection and the cost models all ask for the same deltas, once per
candidate layout or legal transform; :class:`ProgramFacts` computes
each one once per program instead.

:func:`program_facts` memoizes the index on the (immutable) program,
the idiom :func:`repro.layout.candidates.nest_layout_combos` uses for
its combos, so the facts live exactly as long as their program.
"""

from __future__ import annotations

from operator import mul

from repro.ir.arrays import ArrayDecl
from repro.ir.loops import LoopNest
from repro.ir.program import Program

Matrix = tuple[tuple[int, ...], ...]
Delta = tuple[int, ...]


def access_matrices(nest: LoopNest) -> tuple[Matrix, ...]:
    """Each body reference's access matrix under the nest's loop order.

    Memoized on the (immutable) nest: the dependence analysis and the
    program facts read the same matrices.
    """
    matrices = nest.__dict__.get("_access_matrices")
    if matrices is None:
        order = nest.index_order
        matrices = tuple(reference.access_matrix(order) for reference in nest.body)
        nest.__dict__["_access_matrices"] = matrices
    return matrices


def identity_direction(depth: int) -> Delta:
    """The innermost iteration step ``e_n`` of an untransformed nest."""
    return (0,) * (depth - 1) + (1,)


class ProgramFacts:
    """Layout-independent facts of one program, each computed once.

    Attributes:
        decls: array name -> declaration.
        nests_of: array name -> nests referencing it, in program order.
        matrices: nest name -> access matrix per body reference.
        groups: nest name -> ``(array, body positions)`` pairs sorted by
            array name.
    """

    __slots__ = ("decls", "nests_of", "matrices", "groups", "_deltas", "_rows")

    def __init__(self, program: Program):
        self.decls: dict[str, ArrayDecl] = {decl.name: decl for decl in program.arrays}
        nests_of: dict[str, list[LoopNest]] = {}
        self.matrices: dict[str, tuple[Matrix, ...]] = {}
        self.groups: dict[str, tuple[tuple[str, tuple[int, ...]], ...]] = {}
        for nest in program.nests:
            positions: dict[str, list[int]] = {}
            for position, reference in enumerate(nest.body):
                positions.setdefault(reference.array, []).append(position)
            for array in positions:
                nests_of.setdefault(array, []).append(nest)
            self.matrices[nest.name] = access_matrices(nest)
            self.groups[nest.name] = tuple(
                (array, tuple(positions[array])) for array in sorted(positions)
            )
        self.nests_of: dict[str, tuple[LoopNest, ...]] = {
            array: tuple(nests) for array, nests in nests_of.items()
        }
        self._deltas: dict[tuple[str, Delta], tuple[Delta, ...]] = {}
        self._rows: dict[str, tuple[tuple[int, Delta, bool], ...]] = {}

    def nests_referencing(self, array: str) -> tuple[LoopNest, ...]:
        """All nests that touch the array (empty for an unused one)."""
        return self.nests_of.get(array, ())

    def deltas(self, nest: LoopNest, direction: Delta) -> tuple[Delta, ...]:
        """``A e`` of every body reference of one of the program's nests.

        Raises:
            ValueError: if the direction's length is not the nest depth.
        """
        key = (nest.name, direction)
        deltas = self._deltas.get(key)
        if deltas is None:
            if len(direction) != nest.depth:
                raise ValueError(
                    f"nest {nest.name} has depth {nest.depth}, "
                    f"direction {direction} does not"
                )
            deltas = tuple(
                tuple(sum(map(mul, row, direction)) for row in matrix)
                for matrix in self.matrices[nest.name]
            )
            self._deltas[key] = deltas
        return deltas

    def locality_rows(self, array: str) -> tuple[tuple[int, Delta, bool], ...]:
        """``(weight, delta, temporal?)`` per distinct delta of the array.

        Deltas are taken under each nest's original loop order; the
        weight sums the nest weights of every reference with that
        delta.  These are the terms repair's locality objective adds up
        for a candidate layout.
        """
        rows = self._rows.get(array)
        if rows is None:
            weights: dict[Delta, int] = {}
            for nest in self.nests_referencing(array):
                deltas = self.deltas(nest, identity_direction(nest.depth))
                for reference, delta in zip(nest.body, deltas):
                    if reference.array == array:
                        weights[delta] = weights.get(delta, 0) + nest.weight
            rows = tuple(
                (weight, delta, not any(delta)) for delta, weight in weights.items()
            )
            self._rows[array] = rows
        return rows


def program_facts(program: Program) -> ProgramFacts:
    """The program's facts index, built on first use."""
    facts = program.__dict__.get("_program_facts")
    if facts is None:
        facts = ProgramFacts(program)
        program.__dict__["_program_facts"] = facts
    return facts
