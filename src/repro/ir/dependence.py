"""Data-dependence analysis for loop nests.

Loop transformations must respect data dependences (the paper's
Section 1 lists "checking dependences (legality issues)" among the
drawbacks of loop restructuring; our candidate-transform enumeration in
:mod:`repro.transform` therefore needs distance vectors).

The analysis implemented here is exact for the common case of the
benchmark kernels -- pairs of references with *equal access matrices*
(uniformly generated references), where the dependence distance is the
unique solution of ``A (I2 - I1) = b1 - b2``:

* If the access matrix has full column rank and the rational solution
  is integral, the distance is a single constant vector.
* If the system is inconsistent (or the GCD test fails), there is no
  dependence.
* Otherwise the dependence is recorded with ``distance=None``
  ("unknown"), which makes every non-identity transform illegal for the
  nest -- a conservative but safe fallback.

Read-read pairs never induce dependences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from repro.ir.facts import Matrix, access_matrices
from repro.ir.loops import LoopNest
from repro.ir.reference import ArrayRef
from repro.linalg.matrices import rank as matrix_rank
from repro.linalg.vectors import gcd_many


@dataclass(frozen=True)
class Dependence:
    """A dependence between two references in one nest.

    Attributes:
        array: the array carrying the dependence.
        source_index: body position of the source reference.
        sink_index: body position of the sink reference.
        distance: lexicographically non-negative distance vector, or
            ``None`` when the distance is not a single known constant.
        ray: for self-aliasing pairs whose solution set is a line (a
            read and write with identical subscripts in a nest with a
            one-dimensional null space -- e.g. the ``T[i][j]``
            accumulation of a matrix multiply), the canonical
            lex-positive direction vector: the distance set is exactly
            ``{lambda * ray : lambda > 0}``.
    """

    array: str
    source_index: int
    sink_index: int
    distance: tuple[int, ...] | None
    ray: tuple[int, ...] | None = None

    @property
    def is_loop_independent(self) -> bool:
        """True when the dependence stays within one iteration."""
        return self.distance is not None and all(d == 0 for d in self.distance)

    @property
    def is_unknown(self) -> bool:
        """True when neither a constant distance nor a ray is known."""
        return self.distance is None and self.ray is None


@dataclass(frozen=True)
class DependenceInfo:
    """All dependences of a nest plus convenience queries."""

    nest_name: str
    dependences: tuple[Dependence, ...]

    @property
    def has_unknown(self) -> bool:
        """True if any dependence lacks a constant distance vector."""
        return any(dep.is_unknown for dep in self.dependences)

    def distance_vectors(self) -> tuple[tuple[int, ...], ...]:
        """Distinct known, non-zero distance vectors."""
        seen: list[tuple[int, ...]] = []
        for dep in self.dependences:
            if dep.distance is not None and any(dep.distance):
                if dep.distance not in seen:
                    seen.append(dep.distance)
        return tuple(seen)

    def rays(self) -> tuple[tuple[int, ...], ...]:
        """Distinct dependence rays (direction families)."""
        seen: list[tuple[int, ...]] = []
        for dep in self.dependences:
            if dep.ray is not None and dep.ray not in seen:
                seen.append(dep.ray)
        return tuple(seen)


@lru_cache(maxsize=4096)
def _solve_uniform_distance(
    matrix: Matrix,
    rhs: tuple[int, ...],
) -> tuple[str, tuple[int, ...] | None]:
    """Solve ``A x = rhs`` for a unique integer ``x``.

    Cached: the answer is a pure function of two small integer tuples,
    and the exact rational elimination behind it is the bulk of a
    nest's dependence analysis, while a served mix repeats a handful of
    (matrix, offset) pairs across all its nests.

    Returns:
        ("none", None)     -- provably no integer solution;
        ("unique", x)      -- unique integer solution x;
        ("unknown", None)  -- solutions exist but are not unique, or
                              uniqueness could not be established.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    # GCD test per row: a*x = c has integer solutions only if gcd(a) | c.
    for row, value in zip(matrix, rhs):
        divisor = gcd_many(row)
        if divisor == 0:
            if value != 0:
                return ("none", None)
        elif value % divisor != 0:
            return ("none", None)

    if cols == 0:
        return ("unique", ())

    if matrix_rank(matrix) < cols:
        return ("unknown", None)

    # Full column rank: solve by exact elimination on the augmented system.
    work = [[Fraction(matrix[r][c]) for c in range(cols)] + [Fraction(rhs[r])]
            for r in range(rows)]
    pivot_row = 0
    pivots: list[int] = []
    for col in range(cols):
        chosen = None
        for r in range(pivot_row, rows):
            if work[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        pivot = work[pivot_row][col]
        work[pivot_row] = [entry / pivot for entry in work[pivot_row]]
        for r in range(rows):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [
                    entry - factor * p
                    for entry, p in zip(work[r], work[pivot_row])
                ]
        pivots.append(col)
        pivot_row += 1
    # Inconsistent rows: 0 = nonzero.
    for r in range(pivot_row, rows):
        if work[r][cols] != 0:
            return ("none", None)
    solution: list[int] = []
    for i, col in enumerate(pivots):
        value = work[i][cols]
        if value.denominator != 1:
            return ("none", None)
        solution.append(int(value))
    if len(solution) != cols:
        return ("unknown", None)
    return ("unique", tuple(solution))


def _lex_nonneg(vector: Sequence[int]) -> bool:
    """True if vector is lexicographically >= 0."""
    for component in vector:
        if component != 0:
            return component > 0
    return True


def analyze_nest_dependences(nest: LoopNest) -> DependenceInfo:
    """Compute the dependences of one nest.

    Every ordered pair of references to the same array with at least one
    write is tested.  Distances are normalized to be lexicographically
    non-negative (a dependence always flows from the earlier iteration
    to the later one); loop-independent (zero) distances are kept so
    callers can distinguish them from "no dependence".
    """
    matrices = access_matrices(nest)
    dependences: list[Dependence] = []
    body = nest.body
    for i, first in enumerate(body):
        for j in range(i, len(body)):
            second = body[j]
            if first.array != second.array:
                continue
            if not (first.is_write or second.is_write):
                continue
            if i == j and not first.is_write:
                continue
            dep = _pair_dependence(first, second, i, j, matrices[i], matrices[j])
            if dep is not None:
                dependences.append(dep)
    return DependenceInfo(nest.name, tuple(dependences))


def _pair_dependence(
    first: ArrayRef,
    second: ArrayRef,
    first_index: int,
    second_index: int,
    matrix_a: Matrix,
    matrix_b: Matrix,
) -> Dependence | None:
    """Dependence between one pair of same-array references, or None.

    ``matrix_a`` and ``matrix_b`` are the pair's access matrices under
    the nest's loop order.
    """
    if matrix_a != matrix_b:
        # Non-uniform pair: fall back to a cheap GCD-style disproof on
        # the difference system; otherwise record an unknown dependence.
        return Dependence(first.array, first_index, second_index, None)
    rhs = tuple(
        a - b for a, b in zip(first.offset_vector(), second.offset_vector())
    )
    status, distance = _solve_uniform_distance(matrix_a, rhs)
    if status == "none":
        return None
    if status == "unknown":
        # Identical subscripts with a one-dimensional solution space:
        # the distance set is a ray {lambda * n : lambda > 0}, which
        # legality can check exactly (e.g. the matmul accumulation
        # T[i][j], whose ray is the innermost-loop direction).
        if all(value == 0 for value in rhs):
            from repro.linalg.nullspace import nullspace_basis

            basis = nullspace_basis(matrix_a)
            if len(basis) == 1:
                return Dependence(
                    first.array, first_index, second_index, None, basis[0]
                )
        return Dependence(first.array, first_index, second_index, None)
    assert distance is not None
    if not _lex_nonneg(distance):
        distance = tuple(-component for component in distance)
    if all(component == 0 for component in distance) and first_index == second_index:
        # A reference trivially "depends" on itself at the same
        # iteration; this never constrains reordering.
        return None
    return Dependence(first.array, first_index, second_index, distance)
