"""Full memory layouts as ordered hyperplane sets.

For a ``k``-dimensional array a layout is an ordered tuple of ``k - 1``
linearly independent hyperplane rows ``Y1 ... Y(k-1)``; two elements
share full spatial locality iff every row gives them equal dot products
(paper, end of Section 2).  Row order matters: ``Y1`` is the most
significant storage direction.  A 1-dimensional array has exactly one
layout, the empty tuple of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.layout.hyperplane import Hyperplane
from repro.linalg.matrices import rank
from repro.linalg.vectors import dot


@dataclass(frozen=True)
class Layout:
    """An ordered, canonical set of hyperplane rows for one array rank.

    Attributes:
        dimension: the array rank ``k``.
        rows: ``k - 1`` canonical hyperplane vectors, most significant
            first.
    """

    dimension: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, dimension: int, rows: Sequence[Sequence[int]]):
        canonical_rows = tuple(Hyperplane(row).vector for row in rows)
        if dimension < 1:
            raise ValueError("layout dimension must be >= 1")
        if len(canonical_rows) != dimension - 1:
            raise ValueError(
                f"a {dimension}-dimensional layout needs {dimension - 1} "
                f"hyperplane rows, got {len(canonical_rows)}"
            )
        for row in canonical_rows:
            if len(row) != dimension:
                raise ValueError(
                    f"hyperplane row {row} does not live in dimension {dimension}"
                )
        if canonical_rows and rank(canonical_rows) != len(canonical_rows):
            raise ValueError("layout hyperplane rows must be linearly independent")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "rows", canonical_rows)

    @property
    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """Rows wrapped as :class:`Hyperplane` objects."""
        return tuple(Hyperplane(row) for row in self.rows)

    def colocated(self, first: Sequence[int], second: Sequence[int]) -> bool:
        """True iff both elements lie on the same member of every family.

        This is the paper's multi-row membership test
        ``Yi . d1 == Yi . d2`` for all ``i``.
        """
        return all(
            dot(row, first) == dot(row, second) for row in self.rows
        )

    def describe(self) -> str:
        """Human-readable name for well-known 2-D layouts, else the rows."""
        if self.dimension == 2 and len(self.rows) == 1:
            names = {
                (1, 0): "row-major",
                (0, 1): "column-major",
                (1, -1): "diagonal",
                (1, 1): "anti-diagonal",
            }
            known = names.get(self.rows[0])
            if known is not None:
                return f"{known} {Hyperplane(self.rows[0])}"
        return str(self)

    def __str__(self) -> str:
        if not self.rows:
            return "<1-d layout>"
        return "; ".join(str(Hyperplane(row)) for row in self.rows)


def row_major(dimension: int) -> Layout:
    """The default C layout: last index varies fastest.

    For 2-D this is hyperplane ``(1 0)`` (Figure 1(a)); for 3-D the
    ordered rows are ``(1 0 0), (0 1 0)``.
    """
    rows = []
    for i in range(dimension - 1):
        row = [0] * dimension
        row[i] = 1
        rows.append(tuple(row))
    return Layout(dimension, rows)


def column_major(dimension: int) -> Layout:
    """Fortran layout: first index varies fastest.

    For 3-D this is the paper's example: rows ``(0 0 1), (0 1 0)``.
    """
    rows = []
    for i in range(dimension - 1):
        row = [0] * dimension
        row[dimension - 1 - i] = 1
        rows.append(tuple(row))
    return Layout(dimension, rows)


def diagonal() -> Layout:
    """The 2-D diagonal layout ``(1 -1)`` of Figure 1(c)."""
    return Layout(2, [(1, -1)])


def antidiagonal() -> Layout:
    """The 2-D anti-diagonal layout ``(1 1)`` of Figure 1(d)."""
    return Layout(2, [(1, 1)])


@lru_cache(maxsize=32)
def standard_layouts(dimension: int) -> tuple[Layout, ...]:
    """The conventional candidates for an array rank.

    2-D arrays get the four layouts of Figure 1; higher ranks get
    row-major and column-major (richer candidates come from the
    locality analysis in :mod:`repro.layout.candidates`).  Cached per
    rank: every array's domain derivation asks, and building a layout
    validates its rows with exact linear algebra.
    """
    if dimension == 1:
        return (Layout(1, []),)
    if dimension == 2:
        return (row_major(2), column_major(2), diagonal(), antidiagonal())
    return (row_major(dimension), column_major(dimension))
