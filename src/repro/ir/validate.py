"""Semantic validation of parsed or constructed programs."""

from __future__ import annotations

from repro.ir.program import Program


class ValidationError(ValueError):
    """Raised when a program violates a semantic well-formedness rule."""


def validate_structure(program: Program) -> None:
    """Check the structural rules; raise ValidationError otherwise.

    Rules enforced:

    * every referenced array is declared;
    * reference rank matches the declared rank;
    * subscripts use only the indices of the enclosing nest.

    These are the rules every consumer relies on; a program breaking
    one cannot be optimized at all.
    """
    ranks = {decl.name: decl.rank for decl in program.arrays}
    for nest in program.nests:
        index_set = set(nest.index_order)
        for reference in nest.body:
            rank = ranks.get(reference.array)
            if rank is None:
                raise ValidationError(
                    f"nest {nest.name}: reference to undeclared array "
                    f"{reference.array}"
                )
            if len(reference.subscripts) != rank:
                raise ValidationError(
                    f"nest {nest.name}: {reference.array} is "
                    f"{rank}-dimensional but referenced with "
                    f"{reference.rank} subscripts"
                )
            for subscript in reference.subscripts:
                for name, _ in subscript.coeffs:
                    if name not in index_set:
                        stray = sorted(set(subscript.variables()) - index_set)
                        raise ValidationError(
                            f"nest {nest.name}: subscript of {reference.array} "
                            f"uses unknown variables {stray}"
                        )


def validate_program(program: Program) -> None:
    """Check semantic well-formedness; raise ValidationError otherwise.

    On top of :func:`validate_structure`, every subscript must stay
    within the declared extents over the whole iteration space (checked
    exactly via interval arithmetic).
    """
    validate_structure(program)
    declared = {decl.name: decl for decl in program.arrays}
    for nest in program.nests:
        box = dict(zip(nest.index_order, nest.iteration_box()))
        for reference in nest.body:
            decl = declared[reference.array]
            for dim, subscript in enumerate(reference.subscripts):
                low, high = _subscript_range(subscript, box)
                if low < 0 or high >= decl.extents[dim]:
                    raise ValidationError(
                        f"nest {nest.name}: subscript {subscript} of "
                        f"{reference.array} dim {dim} spans [{low}, {high}] "
                        f"outside [0, {decl.extents[dim] - 1}]"
                    )


def _subscript_range(subscript, box) -> tuple[int, int]:
    """Exact (min, max) of an affine subscript over the iteration box."""
    low = high = subscript.const
    for name, coefficient in subscript.coeffs:
        bound_low, bound_high = box[name]
        if coefficient >= 0:
            low += coefficient * bound_low
            high += coefficient * bound_high
        else:
            low += coefficient * bound_high
            high += coefficient * bound_low
    return (low, high)
