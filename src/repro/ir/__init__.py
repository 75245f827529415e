"""Loop-nest intermediate representation.

The paper's input is an array-intensive program: a sequence of perfectly
nested affine loop nests whose bodies reference arrays through affine
subscript functions ``F(I) = A I + b``.  This subpackage provides:

* :mod:`repro.ir.expr` -- affine expressions over loop index names.
* :mod:`repro.ir.arrays` -- array declarations (extents, element size).
* :mod:`repro.ir.reference` -- affine array references.
* :mod:`repro.ir.loops` -- loops and loop nests.
* :mod:`repro.ir.program` -- whole programs.
* :mod:`repro.ir.parser` -- a small textual language for writing
  benchmark kernels (see the module docstring for the grammar).
* :mod:`repro.ir.dependence` -- data-dependence analysis used to check
  legality of candidate loop transformations.
* :mod:`repro.ir.validate` -- semantic well-formedness checks.
* :mod:`repro.ir.facts` -- the per-program index of layout-independent
  facts (access matrices, deltas, array -> nest map) the optimizer
  reads instead of recomputing them.
"""

from repro.ir.expr import AffineExpr
from repro.ir.arrays import ArrayDecl
from repro.ir.reference import ArrayRef, AccessKind
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import Program
from repro.ir.parser import parse_program, ParseError
from repro.ir.dependence import (
    DependenceInfo,
    Dependence,
    analyze_nest_dependences,
)
from repro.ir.facts import ProgramFacts, program_facts
from repro.ir.validate import validate_program, validate_structure, ValidationError

__all__ = [
    "AffineExpr",
    "ArrayDecl",
    "ArrayRef",
    "AccessKind",
    "Loop",
    "LoopNest",
    "Program",
    "parse_program",
    "ParseError",
    "DependenceInfo",
    "Dependence",
    "analyze_nest_dependences",
    "ProgramFacts",
    "program_facts",
    "validate_program",
    "validate_structure",
    "ValidationError",
]
