"""Center algebras of forms, power-sum decompositions, radical solutions.

The package decides when a univariate equation is a disguised sum of two
d-th powers (or a linear form times a power) by computing the center algebra
of its homogenization, completes the powers exactly, and returns radical
root expressions together with an independent numeric cross-check.
"""

from .center import (
    BinaryInvariants,
    CenterBasis,
    binary_center_system,
    binary_invariants,
    compute_center,
)
from .diagonalize import (
    AlgebraProfile,
    DiagonalDecomposition,
    diagonalize_form,
    profile,
)
from .errors import (
    CenterRankError,
    CenterSolveError,
    DegreeError,
    NoRadicalMethodError,
    NonConvergenceError,
    NonRationalCoefficientError,
    NotDiagonalizableError,
    RepeatedEigenvalueError,
)
from .forms import (
    BinaryForm,
    LinearForm,
    NAryForm,
    PowerSumDecomposition,
    UnivariateEquation,
    expand,
    from_norm_coeffs,
    from_plain_coeffs,
    hessian,
)
from .oracle import (
    MatchReport,
    OracleRootSet,
    check_decomposition,
    compare_root_sets,
    numeric_roots,
    rational_roots,
)
from .parser import ParsedInput, PolyParseError, parse_polynomial, render_polynomial
from .scalars import QuadExt, rational_nth_root
from .solver import (
    DepressedQuartic,
    EquationClass,
    QuarticSolution,
    RadicalRoot,
    ResolventData,
    RootSet,
    cardano,
    classify,
    complete_powers,
    depress_quartic,
    shift_equation,
    solve_by_radicals,
    solve_quartic_by_two_squares,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraProfile",
    "BinaryForm",
    "BinaryInvariants",
    "CenterBasis",
    "CenterRankError",
    "CenterSolveError",
    "DegreeError",
    "DepressedQuartic",
    "DiagonalDecomposition",
    "EquationClass",
    "LinearForm",
    "MatchReport",
    "NAryForm",
    "NoRadicalMethodError",
    "NonConvergenceError",
    "NonRationalCoefficientError",
    "NotDiagonalizableError",
    "OracleRootSet",
    "ParsedInput",
    "PolyParseError",
    "PowerSumDecomposition",
    "QuadExt",
    "QuarticSolution",
    "RadicalRoot",
    "RepeatedEigenvalueError",
    "ResolventData",
    "RootSet",
    "UnivariateEquation",
    "binary_center_system",
    "binary_invariants",
    "cardano",
    "check_decomposition",
    "classify",
    "compare_root_sets",
    "complete_powers",
    "compute_center",
    "depress_quartic",
    "diagonalize_form",
    "expand",
    "from_norm_coeffs",
    "from_plain_coeffs",
    "hessian",
    "numeric_roots",
    "parse_polynomial",
    "profile",
    "rational_nth_root",
    "rational_roots",
    "render_polynomial",
    "shift_equation",
    "solve_by_radicals",
    "solve_quartic_by_two_squares",
]
