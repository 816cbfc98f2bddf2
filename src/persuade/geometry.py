"""The LP core every solver shares.

``solve_lp`` is a thin contract around the HiGHS dual simplex: equality
constraints, variables bounded below by zero, basic (vertex) optimal
solutions, and an equality residual checked on every accepted solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

# Equality residual allowed on any accepted LP solution.
LP_RESIDUAL = 1e-9
# LP weights at or below this are dropped from a plan's atoms.
ATOM_FLOOR = 1e-12

__all__ = [
    "LP_RESIDUAL",
    "ATOM_FLOOR",
    "LpSolverError",
    "InfeasibleProgramError",
    "LinearProgram",
    "SparseConstraints",
    "LpResult",
    "solve_lp",
]


class LpSolverError(RuntimeError):
    """The LP engine failed numerically (not an infeasibility verdict)."""


class InfeasibleProgramError(RuntimeError):
    """A solver-level program admitted no feasible point."""


class SparseConstraints(scipy.sparse.csc_array):
    """CSC constraint matrix that numpy functions read as its dense form.

    HiGHS and the residual check in ``solve_lp`` work on the sparse
    structure.  ``np.asarray`` and the numpy functions built on it
    (``np.count_nonzero``, ...) see the dense matrix, so code that reads
    ``LinearProgram.a_eq`` with numpy works on either kind of program.
    """

    def __array__(self, dtype=None, copy=None):
        return self.toarray().astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c . x  subject to  A_eq x = b_eq, x >= 0.

    ``a_eq`` is a dense array or any ``scipy.sparse`` matrix; a sparse one
    is kept sparse (as ``SparseConstraints``) all the way to HiGHS.
    """

    c: np.ndarray
    a_eq: np.ndarray | SparseConstraints
    b_eq: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if scipy.sparse.issparse(self.a_eq):
            a = SparseConstraints(self.a_eq, dtype=float)
        else:
            a = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        b = np.asarray(self.b_eq, dtype=float)
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"constraint shapes disagree: A is {a.shape}, "
                f"b has {b.size} rows, c has {c.size} columns"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)


@dataclass(frozen=True, eq=False)
class LpResult:
    """Outcome of solve_lp; x and value are meaningful when optimal."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(lp: LinearProgram) -> LpResult:
    """Solve a maximization LP, returning a basic optimal solution.

    The dual simplex backend terminates on every input and lands on a
    vertex, so optimal solutions carry at most as many nonzeros as there
    are constraint rows.  Numerical breakdown raises ``LpSolverError``
    instead of masquerading as infeasibility.
    """
    res = linprog(
        -lp.c,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=(0, None),
        method="highs-ds",
    )
    if res.status == 2:
        return LpResult(status="infeasible", x=None, value=None)
    if res.status == 3:
        return LpResult(status="unbounded", x=None, value=None)
    if res.status != 0:
        raise LpSolverError(f"LP engine failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    scale = 1.0 + float(np.max(np.abs(lp.b_eq), initial=0.0))
    residual = float(np.max(np.abs(lp.a_eq @ x - lp.b_eq), initial=0.0))
    if residual > LP_RESIDUAL * scale:
        raise LpSolverError(f"equality residual {residual:.3e} out of tolerance")
    return LpResult(status="optimal", x=x, value=float(-res.fun))
