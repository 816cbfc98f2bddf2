"""Convex geometry on the belief simplex, backed by an exact-ish LP core.

Point sets are plain float arrays with one point per row; entries are
beliefs or nonnegative rescalings of beliefs (the origin is a legal row).
Everything here funnels through ``solve_lp``, a thin contract around the
HiGHS dual simplex: equality constraints, variables bounded below by zero,
basic (vertex) optimal solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

# A point counts as inside a hull when some convex combination reproduces
# it with total absolute residual at most this.
HULL_TOLERANCE = 1e-8
# Equality residual allowed on any accepted LP solution; a ConvexCombination's
# weights, which an LP row makes sum to one, must do so within it too.
LP_RESIDUAL = 1e-9
# Weights smaller than this are dropped from decompositions.
ATOM_FLOOR = 1e-12

__all__ = [
    "HULL_TOLERANCE",
    "LP_RESIDUAL",
    "ATOM_FLOOR",
    "LpSolverError",
    "InfeasibleProgramError",
    "LinearProgram",
    "SparseConstraints",
    "LpResult",
    "ConvexCombination",
    "solve_lp",
    "hull_membership",
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


@dataclass(frozen=True, eq=False)
class ConvexCombination:
    """Convex weights over rows of a point set reproducing a target.

    ``indices`` refer to rows of the point set the combination was built
    from; ``points`` are those rows copied out so the object stands alone.
    """

    indices: np.ndarray
    weights: np.ndarray
    points: np.ndarray
    target: np.ndarray
    tolerance: float = HULL_TOLERANCE

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0:
            raise ValueError("a convex combination needs at least one atom")
        if w.min() < -ATOM_FLOOR or abs(w.sum() - 1.0) > LP_RESIDUAL:
            raise ValueError("weights must be nonnegative and sum to one")
        err = np.max(np.abs(w @ self.points - self.target))
        if err > self.tolerance:
            raise ValueError(f"combination misses its target by {err:.3e}")

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)


def _membership_lp(target: np.ndarray, points: np.ndarray) -> LinearProgram:
    # min sum of slacks <=> max -(s+ + s-); columns are [lambda, s+, s-].
    n, d = points.shape
    a = np.zeros((d + 1, n + 2 * d))
    a[:d, :n] = points.T
    a[:d, n : n + d] = np.eye(d)
    a[:d, n + d :] = -np.eye(d)
    a[d, :n] = 1.0
    b = np.concatenate([target, [1.0]])
    c = np.zeros(n + 2 * d)
    c[n:] = -1.0
    return LinearProgram(c=c, a_eq=a, b_eq=b)


def hull_membership(
    target: np.ndarray, points: np.ndarray, tol: float = HULL_TOLERANCE
) -> ConvexCombination | None:
    """Test whether target lies in the convex hull of the rows of points.

    Returns a witness combination when some convex mix of rows comes
    within total absolute residual ``tol`` of the target, else None.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)
    if points.shape[0] == 0:
        return None
    if points.shape[1] != target.size:
        raise ValueError("points and target dimensions disagree")
    res = solve_lp(_membership_lp(target, points))
    if not res.optimal:
        return None
    n = points.shape[0]
    slack = -res.value
    if slack > tol:
        return None
    lam = res.x[:n]
    keep = np.nonzero(lam > ATOM_FLOOR)[0]
    if keep.size == 0:
        keep = np.array([int(np.argmax(lam))])
    w = lam[keep] / lam[keep].sum()
    return ConvexCombination(
        indices=keep,
        weights=w,
        points=points[keep],
        target=target,
        tolerance=max(tol, HULL_TOLERANCE),
    )
