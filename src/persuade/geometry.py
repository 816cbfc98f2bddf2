"""The LP core every solver shares.

``solve_lp`` is the one contract around the HiGHS dual simplex: equality
constraints, variables bounded below by zero, and a basic (vertex)
optimal solution with its equality duals and its weights floored at
ATOM_FLOOR; anything else raises.  ``certify`` is the one acceptance test
of an LP answer.  ``solve_by_columns`` runs column generation on the
duals; its last pricing pass extends the restricted optimum's certificate
to the whole program.

HiGHS is scipy's bundled extension module ``scipy.optimize._highspy._core``,
loaded by itself on the first LP solved, so no process loads
``scipy.optimize``.  ``linprog`` hands it one program and returns the
optimum's weights, value and duals, or raises.  Every program holds its
constraints as a ``CscMatrix``, numpy arrays in the compressed column form
HiGHS takes, so no process imports scipy's sparse package either.
Importing the package loads no scipy module: the CLI verbs that solve no
LP (``validate``, ``simulate``) start without scipy, and ``solve``,
``check-full`` and ``queue`` load the HiGHS module alone.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

# Equality residual allowed on any accepted LP solution, and what solve_lp's
# retry asks of HiGHS: a hundredth of its default feasibility tolerance, 1e-7.
LP_RESIDUAL = 1e-9
# solve_lp sets LP weights at or below this to 0, so none becomes a plan atom:
# a thousandth of LP_RESIDUAL, noise next to the residual the weights met.
ATOM_FLOOR = 1e-12
# Programs with at most this many columns per constraint row are solved
# directly, wider ones by column generation.  Swept on a 2-core host, the direct
# LP won on 39 of 42 binary hulls (to 41 per row, d 160; up to 5x) and 8 of 10
# grids of at most 60 per row, column generation on all 48 grids above (to 90x).
FULL_LP_COLUMNS = 60
# Columns added per pricing round, the best-priced first.  The solve-fixed
# grid programs of 9k-46k columns then close in 2-6 rounds with 68-261.
PRICING_BATCH = 64
# Bound on the largest reduced cost and on the primal-dual gap, scaled by
# 1 + max|c|: the pricing threshold and the certificate.  It is the
# LP_RESIDUAL precision; on the 3,840 plan LPs of 1,920 solve-fixed
# instances the worst were 1.9e-10 (binary hulls) and 8.8e-13.
CERTIFICATE_TOLERANCE = 1e-9

__all__ = [
    "LP_RESIDUAL",
    "ATOM_FLOOR",
    "FULL_LP_COLUMNS",
    "PRICING_BATCH",
    "CERTIFICATE_TOLERANCE",
    "LpSolverError",
    "InfeasibleProgramError",
    "CscMatrix",
    "LinearProgram",
    "LpResult",
    "solve_lp",
    "certificate_bound",
    "certify",
    "solve_by_columns",
]


class LpSolverError(RuntimeError):
    """The LP engine failed numerically (not an infeasibility verdict)."""


class InfeasibleProgramError(RuntimeError):
    """A solver-level program admitted no feasible point."""


# scipy's pybind11 bindings of HiGHS, the extension module its
# linprog(method="highs-ds") calls; scipy ships them since 1.15.
HIGHS_CORE = "scipy.optimize._highspy._core"


@functools.cache
def _highs():
    """The HiGHS extension module, loaded without importing ``scipy.optimize``.

    It is found beside scipy's ``__init__`` (``find_spec`` does not import
    scipy) and registered in ``sys.modules`` under its own name, so a later
    ``import scipy.optimize`` reuses it; one that scipy loaded first is
    reused here.
    """
    core = sys.modules.get(HIGHS_CORE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None:
        stem = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy", "_core")
        for path in (stem + suffix for suffix in EXTENSION_SUFFIXES):
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(HIGHS_CORE, path)
                core = importlib.util.module_from_spec(spec)
                sys.modules[HIGHS_CORE] = core
                spec.loader.exec_module(core)
                return core
    from importlib.metadata import PackageNotFoundError, version

    try:
        found = f"scipy {version('scipy')}"
    except PackageNotFoundError:
        found = "no scipy"
    raise ImportError(f"{HIGHS_CORE} not found: the LP engine needs scipy>=1.15, found {found}")


def linprog(c, a_eq, b_eq, options=None):
    """minimize c . x  s.t.  a_eq x = b_eq, x >= 0, by the HiGHS dual simplex.

    HiGHS gets the arrays of the ``CscMatrix`` ``a_eq`` and the options of
    scipy's ``linprog(method="highs-ds")``: presolve on, the dual simplex
    strategy and output off, plus ``options`` (HiGHS option names).
    Returns the optimum ``(x, value, dual)``, ``dual`` the equality duals.
    An infeasible or unbounded program raises ``InfeasibleProgramError``,
    and any other HiGHS verdict ``LpSolverError``.  An empty or non-finite
    program is refused with ``ValueError`` before HiGHS sees it.
    """
    core = _highs()
    n = c.size
    if n == 0 or not all(np.isfinite(v).all() for v in (c, a_eq.data, b_eq)):
        raise ValueError("LP coefficients must be finite, with at least one column")
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = b_eq.size
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = a_eq.indptr
    model.a_matrix_.index_ = a_eq.indices
    model.a_matrix_.value_ = a_eq.data
    model.col_cost_ = c
    model.col_lower_ = np.zeros(n)
    model.col_upper_ = np.full(n, core.kHighsInf)
    model.row_lower_ = model.row_upper_ = b_eq
    settings = core.HighsOptions()
    for key, value in {
        "presolve": "on",
        "solver": "simplex",
        "simplex_strategy": core.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
        "highs_debug_level": core.HighsDebugLevel.kHighsDebugLevelNone,
        "log_to_console": False,
        "output_flag": False,
        **(options or {}),
    }.items():
        setattr(settings, key, value)
    highs = core._Highs()
    highs.passOptions(settings)
    status = core.HighsModelStatus.kModelError
    if highs.passModel(model) != core.HighsStatus.kError:
        highs.run()
        status = highs.getModelStatus()
    verdict = highs.modelStatusToString(status)
    if status in (core.HighsModelStatus.kInfeasible, core.HighsModelStatus.kUnbounded):
        raise InfeasibleProgramError(f"LP is {verdict.lower()}")
    if status != core.HighsModelStatus.kOptimal:
        raise LpSolverError(f"LP engine failed: no optimum (HiGHS Status {int(status)}: {verdict})")
    solution, value = highs.getSolution(), highs.getInfo().objective_function_value
    return np.array(solution.col_value), value, np.array(solution.row_dual)


class CscMatrix:
    """A sparse matrix in compressed sparse column (CSC) form, in numpy arrays.

    Column j holds ``data[indptr[j]:indptr[j + 1]]`` at the rows
    ``indices[indptr[j]:indptr[j + 1]]``, which increase, so no entry
    repeats: scipy's canonical CSC, the arrays HiGHS takes.  ``A @ x`` and
    ``A.rmatvec(y)`` (A^T y) add each sum's terms in entry order, as scipy's
    sparse products do, so they give its bits.  ``A.columns(cols)`` is the
    sub-matrix of those columns.  ``np.asarray`` and the numpy functions
    built on it (``np.count_nonzero``, ...) see the dense matrix.  Arrays are
    checked unless ``cols`` (each entry's column) comes with them, canonical.
    """

    def __init__(self, indptr, indices, data, shape, cols=None):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        self.shape = m, n = (int(shape[0]), int(shape[1]))
        self._cols = cols
        if cols is not None:
            return
        counts = np.diff(self.indptr)
        if not (
            self.indptr.shape == (n + 1,)
            and self.indptr[0] == 0
            and self.indptr[-1] == self.indices.size == self.data.size
            and (counts >= 0).all()
        ):
            raise ValueError(f"CSC column pointers do not fit {self.data.size} entries in {n} columns")
        # The column of each entry, for the products and the dense matrix.
        self._cols = np.repeat(np.arange(n), counts)
        rows = self.indices
        if rows.size and not (
            rows.min() >= 0
            and rows.max() < m
            and ((np.diff(rows) > 0) | (np.diff(self._cols) > 0)).all()
        ):
            raise ValueError(f"CSC row indices must increase within each column, below {m}")

    @classmethod
    def from_dense(cls, a: np.ndarray) -> CscMatrix:
        """The nonzeros of a dense matrix, column by column: scipy's ``csc_array(a)``."""
        cols = np.ascontiguousarray(np.asarray(a, dtype=float).T)
        at = np.flatnonzero(cols)
        col, row = np.divmod(at, cols.shape[1])
        indptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=cols.shape[0]))))
        return cls(indptr, row, cols.ravel()[at], cols.shape[::-1], col)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.indices, weights=self.data * x[self._cols], minlength=self.shape[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y, each column's terms in row order: scipy's ``A.T @ y``."""
        return np.bincount(self._cols, weights=self.data * y[self.indices], minlength=self.shape[1])

    def columns(self, cols: np.ndarray) -> CscMatrix:
        """The sub-matrix of the columns ``cols``, in that order: numpy's ``A[:, cols]``."""
        start = self.indptr[cols]
        counts = self.indptr[cols + 1] - start
        indptr = np.concatenate(([0], np.cumsum(counts)))
        col = np.repeat(np.arange(cols.size), counts)
        take = (start - indptr[:-1])[col] + np.arange(indptr[-1])
        return CscMatrix(indptr, self.indices[take], self.data[take], (self.shape[0], cols.size), col)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.indices, self._cols] = self.data
        return dense.astype(dtype, copy=False) if dtype is not None else dense


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c . x  subject to  A_eq x = b_eq, x >= 0.

    ``a_eq`` is a ``CscMatrix``, kept sparse all the way to HiGHS; a
    builder that holds a dense matrix converts it once with
    ``CscMatrix.from_dense``.
    """

    c: np.ndarray
    a_eq: CscMatrix
    b_eq: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        a = self.a_eq
        if not isinstance(a, CscMatrix):
            raise TypeError(f"a_eq must be a CscMatrix, not {type(a).__name__}")
        b = np.asarray(self.b_eq, dtype=float)
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"constraint shapes disagree: A is {a.shape}, "
                f"b has {b.size} rows, c has {c.size} columns"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b_eq", b)


@dataclass(frozen=True, eq=False)
class LpResult:
    """A certified optimum of an LP: weights, value, equality duals, certificate.

    ``x`` is nonnegative, and each entry is 0 or above ATOM_FLOOR (see
    ``solve_lp``).  ``dual`` is y with c - A^T y <= 0 at the optimum.
    ``rounds`` and ``columns`` are the solves it took and the final column
    count; ``reduced_cost`` and ``gap`` are the certificate over every
    column of the program (see ``certify``).
    """

    x: np.ndarray
    value: float
    dual: np.ndarray
    rounds: int
    columns: int
    reduced_cost: float
    gap: float


def solve_lp(lp: LinearProgram) -> LpResult:
    """Solve a maximization LP: a certified basic optimal solution, or a raise.

    The dual simplex backend terminates on every input and lands on a
    vertex, so optimal solutions carry at most as many nonzeros as there
    are constraint rows.  ``linprog``'s raises pass through: an infeasible
    or unbounded program raises ``InfeasibleProgramError``, and any other
    HiGHS verdict ``LpSolverError``.  The weights are clipped at 0 (HiGHS
    returns some a few ulps below it) and must pass ``certify`` on ``lp``.
    HiGHS holds primal and dual feasibility to 1e-7 by default, so a failed
    answer is solved once more at LP_RESIDUAL and CERTIFICATE_TOLERANCE,
    and a second one is raised.  Weights at or below ATOM_FLOOR are then
    set to 0, so every weight a caller reads is a plan atom's.
    """
    for options in (None, {"primal_feasibility_tolerance": LP_RESIDUAL,
                           "dual_feasibility_tolerance": CERTIFICATE_TOLERANCE}):
        x, value, dual = linprog(-lp.c, lp.a_eq, lp.b_eq, options)
        try:
            # 0.0 - value, so a zero optimum is 0.0, not -0.0.
            out = certify(lp, np.where(x < 0.0, 0.0, x), 0.0 - value, -dual, rounds=1, columns=lp.c.size)
            break
        except LpSolverError:
            if options is not None:
                raise
    # Positive entries only: a zero keeps the sign HiGHS gave it, in printed plans too.
    out.x[(out.x > 0.0) & (out.x <= ATOM_FLOOR)] = 0.0
    return out


def certificate_bound(lp: LinearProgram) -> float:
    """CERTIFICATE_TOLERANCE scaled by 1 + max|c|."""
    return CERTIFICATE_TOLERANCE * (1.0 + float(np.max(np.abs(lp.c), initial=0.0)))


def certify(
    lp: LinearProgram, x: np.ndarray, value: float, dual: np.ndarray, rounds: int, columns: int
) -> LpResult:
    """Accept an optimum of ``lp`` with a certificate that does not trust the engine.

    ``x`` (nonnegative, one entry per column) must satisfy A x = b to
    LP_RESIDUAL * (1 + max|b|).  The largest reduced cost c - A^T y over
    all columns, and the gap between ``value`` and y . b, must each be at
    most ``certificate_bound(lp)``.  With them no feasible x does better
    than the value plus the gap plus sum(x) times the largest reduced
    cost.  Returns the ``LpResult`` with both beside the solve's
    ``rounds`` and final ``columns``; a failed check raises
    ``LpSolverError``.
    """
    # Over x's nonzero columns only: the terms left out are +-0, so the bits are A x's.
    nz = np.flatnonzero(x)
    residual = float(np.max(np.abs(lp.a_eq.columns(nz) @ x[nz] - lp.b_eq), initial=0.0))
    if not residual <= LP_RESIDUAL * (1.0 + float(np.max(np.abs(lp.b_eq), initial=0.0))):
        raise LpSolverError(f"equality residual {residual:.3e} out of tolerance")
    bound = certificate_bound(lp)
    worst = float(np.max(lp.c - lp.a_eq.rmatvec(dual), initial=-np.inf))
    gap = abs(value - float(dual @ lp.b_eq))
    if not (worst <= bound and gap <= bound):
        raise LpSolverError(
            f"LP optimality certificate failed: reduced cost {worst:.3e}, "
            f"duality gap {gap:.3e}, tolerance {bound:.3e}"
        )
    return LpResult(x, value, dual, rounds, columns, worst, gap)


def solve_by_columns(lp: LinearProgram, seed: np.ndarray | None) -> LpResult:
    """Solve by column generation on the duals, certified on the whole program.

    The loop solves over the ``seed`` columns, prices every column by its
    reduced cost c - A^T y (one mat-vec), adds the PRICING_BATCH best of
    those outside the set that price above tolerance, and repeats until
    none does (Gilmore & Gomory 1961).  The seed must admit a feasible
    point.  A program with at most FULL_LP_COLUMNS columns per row, or with
    no seed (None), is the direct LP: ``solve_lp`` certifies its one solve.

    ``solve_lp`` certified the last restricted solve and the last pricing
    pass priced every column, so the result is what ``certify`` builds on ``lp``.
    """
    n = lp.c.size
    if seed is None or n <= FULL_LP_COLUMNS * lp.b_eq.size:
        return solve_lp(lp)
    active = np.unique(seed)
    bound = certificate_bound(lp)
    for rounds in itertools.count(1):
        sub = lp if active.size == n else LinearProgram(lp.c[active], lp.a_eq.columns(active), lp.b_eq)
        res = solve_lp(sub)
        reduced = lp.c - lp.a_eq.rmatvec(res.dual)
        worst = float(np.max(reduced))
        reduced[active] = -np.inf
        entering = np.flatnonzero(reduced > bound)
        if entering.size == 0:
            break
        if entering.size > PRICING_BATCH:
            best = np.argpartition(reduced[entering], -PRICING_BATCH)[-PRICING_BATCH:]
            entering = entering[best]
        active = np.union1d(active, entering)
    x = np.zeros(n)
    x[active] = res.x
    return LpResult(x, res.value, res.dual, rounds, active.size, worst, res.gap)
