"""The LP core every solver shares.

``solve_lp`` is the one contract around the HiGHS dual simplex: equality
constraints, variables bounded below by zero, and a basic (vertex)
optimal solution with its equality duals and its weights floored at
ATOM_FLOOR; anything else raises.  ``certify`` is the one acceptance test
of an LP answer, and builds every ``LpResult``.  ``solve_by_columns`` runs
column generation on the duals and certifies the optimum it returns on
the whole program.

scipy loads on first use: ``scipy.optimize`` on the first LP solved
(``linprog``), ``scipy.sparse`` with the first sparse program.  Importing
the package loads neither, so the CLI verbs that solve no LP
(``validate``, ``simulate``) start without them.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

# Equality residual allowed on any accepted LP solution.
LP_RESIDUAL = 1e-9
# solve_lp sets LP weights at or below this to 0, so none becomes a plan atom.
ATOM_FLOOR = 1e-12
# Programs with at most this many columns start column generation from all
# of them: the first solve is then the direct LP, pricing adds nothing, and
# the plan is the one a direct solve gives.  The queue flow LP does not use
# this loop: it grows its columns by queue length (queueing.solve_queue).
FULL_LP_COLUMNS = 10_000
# Columns added per pricing round, the best-priced first.  The solve-fixed
# grid programs of 20k-46k columns then close in 2-6 rounds with 69-263.
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on its first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


@functools.cache
def _sparse_constraints() -> type:
    """The ``SparseConstraints`` class, built when the first sparse program is."""
    import scipy.sparse

    class SparseConstraints(scipy.sparse.csc_array):
        """CSC constraint matrix that numpy functions read as its dense form.

        HiGHS and the residual check in ``certify`` work on the sparse
        structure.  ``np.asarray`` and the numpy functions built on it
        (``np.count_nonzero``, ...) see the dense matrix, so code that reads
        ``LinearProgram.a_eq`` with numpy works on either kind of program.
        The class is built with the first sparse program, so importing
        this module does not load ``scipy.sparse``.
        """

        def __array__(self, dtype=None, copy=None):
            return self.toarray().astype(dtype, copy=False)

    return SparseConstraints


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c . x  subject to  A_eq x = b_eq, x >= 0.

    ``a_eq`` is a dense array or any ``scipy.sparse`` matrix; a sparse one
    is kept sparse all the way to HiGHS, as a ``SparseConstraints``, whose
    class is built on the first sparse program.  A sparse matrix can only
    exist once ``scipy.sparse`` is imported, so a dense program is told
    apart without importing it.
    """

    c: np.ndarray
    a_eq: np.ndarray | scipy.sparse.csc_array
    b_eq: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        sparse = sys.modules.get("scipy.sparse")
        if sparse is not None and sparse.issparse(self.a_eq):
            a = _sparse_constraints()(self.a_eq, dtype=float)
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
    """A certified optimum of an LP: weights, value, equality duals, certificate.

    ``x`` is nonnegative, and each entry is 0 or above ATOM_FLOOR (see
    ``solve_lp``).  ``dual`` is y with c - A^T y <= 0 at the optimum.
    ``rounds`` and ``columns`` are the solves it took and the final column
    count; ``reduced_cost`` and ``gap`` are the certificate (see
    ``certify``, which builds every ``LpResult``).
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
    are constraint rows.  An infeasible or unbounded program raises
    ``InfeasibleProgramError``, and numerical breakdown ``LpSolverError``.
    The weights are clipped at 0 (HiGHS returns some a few ulps below it)
    and must pass ``certify`` on ``lp``.  HiGHS holds primal and dual
    feasibility to 1e-7 by default, so a failed answer is solved once more
    at LP_RESIDUAL and CERTIFICATE_TOLERANCE, and a second one is raised.
    Weights at or below ATOM_FLOOR are then set to 0, so every weight a
    caller reads is a plan atom's.
    """
    for options in (None, {"primal_feasibility_tolerance": LP_RESIDUAL,
                           "dual_feasibility_tolerance": CERTIFICATE_TOLERANCE}):
        res = linprog(
            -lp.c,
            A_eq=lp.a_eq,
            b_eq=lp.b_eq,
            bounds=(0, None),
            method="highs-ds",
            options=options,
        )
        verdict = {2: "infeasible", 3: "unbounded"}.get(res["status"])
        if verdict is not None:
            raise InfeasibleProgramError(f"LP is {verdict}")
        if not res.success:
            raise LpSolverError(f"LP engine failed: {res.message}")
        x = np.where(res.x < 0.0, 0.0, res.x)
        try:
            out = certify(lp, x, float(-res.fun), -res.eqlin.marginals, rounds=1, columns=lp.c.size)
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
    residual = float(np.max(np.abs(lp.a_eq @ x - lp.b_eq), initial=0.0))
    if not residual <= LP_RESIDUAL * (1.0 + float(np.max(np.abs(lp.b_eq), initial=0.0))):
        raise LpSolverError(f"equality residual {residual:.3e} out of tolerance")
    bound = certificate_bound(lp)
    worst = float(np.max(lp.c - lp.a_eq.T @ dual, initial=-np.inf))
    gap = abs(value - float(dual @ lp.b_eq))
    if not (worst <= bound and gap <= bound):
        raise LpSolverError(
            f"LP optimality certificate failed: reduced cost {worst:.3e}, "
            f"duality gap {gap:.3e}, tolerance {bound:.3e}"
        )
    return LpResult(x, value, dual, rounds, columns, worst, gap)


def solve_by_columns(lp: LinearProgram, seed: np.ndarray | None) -> LpResult:
    """Solve by column generation on the duals, and certify the optimum.

    The loop solves over the ``seed`` columns, prices every column by its
    reduced cost c - A^T y (one mat-vec), adds the PRICING_BATCH best of
    those outside the set that price above tolerance, and repeats until
    none does (Gilmore & Gomory 1961).  The seed must admit a feasible
    point.  A program with at most FULL_LP_COLUMNS columns, or with no
    seed (None), starts from all its columns, so its one solve is the
    direct LP.

    Either way the optimum must pass ``certify`` over all the columns.
    """
    n = lp.c.size
    active = np.arange(n) if seed is None or n <= FULL_LP_COLUMNS else np.unique(seed)
    bound = certificate_bound(lp)
    rounds = 0
    while True:
        rounds += 1
        sub = lp if active.size == n else LinearProgram(lp.c[active], lp.a_eq[:, active], lp.b_eq)
        res = solve_lp(sub)
        reduced = lp.c - lp.a_eq.T @ res.dual
        outside = np.ones(n, dtype=bool)
        outside[active] = False
        entering = np.nonzero(outside & (reduced > bound))[0]
        if entering.size == 0:
            break
        if entering.size > PRICING_BATCH:
            best = np.argpartition(reduced[entering], -PRICING_BATCH)[-PRICING_BATCH:]
            entering = entering[best]
        active = np.union1d(active, entering)
    x = np.zeros(n)
    x[active] = res.x
    return certify(lp, x, res.value, res.dual, rounds=rounds, columns=active.size)
