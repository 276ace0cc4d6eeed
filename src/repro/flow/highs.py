"""A basis-aware drop-in for ``scipy.optimize.linprog(method="highs*")``.

SciPy's :func:`scipy.optimize.linprog` neither takes nor returns a
simplex basis, so a chain of near-identical LPs (a replay window whose
steps differ by one demand delta) re-solves every link from scratch.
:func:`linprog` here drives the HiGHS binding SciPy bundles,
``scipy.optimize._highspy._core._Highs``, directly. It mirrors SciPy's
``_linprog_highs``: the same input cleaning, ``A_ub`` rows stacked above
``A_eq`` rows, the same HiGHS options and the same post-solve
feasibility check. A solve without a basis therefore returns the same
``x`` and ``nit``, bit for bit, as SciPy's own. It adds one argument and
one result field:

- ``basis=``: a basis from an earlier result on an LP with the same rows
  and columns. HiGHS then skips presolve and restarts simplex from it.
- ``result.basis``: the optimal basis, or ``None`` when the solve failed
  or left no valid basis. Hand it back unchanged: the object cannot be
  pickled, and converting it to arrays and back adds a per-solve cost
  that buys nothing when the next solve runs in the same process.

The binding is a private SciPy module. ``pyproject.toml`` pins a SciPy
release that ships it, and a missing binding fails at import.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy import _core
from scipy.optimize._linprog_highs import (
    _highs_to_scipy_status_message,
    _replace_inf,
)
from scipy.optimize._linprog_util import (
    _check_result,
    _LPProblem,
    _parse_linprog,
)
from scipy.sparse import csc_array, vstack

#: ``method`` -> HiGHS ``solver`` option, as SciPy maps them (``None``
#: leaves the choice to HiGHS).
_SOLVERS = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}

#: SciPy's default ``tol`` for the post-solve feasibility check.
_CHECK_TOL = 1e-9


def _options(solver: "str | None"):
    """The HiGHS options SciPy's ``_linprog_highs`` sets by default."""
    options = _core.HighsOptions()
    options.presolve = "on"
    if solver is not None:
        options.solver = solver
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = (
        _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    return options


def linprog(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds=(0, None),
    method: str = "highs",
    basis=None,
) -> OptimizeResult:
    """Minimize ``c @ x`` with HiGHS, optionally from a starting basis.

    Arguments and result fields follow :func:`scipy.optimize.linprog`
    for the ``highs``, ``highs-ds`` and ``highs-ipm`` methods: ``x``,
    ``fun``, ``slack``, ``con``, ``status``, ``success``, ``message``,
    ``nit`` and ``crossover_nit``, plus ``basis`` (see the module
    docstring). A ``basis`` that does not fit the LP raises
    :class:`ValueError`.
    """
    try:
        solver = _SOLVERS[method.lower()]
    except KeyError:
        raise ValueError(
            f"unknown HiGHS method {method!r}; expected one of {sorted(_SOLVERS)}"
        ) from None
    lp, _ = _parse_linprog(
        _LPProblem(c, A_ub, b_ub, A_eq, b_eq, bounds, None, None), None, method
    )
    c, A_ub, b_ub, A_eq, b_eq, bounds = lp[:6]
    lb, ub = bounds.T.copy()
    lhs = _replace_inf(np.concatenate((np.full_like(b_ub, -np.inf), b_eq)))
    rhs = _replace_inf(np.concatenate((b_ub, b_eq)))
    matrix = csc_array(vstack((A_ub, A_eq)))

    model = _core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(c)
    model.num_row_ = model.a_matrix_.num_row_ = len(rhs)
    model.a_matrix_.format_ = _core.MatrixFormat.kColwise
    model.col_cost_ = c
    model.col_lower_ = _replace_inf(lb)
    model.col_upper_ = _replace_inf(ub)
    model.row_lower_ = lhs
    model.row_upper_ = rhs
    model.a_matrix_.start_ = matrix.indptr
    model.a_matrix_.index_ = matrix.indices
    model.a_matrix_.value_ = matrix.data

    highs = _core._Highs()
    highs.passOptions(_options(solver))
    error = _core.HighsStatus.kError
    if highs.passModel(model) == error:
        status = _core.HighsModelStatus.kModelError
        return _result(None, status, highs.modelStatusToString(status), lp)
    if basis is not None and highs.setBasis(basis) == error:
        raise ValueError("basis does not fit this LP")
    run_status = highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    counts = {
        "nit": info.simplex_iteration_count or info.ipm_iteration_count,
        "crossover_nit": info.crossover_iteration_count,
    }
    if run_status == error or status != _core.HighsModelStatus.kOptimal:
        message = highs.modelStatusToString(status)
        return _result(None, status, message, lp, **counts)
    solution = highs.getSolution()
    optimal_basis = highs.getBasis()
    slack = rhs - solution.row_value
    return _result(
        np.array(solution.col_value),
        status,
        highs.modelStatusToString(status),
        lp,
        fun=info.objective_function_value,
        slack=np.array(slack[: len(b_ub)]),
        con=np.array(slack[len(b_ub) :]),
        basis=optimal_basis if optimal_basis.valid else None,
        **counts,
    )


def _result(
    x,
    highs_status,
    highs_message: str,
    lp,
    fun=None,
    slack=None,
    con=None,
    basis=None,
    nit: int = 0,
    crossover_nit: "int | None" = None,
) -> OptimizeResult:
    """SciPy's status mapping and feasibility check, then the result."""
    status, message = _highs_to_scipy_status_message(highs_status, highs_message)
    status, message = _check_result(
        x, fun, status, slack, con, lp.bounds, _CHECK_TOL, message, None
    )
    return OptimizeResult(
        x=x,
        fun=fun,
        slack=slack,
        con=con,
        status=status,
        success=status == 0,
        message=message,
        nit=nit,
        crossover_nit=crossover_nit,
        basis=basis,
    )
