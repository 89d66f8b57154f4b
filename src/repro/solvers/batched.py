"""Batched multi-RHS solvers: one cached operator, S slices per call.

MemXCT memoizes one ray-tracing operator and reuses it every iteration
(paper Section 3.5); the same operator is equally reusable across every
*slice* of a 3D stack.  These solvers run the CG/SIRT/MLEM recurrences
on an ``(N, S)`` slab of ``S`` independent right-hand sides at once:
every forward/backprojection is a single multi-RHS SpMV
(:meth:`repro.core.MemXCTOperator.forward_batch`) that streams the
regular matrix data once for all ``S`` slices, replacing ``S``
per-slice Python round-trips per iteration.

**Bit-exactness.**  Column ``j`` of a batched solve is bit-identical
to the corresponding single-slice solve of ``Y[:, j]``: the batched
SpMV kernels reduce each column in the same order as their 1D
counterparts, elementwise slab arithmetic is the same scalar
arithmetic, and the per-column scalar reductions (dot products, norms)
are computed on contiguous column copies through the very same BLAS
calls the single-slice solvers issue.  ``tests/test_batched_solvers.py``
asserts this with ``np.array_equal``.

**Convergence masks.**  Columns converge independently: a column whose
stopping criterion fires is *frozen* — excluded from every subsequent
update via masked column indexing, so its final state is exactly the
state at its own stopping iteration, not ``num_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import SOLVER_ITERATIONS, add_count, span
from .base import ProjectionOperator, SolveResult, solve_span, solver_dtype

__all__ = [
    "BatchSolveResult",
    "cgls_batch",
    "sirt_batch",
    "mlem_batch",
    "forward_batch",
    "adjoint_batch",
]

_EPS = 1e-12  # MLEM ratio guard, matching repro.solvers.mlem


def forward_batch(op: ProjectionOperator, x: np.ndarray) -> np.ndarray:
    """``Y = A X`` over an ``(num_pixels, S)`` slab.

    Uses the operator's native multi-RHS path when it has one and falls
    back to a per-column loop otherwise, so any
    :class:`~repro.solvers.base.ProjectionOperator` (including the
    distributed one) can drive the batched solvers.
    """
    if hasattr(op, "forward_batch"):
        return op.forward_batch(x)
    return np.stack([op.forward(x[:, j]) for j in range(x.shape[1])], axis=1)


def adjoint_batch(op: ProjectionOperator, y: np.ndarray) -> np.ndarray:
    """``X = A^T Y`` over an ``(num_rays, S)`` slab (loop fallback)."""
    if hasattr(op, "adjoint_batch"):
        return op.adjoint_batch(y)
    return np.stack([op.adjoint(y[:, j]) for j in range(y.shape[1])], axis=1)


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """``out[j] = rows[j] @ rows[j]`` over a column-contiguous ``(S, n)`` slab.

    Each row is one solve column, contiguous in memory, so the BLAS
    call is identical (operands and summation path) to the single-slice
    solver's ``float(s @ s)``.  That is what makes the recurrence
    scalars, and hence the whole solve, bit-exact per column.
    """
    return np.array([float(row @ row) for row in rows], dtype=np.float64)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Per-row 2-norms of an ``(S, n)`` slab (see :func:`_row_dots`)."""
    return np.array([float(np.linalg.norm(row)) for row in rows], dtype=np.float64)


def _column_norms(slab: np.ndarray) -> np.ndarray:
    """Per-column 2-norms of an ``(n, S)`` slab, via one transposed copy."""
    return _row_norms(np.ascontiguousarray(slab.T))


def _apply_rows(apply, op: ProjectionOperator, rows: np.ndarray, work) -> np.ndarray:
    """``apply(op, rows.T).T`` as a column-contiguous slab of dtype ``work``.

    ``rows.T`` is the ``(n, S)`` view the batched operators take; the
    result is transposed and cast back in one copy.
    """
    return np.ascontiguousarray(apply(op, rows.T).T, dtype=work)


@dataclass
class BatchSolveResult:
    """Outcome of one batched multi-RHS solve.

    ``X`` holds one reconstruction per column.  The convergence
    histories are ``(recorded, S)`` arrays — rows past a column's own
    ``iterations[j]`` repeat its frozen final value; :meth:`column`
    truncates them when adapting one column to a
    :class:`~repro.solvers.base.SolveResult`.
    """

    X: np.ndarray  # (num_pixels, S)
    iterations: np.ndarray  # (S,) iterations each column actually ran
    residual_norms: np.ndarray  # (recorded, S)
    solution_norms: np.ndarray  # (recorded, S)
    converged: np.ndarray  # (S,) bool
    stop_reasons: list[str] = field(default_factory=list)

    @property
    def num_rhs(self) -> int:
        return self.X.shape[1]

    def column(self, j: int) -> SolveResult:
        """View column ``j`` as a single-slice :class:`SolveResult`."""
        keep = int(self.iterations[j]) + 1
        result = SolveResult(
            x=np.ascontiguousarray(self.X[:, j]),
            iterations=int(self.iterations[j]),
            residual_norms=[float(v) for v in self.residual_norms[:keep, j]],
            solution_norms=[float(v) for v in self.solution_norms[:keep, j]],
            converged=bool(self.converged[j]),
            stop_reason=self.stop_reasons[j] if self.stop_reasons else "",
        )
        return result


class _History:
    """Per-iteration (S,) norm records, frozen columns carried forward."""

    def __init__(self, residual0: np.ndarray, solution0: np.ndarray):
        self.residual = [residual0]
        self.solution = [solution0]

    def record(self, active: np.ndarray, residual: np.ndarray, solution: np.ndarray):
        prev_r, prev_s = self.residual[-1], self.solution[-1]
        self.residual.append(np.where(active, residual, prev_r))
        self.solution.append(np.where(active, solution, prev_s))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.residual), np.asarray(self.solution)


def _slab(y: np.ndarray, num_rows: int, what: str, dtype=np.float64) -> np.ndarray:
    slab = np.asarray(y, dtype=dtype)
    if slab.ndim != 2:
        raise ValueError(f"{what} must be an (N, S) slab, got shape {slab.shape}")
    if slab.shape[0] != num_rows:
        raise ValueError(f"{what} has {slab.shape[0]} rows, expected {num_rows}")
    return slab


def _batch_iteration(solver: str, it: int, active: int, batch: int) -> span:
    """Span + truthful iteration accounting for one batched iteration.

    ``solver.iterations`` counts *logical per-slice iterations*: a
    batched iteration advancing ``active`` columns is ``active``
    single-slice iterations' worth of work.
    """
    add_count(SOLVER_ITERATIONS, active)
    return span("solver.iteration", solver=solver, iteration=it, batch=batch)


def cgls_batch(
    op: ProjectionOperator,
    Y: np.ndarray,
    num_iterations: int = 30,
    X0: np.ndarray | None = None,
    tolerance: float = 0.0,
    callback=None,
) -> BatchSolveResult:
    """Batched CGLS over an ``(num_rays, S)`` measurement slab.

    Each column runs the exact textbook recurrence of
    :func:`repro.solvers.cgls` — same operators, same scalar
    reductions — and freezes independently when its per-column gradient
    tolerance ``||A^T r_j|| <= tolerance * ||A^T y_j||`` fires.
    """
    work = solver_dtype(op)
    Y = _slab(Y, op.num_rays, "measurement slab", work)
    S = Y.shape[1]

    with solve_span("cg", num_iterations=num_iterations, batch=S):
        # Column-contiguous work slabs: row j of each (S, n) array is
        # solve column j, so per-column reductions need no copies, and
        # while every column is active the updates run on whole slabs.
        X = (
            np.zeros((S, op.num_pixels), dtype=work)
            if X0 is None
            else _slab(X0, op.num_pixels, "initial slab", work).T.copy()
        )
        R = Y.T.copy()
        R -= _apply_rows(forward_batch, op, X, work)
        G = _apply_rows(adjoint_batch, op, R, work)
        P = G.copy()
        gamma = _row_dots(G)
        gamma0 = gamma.copy()

        iterations = np.zeros(S, dtype=np.int64)
        converged = np.zeros(S, dtype=bool)
        reasons = [""] * S
        # Zero gradient at the start: x0 already solves that column's
        # normal equations (e.g. an all-zero sinogram column).
        for j in np.flatnonzero(gamma == 0.0):
            converged[j] = True
            reasons[j] = "zero gradient at start: x0 solves the normal equations"
        active = ~converged

        history = _History(_row_norms(R), _row_norms(X))

        for it in range(num_iterations):
            if not active.any():
                break
            with _batch_iteration("cg", it, int(active.sum()), S):
                act = np.flatnonzero(active)
                full = act.shape[0] == S
                Pa = P if full else P[act]
                Q = _apply_rows(forward_batch, op, Pa, work)
                qq = _row_dots(Q)
                # A search direction in null(A) can only follow from a
                # zero gradient in exact arithmetic; freeze the column
                # against the float edge case regardless.
                null = qq == 0.0
                if null.any():
                    for j in act[null]:
                        converged[j] = True
                        reasons[j] = "search direction in null space"
                    active[act[null]] = False
                    keep = ~null
                    act, Pa, Q, qq = act[keep], Pa[keep], Q[keep], qq[keep]
                    full = False
                if act.shape[0] == 0:
                    break

                # The step scalars are computed in float64 (matching the
                # single-slice solver's python-float arithmetic) and then
                # cast to the work dtype, so the slab updates below use
                # exactly the scalars the per-column solver would.
                alpha = (gamma[act] / qq).astype(work)[:, None]
                Q *= alpha
                if full:
                    X += alpha * P
                    R -= Q
                    Ra = R
                else:
                    X[act] += alpha * Pa
                    R[act] -= Q
                    Ra = R[act]
                Gact = _apply_rows(adjoint_batch, op, Ra, work)
                gamma_new = _row_dots(Gact)
                beta = (gamma_new / gamma[act]).astype(work)[:, None]
                # p = s + beta * p, with IEEE addition commuting exactly.
                if full:
                    P *= beta
                    P += Gact
                else:
                    P[act] = Gact + beta * Pa
                gamma[act] = gamma_new

                iterations[act] = it + 1
                history.record(active, _row_norms(R), _row_norms(X))

            if callback is not None:
                callback(it + 1, X.T, active.copy())

            if tolerance > 0.0:
                done = active & (gamma <= (tolerance**2) * gamma0)
                for j in np.flatnonzero(done):
                    converged[j] = True
                    reasons[j] = "gradient tolerance reached"
                active &= ~done

            exact = active & (gamma == 0.0)
            for j in np.flatnonzero(exact):
                converged[j] = True
                reasons[j] = "exact solution reached"
            active &= ~exact

    res_hist, sol_hist = history.arrays()
    for j in range(S):
        if not reasons[j]:
            reasons[j] = "iteration budget exhausted"
    return BatchSolveResult(
        X=X.T,
        iterations=iterations,
        residual_norms=res_hist,
        solution_norms=sol_hist,
        converged=converged,
        stop_reasons=reasons,
    )


def _safe_reciprocal(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)  # preserves the solver's work dtype
    nonzero = v != 0
    out[nonzero] = 1.0 / v[nonzero]
    return out


def sirt_batch(
    op: ProjectionOperator,
    Y: np.ndarray,
    num_iterations: int = 45,
    X0: np.ndarray | None = None,
    relaxation: float = 1.0,
    nonnegativity: bool = False,
    tolerance: float = 0.0,
    callback=None,
) -> BatchSolveResult:
    """Batched SIRT over an ``(num_rays, S)`` slab.

    With ``tolerance == 0`` (the single-slice solver's only mode) every
    column runs the full budget and is bit-identical to
    :func:`repro.solvers.sirt`.  ``tolerance > 0`` freezes a column
    once its relative residual ``||r_j|| <= tolerance * ||y_j||``.
    """
    work = solver_dtype(op)
    Y = _slab(Y, op.num_rays, "measurement slab", work)
    S = Y.shape[1]

    X = (
        np.zeros((op.num_pixels, S), dtype=work)
        if X0 is None
        else _slab(X0, op.num_pixels, "initial slab", work).copy()
    )

    if hasattr(op, "row_sums") and hasattr(op, "col_sums"):
        row_sums = np.asarray(op.row_sums(), dtype=work)
        col_sums = np.asarray(op.col_sums(), dtype=work)
    else:
        row_sums = np.asarray(op.forward(np.ones(op.num_pixels)), dtype=work)
        col_sums = np.asarray(op.adjoint(np.ones(op.num_rays)), dtype=work)
    r_inv = _safe_reciprocal(row_sums)[:, None]
    c_inv = _safe_reciprocal(col_sums)[:, None]

    Resid = Y - np.asarray(forward_batch(op, X), dtype=work)
    ynorm = _column_norms(Y)

    iterations = np.zeros(S, dtype=np.int64)
    converged = np.zeros(S, dtype=bool)
    reasons = [""] * S
    active = np.ones(S, dtype=bool)
    history = _History(_column_norms(Resid), _column_norms(X))

    with solve_span("sirt", num_iterations=num_iterations, batch=S):
        for it in range(num_iterations):
            if not active.any():
                break
            with _batch_iteration("sirt", it, int(active.sum()), S):
                update = c_inv * np.asarray(
                    adjoint_batch(op, r_inv * Resid), dtype=work
                )
                act = np.flatnonzero(active)
                X[:, act] += relaxation * update[:, act]
                if nonnegativity:
                    # X[:, act] is a fancy-index copy; assign back.
                    X[:, act] = np.maximum(X[:, act], 0.0)
                # Frozen columns recompute to the same bits (the kernel
                # is deterministic on unchanged inputs), so the full
                # batched forward stays per-column exact.
                Resid = Y - np.asarray(forward_batch(op, X), dtype=work)

                iterations[act] = it + 1
                rnorm = _column_norms(Resid)
                history.record(active, rnorm, _column_norms(X))

            if callback is not None:
                callback(it + 1, X, active.copy())

            if tolerance > 0.0:
                done = active & (rnorm <= tolerance * ynorm)
                for j in np.flatnonzero(done):
                    converged[j] = True
                    reasons[j] = "residual tolerance reached"
                active &= ~done

    res_hist, sol_hist = history.arrays()
    for j in range(S):
        if not reasons[j]:
            reasons[j] = "iteration budget exhausted"
    return BatchSolveResult(
        X=X,
        iterations=iterations,
        residual_norms=res_hist,
        solution_norms=sol_hist,
        converged=converged,
        stop_reasons=reasons,
    )


def mlem_batch(
    op: ProjectionOperator,
    Y: np.ndarray,
    num_iterations: int = 50,
    X0: np.ndarray | None = None,
    tolerance: float = 0.0,
    callback=None,
) -> BatchSolveResult:
    """Batched MLEM over a non-negative ``(num_rays, S)`` slab.

    Column ``j`` with ``tolerance == 0`` is bit-identical to
    :func:`repro.solvers.mlem`; ``tolerance > 0`` freezes a column at
    relative residual ``||y_j - A x_j|| <= tolerance * ||y_j||``.
    """
    work = solver_dtype(op)
    Y = _slab(Y, op.num_rays, "measurement slab", work)
    if (Y < 0).any():
        raise ValueError("MLEM requires non-negative measurements")
    S = Y.shape[1]

    if X0 is None:
        X = np.ones((op.num_pixels, S), dtype=work)
    else:
        X = _slab(X0, op.num_pixels, "initial slab", work).copy()
        if (X <= 0).any():
            raise ValueError("MLEM initial estimate must be strictly positive")

    sensitivity = np.asarray(op.adjoint(np.ones(op.num_rays)), dtype=work)
    support = np.flatnonzero(sensitivity > _EPS)
    outside = np.flatnonzero(sensitivity <= _EPS)
    sens_col = sensitivity[support][:, None]

    Fwd = np.asarray(forward_batch(op, X), dtype=work)
    ynorm = _column_norms(Y)

    iterations = np.zeros(S, dtype=np.int64)
    converged = np.zeros(S, dtype=bool)
    reasons = [""] * S
    active = np.ones(S, dtype=bool)
    history = _History(_column_norms(Y - Fwd), _column_norms(X))

    with solve_span("mlem", num_iterations=num_iterations, batch=S):
        for it in range(num_iterations):
            if not active.any():
                break
            with _batch_iteration("mlem", it, int(active.sum()), S):
                act = np.flatnonzero(active)
                Ratio = np.zeros_like(Y)
                positive = Fwd > _EPS
                Ratio[positive] = Y[positive] / Fwd[positive]
                Back = np.asarray(adjoint_batch(op, Ratio), dtype=work)
                X[np.ix_(support, act)] *= (Back[support] / sens_col)[:, act]
                if outside.shape[0]:
                    X[np.ix_(outside, act)] = 0.0

                Fwd = np.asarray(forward_batch(op, X), dtype=work)
                iterations[act] = it + 1
                rnorm = _column_norms(Y - Fwd)
                history.record(active, rnorm, _column_norms(X))

            if callback is not None:
                callback(it + 1, X, active.copy())

            if tolerance > 0.0:
                done = active & (rnorm <= tolerance * ynorm)
                for j in np.flatnonzero(done):
                    converged[j] = True
                    reasons[j] = "residual tolerance reached"
                active &= ~done

    res_hist, sol_hist = history.arrays()
    for j in range(S):
        if not reasons[j]:
            reasons[j] = "iteration budget exhausted"
    return BatchSolveResult(
        X=X,
        iterations=iterations,
        residual_norms=res_hist,
        solution_norms=sol_hist,
        converged=converged,
        stop_reasons=reasons,
    )
