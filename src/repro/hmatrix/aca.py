"""Adaptive Cross Approximation (ACA) with partial pivoting.

ACA builds a low-rank approximation of an admissible block from a handful
of its rows and columns, never materialising the block — this is HMAT's
(and our) compressed-assembly workhorse for BEM kernels.  The partial
pivoting variant picks the next row from the largest entry of the previous
cross column and stops when the new cross is small relative to the running
Frobenius-norm estimate of the approximation.

The classic stopping criterion is heuristic and can fire early on large
blocks (components the crosses never touched stay invisible), so this
implementation adds **residual verification by random column probing**:
when the cross criterion triggers, a few unseen columns are evaluated
exactly; if their residual exceeds the tolerance, the worst probe column
is fed back as the next cross and iteration continues.

:func:`aca` takes lazy access through one accessor ``block(rows, cols)``
(used for kernel assembly); an explicit array ``a`` goes through the same
accessor as ``lambda r, c: a[r][:, c]``.

The factors live in two preallocated panels ``U (cap, m)``, ``V (cap, n)``
(doubled when full) so that each step is a handful of BLAS-2 calls on
``U[:k]``, ``V[:k]`` whatever the rank; a straight per-rank loop of the
same algorithm is kept in ``tests/test_aca.py`` as the oracle.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.hmatrix.rk import RkMatrix
from repro.utils.errors import ConfigurationError


def aca(
    block: Callable[[object, object], np.ndarray],
    shape: Tuple[int, int],
    tol: float,
    max_rank: Optional[int] = None,
    dtype=np.float64,
    verify_columns: int = 4,
) -> RkMatrix:
    """ACA with partial pivoting and probed-residual verification.

    Parameters
    ----------
    block:
        ``block(rows, cols)`` returns the dense sub-block of the block to
        compress; each argument is a slice or an integer index array in
        block-local numbering.  It is asked for one whole row or column
        per cross and for all probe columns of a verification round at
        once — nothing is ever evaluated twice.
    shape:
        Block shape ``(m, n)``.
    tol:
        Relative tolerance: iteration stops once both the cross criterion
        *and* the random-column residual probe are below ``tol`` times the
        running norm estimates.
    max_rank:
        Hard rank cap (defaults to ``min(m, n)``, i.e. until exact).
    dtype:
        Factor dtype (promoted if the block's values need it).
    verify_columns:
        Number of random columns probed exactly before accepting
        convergence (0 disables verification — the textbook heuristic).

    Returns
    -------
    RkMatrix
        The compressed block.
    """
    if len(shape) != 2:
        raise ConfigurationError(f"block shape {shape} is not 2-D")
    m, n = shape
    if m <= 0 or n <= 0:
        raise ConfigurationError("block must be non-empty")
    cap = min(m, n) if max_rank is None else min(max_rank, m, n)
    u = np.empty((0, m), dtype=dtype)
    v = np.empty((0, n), dtype=dtype)
    k = 0
    norm2_est = 0.0
    used_rows = np.zeros(m, dtype=bool)
    used_cols = np.zeros(n, dtype=bool)
    all_rows, all_cols = slice(0, m), slice(0, n)
    rng = np.random.default_rng((m * 0x9E3779B1 + n) & 0x7FFFFFFF)
    i = 0  # first pivot row
    forced = None  # (column, its residual) of a failed verification probe

    def residual_row(row: int) -> np.ndarray:
        r = block(slice(row, row + 1), all_cols)[0]
        return r - u[:k, row] @ v[:k] if k else np.array(r)

    while k < cap:
        if forced is not None:
            # a failed verification probe: cross directly on that column
            j, c = forced
            forced = None
            row_choices = np.abs(c)
            row_choices[used_rows] = -1.0
            i = int(np.argmax(row_choices))
            r = residual_row(i)
            pivot = r[j]
            if pivot == 0:
                break
        else:
            used_rows[i] = True
            r = residual_row(i)
            # pivot column: largest residual entry among unused columns
            r_search = np.abs(r)
            r_search[used_cols] = 0.0
            j = int(np.argmax(r_search))
            pivot = r[j]
            if pivot == 0:
                # row exhausted; try another unused row, else stop
                if used_rows.all():
                    break
                i = int(np.argmin(used_rows))
                continue
            c = block(all_rows, slice(j, j + 1))[:, 0]
            c = c - v[:k, j] @ u[:k] if k else np.array(c)
        used_rows[i] = True
        used_cols[j] = True
        r = r / pivot
        if k == len(u):
            size = min(cap, max(16, 2 * k))
            u, v = _grown(u, size, c), _grown(v, size, r)
        nu = float(np.linalg.norm(c))
        nv = float(np.linalg.norm(r))
        # ‖Σ u vᵀ‖² estimate: the new cross plus its products with the old
        norm2_est += (nu * nv) ** 2 + 2.0 * float(
            np.abs(u[:k] @ c.conj()) @ np.abs(v[:k] @ r.conj()))
        u[k], v[k] = c, r
        k += 1

        converged = nu * nv <= tol * np.sqrt(max(norm2_est, 1e-300))
        if converged and verify_columns > 0 and k < cap:
            # exact residual probe on random unseen columns, one fetch
            pool = np.flatnonzero(~used_cols)
            if len(pool):
                probes = rng.choice(
                    pool, size=min(verify_columns, len(pool)), replace=False
                )
                exact = block(all_rows, probes)
                resid = exact - u[:k].T @ v[:k, probes]
                norms = np.linalg.norm(resid, axis=0)
                worst = int(np.argmax(norms))
                ref = np.sqrt(max(float(np.linalg.norm(exact)) ** 2, 1e-300))
                if norms[worst] > tol * ref:
                    forced = (int(probes[worst]), resid[:, worst])
                    continue
        if converged:
            break
        # next pivot row: largest entry of the new column among unused rows
        u_search = np.abs(c)
        u_search[used_rows] = -1.0
        i = int(np.argmax(u_search))

    if k == 0:
        return RkMatrix.zeros(m, n, dtype=dtype)
    return RkMatrix(np.ascontiguousarray(u[:k].T),
                    np.ascontiguousarray(v[:k].T))


def _grown(panel: np.ndarray, size: int, like: np.ndarray) -> np.ndarray:
    """``panel`` with room for ``size`` rows, in a dtype that holds ``like``."""
    out = np.empty((size, panel.shape[1]),
                   dtype=np.result_type(panel, like))
    out[:len(panel)] = panel
    return out
