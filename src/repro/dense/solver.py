"""The :class:`DenseSolver` facade (SPIDO-equivalent API).

The coupling algorithms only need two dense building blocks (paper §II-D):
*dense factorization* of the Schur complement and *dense solve*.  This
facade picks the right blocked kernel from the matrix's structure,
registers the factor storage with a :class:`~repro.memory.MemoryTracker`,
and returns a :class:`DenseFactorization` handle with ``solve``/``free``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dense.blocked_lu import blocked_lu, lu_solve_perm, piv_to_perm
from repro.dense.cholesky import blocked_cholesky, cholesky_solve
from repro.dense.ldlt import blocked_ldlt, ldlt_solve
from repro.dense.triangular import DEFAULT_BLOCK
from repro.memory.tracker import MemoryTracker
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_square

_METHODS = ("auto", "lu", "ldlt", "cholesky")


class DenseFactorization:
    """Handle on a factored dense matrix; call :meth:`solve`, then :meth:`free`."""

    def __init__(self, method: str, data: tuple, n: int, dtype, block_size: int,
                 allocation=None):
        self.method = method
        self._data = data
        self.n = n
        self.dtype = np.dtype(dtype)
        self.block_size = block_size
        self._allocation = allocation
        self._freed = False

    @property
    def factor_bytes(self) -> int:
        """Logical bytes of the stored factors."""
        total = 0
        for part in self._data:
            if isinstance(part, np.ndarray):
                total += part.nbytes
        return total

    def solve(self, b: np.ndarray, trans: int = 0) -> np.ndarray:
        """Solve ``A x = b`` (``trans=1`` solves ``Aᵀ x = b``, LU only)."""
        if self._freed:
            raise RuntimeError("factorization has been freed")
        if self.method == "lu":
            lu, perm = self._data
            return lu_solve_perm(lu, perm, b, trans, self.block_size)
        if trans:
            raise ConfigurationError(
                f"transpose solve is only supported for LU, not {self.method}"
            )
        if self.method == "ldlt":
            l, d = self._data
            return ldlt_solve(l, d, b, block_size=self.block_size)
        l, = self._data
        return cholesky_solve(l, b, block_size=self.block_size)

    def free(self) -> None:
        """Release the factors (and their tracked memory)."""
        if not self._freed:
            self._freed = True
            self._data = ()
            if self._allocation is not None:
                self._allocation.free()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseFactorization({self.method}, n={self.n}, dtype={self.dtype})"


class DenseSolver:
    """Uncompressed blocked dense direct solver (the SPIDO role).

    Parameters
    ----------
    tracker:
        Memory tracker charged with the factor storage (category
        ``"dense_factor"``).
    block_size:
        Tile width of the blocked kernels.
    method:
        ``"auto"`` picks LDLᵀ for symmetric inputs and LU otherwise;
        ``"cholesky"`` must be requested explicitly (requires SPD/HPD).
    """

    def __init__(
        self,
        tracker: Optional[MemoryTracker] = None,
        block_size: int = DEFAULT_BLOCK,
        method: str = "auto",
    ) -> None:
        if method not in _METHODS:
            raise ConfigurationError(
                f"method must be one of {_METHODS}, got {method!r}"
            )
        if block_size < 1:
            raise ConfigurationError("block_size must be >= 1")
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self.block_size = block_size
        self.method = method

    def factorize(
        self, a: np.ndarray, symmetric: Optional[bool] = None
    ) -> DenseFactorization:
        """Factor ``a``; the input array is not modified.

        ``symmetric`` may be passed to skip the symmetry probe (the callers
        in :mod:`repro.core` know their block structure).
        """
        a = np.asarray(a)
        check_square(a, "a")
        method = self.method
        if method == "auto":
            if symmetric is None:
                symmetric = bool(
                    a.shape[0] <= 2048
                    and np.allclose(a, a.T, rtol=1e-12, atol=1e-12)
                )
            method = "ldlt" if symmetric else "lu"

        if method == "lu":
            lu, piv = blocked_lu(a, block_size=self.block_size)
            data = (lu, piv_to_perm(piv))  # one gather per solve, no swaps
        elif method == "ldlt":
            data = blocked_ldlt(a, block_size=self.block_size)
        else:
            data = (blocked_cholesky(a, block_size=self.block_size),)

        fact = DenseFactorization(
            method, data, a.shape[0], a.dtype, self.block_size
        )
        fact._allocation = self.tracker.allocate(
            fact.factor_bytes, category="dense_factor",
            label=f"dense {method} n={a.shape[0]}",
        )
        return fact
