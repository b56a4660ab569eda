"""Block low-rank (BLR) compression of frontal factor panels.

MUMPS' BLR feature compresses the off-diagonal panels of large frontal
matrices; the paper keeps it enabled throughout ("low-rank compression in
the sparse solver MUMPS is enabled for all the benchmarks").  The variant
reproduced is **FSCU** (Factor, Solve, Compress, Update — the order of the
steps): the contribution block is computed from the *exact* panels, and
the stored copies of ``L21``/``U12`` are then compressed — factor storage
shrinks, update accuracy is untouched, solve accuracy is bounded by the
compression tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.dense.triangular import RowBlockKernel
from repro.hmatrix.rk import RkMatrix
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class BLRConfig:
    """BLR compression settings for the multifrontal solver.

    Parameters
    ----------
    enabled:
        Master switch (the paper's runs keep it on except for reference
        rows of Table II).
    tol:
        Relative compression tolerance ε (paper: 1e-3 pipe, 1e-4
        industrial).
    min_panel:
        Panels with either dimension below this are stored dense
        (compression overhead would not pay off).
    max_rank_fraction:
        A compressed panel is only kept when its rank is below this
        fraction of the full rank (otherwise dense storage is smaller).
    """

    enabled: bool = True
    tol: float = 1e-3
    min_panel: int = 64
    max_rank_fraction: float = 0.5

    def __post_init__(self):
        if self.tol <= 0:
            raise ConfigurationError("BLR tol must be positive")
        if self.min_panel < 1:
            raise ConfigurationError("min_panel must be >= 1")
        if not 0.0 < self.max_rank_fraction <= 1.0:
            raise ConfigurationError("max_rank_fraction must be in (0, 1]")


Panel = Union[np.ndarray, RkMatrix]


def rank_tested(shape, config: Optional[BLRConfig]) -> bool:
    """Whether :func:`compress_panel` runs its rank test on such a panel."""
    return (config is not None and config.enabled
            and min(shape) >= config.min_panel)


def compress_panel(panel: np.ndarray, config: Optional[BLRConfig]) -> Panel:
    """Compress a factor panel if the configuration allows and it pays off.

    Returns the dense array itself (same object) or an :class:`RkMatrix`,
    kept when the numerical rank ``r = #{σ > tol·σ₀}`` stores fewer bytes
    (``(m + n)·r < m·n``, tighter than any fixed rank fraction for
    nearly-square panels) and ``r ≤ max_rank_fraction·min(m, n)``.

    Most panels fail that test, so it is decided from the singular
    *values* and vectors are computed only for a kept panel.  The values
    are the eigenvalues ``σ²`` of the short-side Gram matrix (``A Aᴴ`` for
    ``m ≤ n``: one GEMM, one ``eigvalsh`` of order ``m``); a kept panel is
    the projection ``U (Uᴴ A)`` onto its top-``r`` eigenvectors, whose
    error is the discarded tail.  The Gram eigenvalues carry an absolute
    error of a few ``max(m, n)·eps·σ₀²``, so they resolve the threshold
    ``tol²·σ₀²`` only while ``tol² ≥ 100·max(m, n)·eps`` (``tol ≳ 5e-6``
    for 960 float64 columns, never for float32 at ``tol = 1e-3``); outside
    that bound the panel's own singular values decide and a kept panel is
    decomposed by :meth:`RkMatrix.from_dense`.
    """
    if not rank_tested(panel.shape, config):
        return panel
    m, n = panel.shape
    tol = config.tol
    gram = None
    if tol * tol >= 100 * max(m, n) * np.finfo(panel.dtype).eps:
        gram = (panel @ panel.conj().T if m <= n
                else panel.conj().T @ panel)
        values, cut = np.linalg.eigvalsh(gram)[::-1], tol * tol
    else:
        values, cut = np.linalg.svd(panel, compute_uv=False), tol
    rank = (int(np.count_nonzero(values > cut * values[0]))
            if values[0] > 0 else 0)
    if (m + n) * rank >= m * n or rank > config.max_rank_fraction * min(m, n):
        return panel
    if gram is None:
        return RkMatrix.from_dense(panel, tol, max_rank=rank)
    # eigh sorts ascending: the top-r eigenvectors, largest first
    basis = np.linalg.eigh(gram)[1][:, :-rank - 1:-1]
    if m <= n:
        u, v = basis, panel.T @ basis.conj()
    else:
        u, v = panel @ basis, basis.conj()
    return RkMatrix(np.ascontiguousarray(u), np.ascontiguousarray(v))


def panel_nbytes(panel: Panel) -> int:
    """Stored bytes of a (possibly compressed) panel."""
    return panel.nbytes


def panel_update(kern: RowBlockKernel, c: np.ndarray, panel: Panel,
                 b: np.ndarray, trans: bool = False) -> None:
    """``c ← c − op(panel) b`` in place on row blocks, dense or Rk panel."""
    if isinstance(panel, RkMatrix):
        kern.update_rk(c, panel.u, panel.v, b, trans)
    else:
        kern.update(c, panel, b, trans)
