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

from repro.hmatrix.rk import RkMatrix, rank_first
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
    *values* and vectors are computed only for a kept panel — the
    rank-first rule of :func:`repro.hmatrix.rk.rank_first`, which also
    states when the Gram spectrum may stand in for the SVD's.
    """
    if not rank_tested(panel.shape, config):
        return panel
    m, n = panel.shape
    factors = rank_first(
        panel, config.tol,
        keep=lambda rank: ((m + n) * rank < m * n
                           and rank <= config.max_rank_fraction * min(m, n)),
    )
    return panel if factors is None else RkMatrix(*factors)


def panel_nbytes(panel: Panel) -> int:
    """Stored bytes of a (possibly compressed) panel."""
    return panel.nbytes

