"""Block low-rank (BLR) compression of frontal factor panels.

MUMPS' BLR feature compresses the off-diagonal panels of large frontal
matrices; the paper keeps it enabled throughout ("low-rank compression in
the sparse solver MUMPS is enabled for all the benchmarks").  Two variants
are reproduced (the standard BLR factorization taxonomy, after the order
of the Factor/Compress/Solve/Update steps):

* **FSCU** (the historical default): the contribution block is computed
  from the *exact* panels, and the stored copies of ``L21``/``U12`` are
  then compressed — factor storage shrinks, update accuracy is untouched,
  solve accuracy is bounded by the compression tolerance.
* **FCSU** (``compress_before_update``): large coupling panels are
  compressed *before* the contribution-block update, and the extend-add
  contribution is formed from the low-rank factors — ``O(q²r)`` instead of
  the ``O(pq²)`` dense GEMM — so compression enters the compute path, not
  just storage (see :mod:`repro.sparse.multifrontal`).  Update accuracy is
  then bounded by ``tol`` as well; panels below ``fcsu_min_panel`` (or
  whose rank test fails) fall back to the exact FSCU path bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.dense.triangular import RowBlockKernel
from repro.hmatrix.rk import RkMatrix
from repro.utils.errors import ConfigurationError

#: Environment overrides of the ``SolverConfig.front_*`` family when the
#: config leaves them at ``None``.
FRONT_COMPRESS_ENV = "REPRO_FRONT_COMPRESS"
FRONT_COMPRESS_MIN_ENV = "REPRO_FRONT_COMPRESS_MIN"

#: Default behind the env override.
DEFAULT_FRONT_COMPRESS_MIN = 192

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def resolve_front_compress(flag: Optional[bool]) -> bool:
    """Resolve the front-compression switch: explicit, env, else False."""
    if flag is not None:
        return bool(flag)
    env = os.environ.get(FRONT_COMPRESS_ENV, "").strip().lower()
    if env in _TRUTHY:
        return True
    if env in _FALSY or env == "":
        return False
    raise ValueError(
        f"${FRONT_COMPRESS_ENV} must be a boolean-ish value, got {env!r}"
    )


def resolve_front_compress_min(value: Optional[int]) -> int:
    """Resolve the FCSU/sampling size threshold: explicit, env, else 192."""
    if value is None:
        env = os.environ.get(FRONT_COMPRESS_MIN_ENV, "").strip()
        value = int(env) if env else DEFAULT_FRONT_COMPRESS_MIN
    value = int(value)
    if value < 1:
        raise ValueError(
            f"{FRONT_COMPRESS_MIN_ENV.lower()} resolved to {value}, "
            "must be >= 1"
        )
    return value


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
    compress_before_update:
        FCSU mode: compress large coupling panels *before* the
        contribution-block update and form the update from the low-rank
        factors (see module docstring).  Off, the historical FSCU
        behaviour is bit-identical.
    fcsu_min_panel:
        FCSU is only attempted on panels whose smaller dimension reaches
        this threshold; smaller panels take the exact FSCU path (their
        dense GEMM is cheap and the compression would not pay off).
    """

    enabled: bool = True
    tol: float = 1e-3
    min_panel: int = 64
    max_rank_fraction: float = 0.5
    compress_before_update: bool = False
    fcsu_min_panel: int = 192

    def __post_init__(self):
        if self.tol <= 0:
            raise ConfigurationError("BLR tol must be positive")
        if self.min_panel < 1:
            raise ConfigurationError("min_panel must be >= 1")
        if not 0.0 < self.max_rank_fraction <= 1.0:
            raise ConfigurationError("max_rank_fraction must be in (0, 1]")
        if self.fcsu_min_panel < 1:
            raise ConfigurationError("fcsu_min_panel must be >= 1")


Panel = Union[np.ndarray, RkMatrix]


def compress_panel(panel: np.ndarray, config: Optional[BLRConfig]) -> Panel:
    """Compress a factor panel if the configuration allows and it pays off.

    Returns either the original dense array or an :class:`RkMatrix`.
    """
    if config is None or not config.enabled:
        return panel
    m, n = panel.shape
    if min(m, n) < config.min_panel:
        return panel
    rk = RkMatrix.from_dense(panel, config.tol)
    # keep the compressed form only when it actually stores fewer bytes
    # (the byte break-even rank is m·n/(m+n), tighter than any fixed
    # rank fraction for nearly-square panels) and the rank cap holds
    if (
        rk.nbytes < panel.nbytes
        and rk.rank <= config.max_rank_fraction * min(m, n)
    ):
        return rk
    return panel


def panel_nbytes(panel: Panel) -> int:
    """Stored bytes of a (possibly compressed) panel."""
    if isinstance(panel, RkMatrix):
        return panel.nbytes
    return panel.nbytes


def panel_update(kern: RowBlockKernel, c: np.ndarray, panel: Panel,
                 b: np.ndarray, trans: bool = False) -> None:
    """``c ← c − op(panel) b`` in place on row blocks, dense or Rk panel."""
    if isinstance(panel, RkMatrix):
        kern.update_rk(c, panel.u, panel.v, b, trans)
    else:
        kern.update(c, panel, b, trans)


def panel_product(left: Panel, right: Panel) -> np.ndarray:
    """Dense ``left @ right`` formed through any low-rank factors.

    The FCSU contribution-block product: with ``left = U₁V₁ᵀ`` and
    ``right = U₂V₂ᵀ`` the product is assembled as ``U₁ (V₁ᵀU₂) V₂ᵀ`` —
    rank-sized inner products instead of the full dense GEMM.  Mixed
    dense/Rk pairs associate through the thin factor; the dense/dense
    case is the exact historical GEMM (bitwise-identical fallback).
    """
    if isinstance(left, RkMatrix) and isinstance(right, RkMatrix):
        core = left.v.T @ right.u
        return (left.u @ core) @ right.v.T
    if isinstance(left, RkMatrix):
        return left.u @ (left.v.T @ right)
    if isinstance(right, RkMatrix):
        return (left @ right.u) @ right.v.T
    return left @ right
