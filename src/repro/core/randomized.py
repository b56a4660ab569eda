"""Randomized sampling of Schur blocks (the paper's §VII future work).

The paper concludes: *"We will also investigate the possibility to produce
Schur complement blocks directly in a compressed form (using randomized
methods as in [27] ...)"*.  This module is that direction: instead of
materialising a dense block of the correction operator

.. math::

    K = A_{sv} A_{vv}^{-1} A_{sv}^T

and compressing it after the fact, each low-rank block of the hierarchical
Schur complement is built *directly* in compressed form by randomized
range sampling of ``K``, whose action (and transpose action) costs one
blocked sparse solve — so only ``rank + oversampling`` solve columns per
block are ever needed.  Compressed multi-solve with
``schur_assembly="randomized"`` samples the whole of ``K`` through
:func:`sample_border_plan`.

The adaptive rank loop (:func:`sample_schur_block_rk`) follows the standard
randomized range finder: probe columns estimate the residual
``‖(I − QQᵀ)Kω‖`` and the rank doubles until the relative residual drops
below the tolerance, or the rank cap says the block is not low-rank and
the caller takes the exact dense piece instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hmatrix.rk import RkMatrix


def _gaussian(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    omega = rng.standard_normal(shape)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        omega = omega + 1j * rng.standard_normal(shape)
    return omega.astype(dtype, copy=False)


class CorrectionSampler:
    """Applies ``K = A_sv A_vv⁻¹ A_svᵀ`` (and ``Kᵀ``) restricted to blocks.

    The transient workspace of each application is borrowed by
    ``mf.solve`` itself, so sampling stays under the MemoryTracker limit
    like every other phase that solves.
    """

    def __init__(self, mf, a_sv, exploit_sparsity: bool = True,
                 on_solve=None):
        self.mf = mf
        self.a_sv = a_sv.tocsr()
        self.a_sv_t = a_sv.T.tocsc()
        self.exploit_sparsity = exploit_sparsity
        self.on_solve = on_solve or (lambda: None)

    def apply(self, rows: np.ndarray, cols: np.ndarray,
              x: np.ndarray) -> np.ndarray:
        """``K[rows, cols] @ x`` via one blocked sparse solve."""
        rhs = self.a_sv_t[:, cols] @ x
        y = self.mf.solve(rhs, exploit_sparsity=False)
        self.on_solve()
        return self.a_sv[rows] @ y

    def apply_transpose(self, rows: np.ndarray, cols: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
        """``K[rows, cols]ᵀ @ x`` via one blocked transpose solve."""
        rhs = self.a_sv[rows].T @ x
        y = self.mf.solve_transpose(rhs)
        self.on_solve()
        return self.a_sv_t[:, cols].T @ y

    def dense_block_exact(self, rows: np.ndarray, cols: np.ndarray,
                          dtype) -> np.ndarray:
        """Exact ``K[rows, cols]`` through the sparse-RHS solve path.

        The dense fallback of the sampled pipeline (diagonal leaves, small
        quadrants, refused rank tests): the blocked multi-solve product
        ``A_sv A_vv⁻¹ A_svᵀ`` restricted to the block, including the
        sparse-RHS forward sweep when the factorization supports it.
        """
        rhs = np.asarray(self.a_sv_t[:, cols].todense(), dtype=dtype)
        y = self.mf.solve(rhs, exploit_sparsity=self.exploit_sparsity)
        self.on_solve()
        return self.a_sv[rows] @ y


def sample_schur_block_rk(
    sampler: CorrectionSampler,
    rows: np.ndarray,
    cols: np.ndarray,
    tol: float,
    rng: np.random.Generator,
    dtype,
    start_rank: int = 16,
    oversample: int = 8,
    n_probe: int = 4,
) -> Optional[RkMatrix]:
    """Adaptive randomized low-rank approximation of ``K[rows, cols]``.

    Returns ``U Vᵀ ≈ K[rows, cols]`` to relative Frobenius accuracy
    ``tol`` (estimated on Gaussian probe columns), or ``None`` when the
    rank test fails: the range finder runs with a rank cap of half the
    block dimension (beyond that a low-rank product stores more than the
    dense block and the sampling solves outnumber the blocked ones).  When
    the cap is reached without meeting ``tol`` the block is *not*
    numerically low-rank and the caller must take the dense fallback —
    returning ``None`` keeps that decision explicit.
    """
    m, n = len(rows), len(cols)
    cap = max(min(start_rank, m, n), min(m, n) // 2)
    rank = max(1, min(start_rank, cap))
    probes = _gaussian(rng, (n, n_probe), dtype)
    k_probes = sampler.apply(rows, cols, probes)
    probe_norm = float(np.linalg.norm(k_probes))
    if probe_norm == 0.0:
        return RkMatrix.zeros(m, n, dtype=dtype)

    while True:
        r = min(rank + oversample, min(m, n))
        omega = _gaussian(rng, (n, r), dtype)
        y = sampler.apply(rows, cols, omega)
        q, _ = np.linalg.qr(y)
        residual = k_probes - q @ (q.conj().T @ k_probes)
        rel = float(np.linalg.norm(residual)) / probe_norm
        if rel <= tol:
            break
        if r >= min(m, n) or rank >= cap:
            return None
        rank = min(2 * rank, cap)

    # V = (Qᵀ K)ᵀ = Kᵀ conj(Q); stored with a plain transpose so that the
    # block is exactly Q @ Vᵀ
    v = sampler.apply_transpose(rows, cols, np.conj(q))
    return RkMatrix(q, v)


def _sample_min_dim(start_rank: int, oversample: int) -> int:
    """Quadrant size below which sampling cannot beat one dense solve.

    A sampled quadrant pays the probe + range + transpose solves
    (``≳ 2·(rank + oversample)`` columns); the dense piece pays exactly
    ``n`` columns in one solve — sampling only wins with room to spare.
    """
    return max(64, 2 * (start_rank + oversample))


def sample_border_plan(hmatrix, mf, a_sv, rows: np.ndarray, cols: np.ndarray,
                       config, dtype, on_solve=None):
    """Pre-compress ``S[rows, cols] -= K[rows, cols]`` by sampling ``K``.

    The sampling body of compressed multi-solve with
    ``schur_assembly="randomized"``.  ``hmatrix`` is the Schur
    :class:`~repro.hmatrix.hmatrix.HMatrix`, ``mf`` a factorization of
    ``A_vv``.  Off-diagonal quadrants are sampled to ``config.epsilon``
    and truncated at the container tolerance; diagonal leaves, quadrants
    below the sampling floor and refused rank tests take the exact dense
    piece.  The generator is seeded from ``config.seed`` alone and
    consumed in the walk's fixed order, so the plan does not depend on
    worker count, backend or scheduling.

    Returns ``(plan, n_sampled, n_fallbacks)``; commit the plan on the
    real tree and flush.
    """
    sampler = CorrectionSampler(
        mf, a_sv, exploit_sparsity=config.exploit_sparse_rhs,
        on_solve=on_solve,
    )
    # the (seed, 0, 0) entropy is the stream recorded results were drawn from
    rng = np.random.default_rng([config.seed, 0, 0])
    start_rank = config.randomized_start_rank
    oversample = config.randomized_oversample

    def sample_rk(grows, gcols):
        return sample_schur_block_rk(
            sampler, grows, gcols, config.epsilon, rng, dtype,
            start_rank=start_rank, oversample=oversample,
        )

    def dense_piece(grows, gcols):
        return sampler.dense_block_exact(grows, gcols, dtype)

    return hmatrix.precompress_axpy_sampled(
        -1.0, rows, cols, sample_rk, dense_piece,
        min_sample_dim=_sample_min_dim(start_rank, oversample),
        compressor=config.compressor,
    )
