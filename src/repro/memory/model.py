"""Analytic memory model for the coupling algorithms.

The reproduction runs at ~1/250 of the paper's problem sizes; this module
extrapolates the logical footprints measured by
:class:`repro.memory.MemoryTracker` back to paper scale (a 128 GiB node)
and predicts, per algorithm, the largest coupled FEM/BEM system that fits —
the quantity reported by the paper's Figure 10 (9M unknowns for compressed
multi-solve, 2.5M for multi-factorization, 1.3M for the advanced coupling).

Model structure
---------------
For a 3-D FEM mesh ordered by nested dissection, the factor size follows
``nnz(L) ≈ c_f · n_v^{4/3}`` (the classic 3-D nested-dissection bound);
BLR compression multiplies it by a ratio < 1.  The dense Schur block costs
``n_s² · w`` bytes and its HODLR-compressed counterpart roughly
``n_s · r̄ · log₂(n_s / leaf) · w`` per stored off-diagonal side (one for
a symmetric system, two otherwise).  The remaining terms are the
per-algorithm workspaces (multi-solve's solve work vector and its
``Y_i``/``Z_i`` panels — ``Y_i`` only over the volume unknowns ``A_sv``
couples to — once per panel task in flight on ``n_workers`` workers, the
``X_ij`` blocks and their factorization workspace once per block in
flight, on a non-symmetric system the duplicated unsymmetric storage of
multi-factorization's kept factor, and on a compressed ``S`` the AXPY
updates pending in its accumulators until a flush).
All coefficients are overridable; the factor coefficient and the mean
HODLR rank can be fitted from measured runs with
:meth:`CouplingMemoryModel.calibrated`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.utils.errors import ConfigurationError

#: Ratio ``n_bem / N^(2/3)`` of the paper's pipe test case (Table I gives
#: 3.717, 3.711, 3.714, 3.703 for N = 1M, 2M, 4M, 9M).
PIPE_BEM_COEFF = 3.71

#: Bound on the volume unknowns ``A_sv`` reaches per surface unknown — the
#: layer under the surface, the only rows of ``Y_i`` multi-solve asks the
#: sparse solver for (measured 1.73 on the pipe at N = 12,000, 0.98 on the
#: aircraft at 9,000).
_COUPLED_VOLUME_BOUND = 2.0


@dataclass(frozen=True)
class ProblemDims:
    """Unknown counts of a coupled FEM/BEM system."""

    n_total: int
    n_fem: int
    n_bem: int

    def __post_init__(self) -> None:
        if self.n_fem + self.n_bem != self.n_total:
            raise ConfigurationError(
                f"n_fem + n_bem must equal n_total "
                f"({self.n_fem} + {self.n_bem} != {self.n_total})"
            )
        if min(self.n_fem, self.n_bem) <= 0:
            raise ConfigurationError("unknown counts must be positive")


def paper_pipe_dims(n_total: int) -> ProblemDims:
    """FEM/BEM split following the paper's pipe test case (Table I)."""
    n_bem = int(round(PIPE_BEM_COEFF * n_total ** (2.0 / 3.0)))
    n_bem = min(n_bem, n_total - 1)
    return ProblemDims(n_total=n_total, n_fem=n_total - n_bem, n_bem=n_bem)


ALGORITHMS = (
    "baseline",
    "advanced",
    "multi_solve",
    "multi_solve_compressed",
    "multi_factorization",
    "multi_factorization_compressed",
)


@dataclass(frozen=True)
class CouplingMemoryModel:
    """Analytic peak-memory model, per algorithm.

    Parameters
    ----------
    itemsize:
        Bytes per matrix entry (8 for float64, 16 for complex128).
    sparse_factor_coeff:
        ``c_f`` in ``nnz(L) ≈ c_f · n_v^{4/3}``.
    blr_ratio:
        Factor-size multiplier when BLR compression is on in the sparse
        solver (< 1).
    hodlr_rank:
        Mean rank of compressed off-diagonal blocks of ``S``.
    hodlr_leaf:
        Cluster-tree leaf size.
    symmetric:
        The coupled system is symmetric (the pipe): the compressed ``S``
        stores one off-diagonal side, the other being its transpose.
    unsym_duplication:
        Storage multiplier for the unsymmetric multifrontal mode of
        multi-factorization (the paper's "duplicated storage", §IV-B1);
        applies to its one resident factor, the last diagonal ``W``
        block's, when the system is non-symmetric.
    coupling_nnz_per_row:
        nnz per row of ``A_sv`` (thin geometric coupling band).
    """

    itemsize: int = 8
    sparse_factor_coeff: float = 6.0
    blr_ratio: float = 0.35
    hodlr_rank: float = 16.0
    hodlr_leaf: int = 64
    symmetric: bool = True
    unsym_duplication: float = 2.0
    coupling_nnz_per_row: float = 30.0
    sparse_compression: bool = True
    #: Transient multifrontal workspace (fronts + update stack) per byte of
    #: the dense Schur block a factorization+Schur call produces — the term
    #: that makes the advanced coupling die long before the dense S alone
    #: would fill the node.  The default is not fitted, and it under-predicts
    #: this package's runs: one call's front arena + update stack measure
    #: 2.1× (pipe, N = 1,600, ``n_b`` = 2) to 8.4× (aircraft, N = 1,800,
    #: ``n_b`` = 3) its block at one worker.  Pass the measured ratio when
    #: bounding a run.
    schur_workspace_factor: float = 0.5

    # -- component footprints ------------------------------------------------
    def sparse_factor_bytes(self, n_fem: int, compressed: bool | None = None) -> float:
        """Bytes of the multifrontal factors of ``A_vv``."""
        if compressed is None:
            compressed = self.sparse_compression
        nnz = self.sparse_factor_coeff * float(n_fem) ** (4.0 / 3.0)
        ratio = self.blr_ratio if compressed else 1.0
        return nnz * ratio * self.itemsize

    def dense_bytes(self, rows: int, cols: int | None = None) -> float:
        """Bytes of an uncompressed dense ``rows × cols`` matrix."""
        cols = rows if cols is None else cols
        return float(rows) * float(cols) * self.itemsize

    def hodlr_bytes(self, n: int) -> float:
        """Bytes of a HODLR-compressed ``n × n`` matrix."""
        if n <= self.hodlr_leaf:
            return self.dense_bytes(n)
        diag, per_rank = self._hodlr_terms(n)
        return diag + self.hodlr_rank * per_rank

    def _hodlr_terms(self, n: int) -> Tuple[float, float]:
        """Bytes of the dense leaves, and of the stored off-diagonal
        factors per unit of mean rank."""
        depth = max(1.0, math.log2(n / self.hodlr_leaf))
        sides = 1.0 if self.symmetric else 2.0
        return (n * self.hodlr_leaf * self.itemsize,
                sides * n * depth * self.itemsize)

    def axpy_pending_bytes(self, n_s: int, window: int,
                           pieces: Callable[[float], float]) -> float:
        """Bytes the AXPY accumulators of a compressed ``n_s × n_s`` ``S``
        hold when a flush is due, ``window`` columns after the last: every
        stored ``b × b`` block the window reaches keeps ``pieces(b)``
        pieces of rank :attr:`hodlr_rank` as full-height factors, up to
        ``repro.hmatrix.rk.MAX_ACCUMULATED_RANK`` columns (the pending
        rank at which an accumulator is recompressed)."""
        # read on each call, so the model follows the accumulators' budget;
        # imported by name, so this strictly typed layer does not pull the
        # numerical one into its type check
        cap = float(import_module("repro.hmatrix.rk").MAX_ACCUMULATED_RANK)
        sides = 1 if self.symmetric else 2
        total, b, nodes = 0.0, n_s / 2.0, 1
        while 2.0 * b > self.hodlr_leaf:
            reached = min(sides * nodes, math.ceil(window / b) + 1)
            rank = min(cap, self.hodlr_rank * pieces(b))
            total += reached * 2.0 * b * rank * self.itemsize
            b, nodes = b / 2.0, 2 * nodes
        return total

    def coupling_bytes(self, n_bem: int) -> float:
        """Bytes of the sparse coupling matrix ``A_sv`` (CSR)."""
        nnz = self.coupling_nnz_per_row * n_bem
        return nnz * (self.itemsize + 4) + 8 * n_bem

    # -- per-algorithm peaks -------------------------------------------------
    def peak_components(
        self,
        algorithm: str,
        dims: ProblemDims,
        n_c: int = 256,
        n_b: int = 2,
        n_workers: int = 1,
        out_of_core: bool = False,
        n_s_block: int = 2048,
    ) -> Dict[str, float]:
        """Dominant peak-memory components (bytes) for ``algorithm``.

        Returns a dict of named components; sum them for the total peak.

        ``n_workers`` is the run's worker count: the runtimes keep at
        most that many tasks holding budget, so multi-solve has
        ``min(n_workers, n_panels)`` panel tasks in flight, each with its
        own solve workspace, ``Y`` and ``Z`` (and, on a compressed ``S``,
        the cluster-order gather of ``Z``), as its task budget reserves,
        and multi-factorization ``min(n_workers, n_blocks)`` ``W`` blocks,
        each with its ``X_ij`` and factorization workspace.  A compressed
        ``S`` also holds its pending AXPY updates: one ``n_s_block``
        window's in multi-solve, every ``X_ij``'s in multi-factorization.

        ``out_of_core=True`` models the paper's §VII out-of-core direction:
        the *stored* Schur representation (dense buffer or compressed
        structure) is spilled to disk and no longer counts against RAM —
        only the working panels, factors and frontal workspace remain
        resident.  (The spilled bytes are returned under keys prefixed
        ``disk:`` so planners can still report I/O volume.)
        """
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {algorithm!r}")
        n_v, n_s = dims.n_fem, dims.n_bem
        comp: Dict[str, float] = {
            "coupling": self.coupling_bytes(n_s),
        }
        if algorithm == "baseline":
            comp["sparse_factor"] = self.sparse_factor_bytes(n_v)
            comp["solve_panel_Y"] = self.dense_bytes(n_v, n_s)
            comp["spmm_panel_Z"] = self.dense_bytes(n_s)
            comp["schur_dense"] = self.dense_bytes(n_s)
        elif algorithm == "advanced":
            comp["sparse_factor"] = self.sparse_factor_bytes(n_v)
            # the solver returns X dense, the container holds S (built in
            # place of A_ss), and the factorization+Schur call pays the
            # frontal workspace of carrying all n_s Schur variables
            comp["solver_schur_X"] = self.dense_bytes(n_s)
            comp["schur_dense"] = self.dense_bytes(n_s)
            comp["schur_front_workspace"] = (
                self.schur_workspace_factor * self.dense_bytes(n_s)
            )
        elif algorithm in ("multi_solve", "multi_solve_compressed"):
            comp["sparse_factor"] = self.sparse_factor_bytes(n_v)
            in_flight = min(n_workers, math.ceil(n_s / n_c))
            # the sweeps run on every volume unknown; the solution comes
            # back on the ones A_sv couples to
            comp["solve_workspace"] = in_flight * self.dense_bytes(n_v, n_c)
            comp["solve_panel_Y"] = in_flight * self.dense_bytes(
                min(n_v, math.ceil(_COUPLED_VOLUME_BOUND * n_s)), n_c)
            if algorithm == "multi_solve":
                comp["spmm_panel_Z"] = in_flight * self.dense_bytes(n_s, n_c)
                comp["schur_dense"] = self.dense_bytes(n_s)
            else:
                # a panel task holds its Z and, while it pre-compresses,
                # the cluster-order gather of Z
                comp["spmm_panel_Z"] = (
                    in_flight * 2 * self.dense_bytes(n_s, n_c))
                comp["schur_hodlr"] = self.hodlr_bytes(n_s)
                # a window's panels reach a block of width b in pieces
                window = min(n_s_block, n_s)
                comp["axpy_pending"] = self.axpy_pending_bytes(
                    n_s, window,
                    lambda b: math.ceil(min(b, window) / n_c) + 1)
        else:  # multi_factorization, dense or compressed S
            n_b = min(n_b, n_s)
            block = math.ceil(n_s / n_b)
            n_blocks = n_b * (n_b + 1) // 2 if self.symmetric else n_b * n_b
            in_flight = min(n_workers, n_blocks)
            # one factor stays resident, the last diagonal W block's (the
            # others keep only their Schur block): LDLᵀ on a symmetric
            # system, duplicated LU storage otherwise
            comp["sparse_factor"] = self.sparse_factor_bytes(n_v) * (
                1.0 if self.symmetric else self.unsym_duplication
            )
            comp["schur_block_X"] = in_flight * self.dense_bytes(block)
            comp["schur_front_workspace"] = (
                in_flight * self.schur_workspace_factor
                * self.dense_bytes(block)
            )
            if algorithm == "multi_factorization":
                comp["schur_dense"] = self.dense_bytes(n_s)
            else:
                comp["schur_hodlr"] = self.hodlr_bytes(n_s)
                # every X_ij (and its mirror) reaches every block, and
                # one flush follows the last
                comp["axpy_pending"] = self.axpy_pending_bytes(
                    n_s, n_s, lambda b: float(n_b * n_b))
        if out_of_core:
            for key in ("schur_dense", "schur_hodlr"):
                if key in comp:
                    comp[f"disk:{key}"] = comp.pop(key)
        return comp

    def peak_bytes(self, algorithm: str, dims: ProblemDims,
                   **params: Any) -> float:
        """Total predicted *resident* peak for ``algorithm`` on ``dims``
        (``disk:``-prefixed components do not count against RAM)."""
        return sum(
            v for k, v in
            self.peak_components(algorithm, dims, **params).items()
            if not k.startswith("disk:")
        )

    # -- calibration ---------------------------------------------------------
    def calibrated(
        self,
        factor_samples: Iterable[Tuple[int, float]] = (),
        hodlr_samples: Iterable[Tuple[int, float]] = (),
    ) -> "CouplingMemoryModel":
        """Return a copy with coefficients fitted to measured footprints.

        Parameters
        ----------
        factor_samples:
            Pairs ``(n_fem, measured_factor_bytes)`` from small runs with
            the current ``sparse_compression`` setting.
        hodlr_samples:
            Pairs ``(n_bem, measured_hodlr_bytes)``.
        """
        updates: Dict[str, float] = {}
        factor_samples = list(factor_samples)
        if factor_samples:
            ratio = self.blr_ratio if self.sparse_compression else 1.0
            coeffs = [
                bytes_ / (float(n) ** (4.0 / 3.0) * ratio * self.itemsize)
                for n, bytes_ in factor_samples
            ]
            updates["sparse_factor_coeff"] = sum(coeffs) / len(coeffs)
        hodlr_samples = list(hodlr_samples)
        if hodlr_samples:
            ranks = []
            for n, bytes_ in hodlr_samples:
                if n <= self.hodlr_leaf:
                    continue
                diag, per_rank = self._hodlr_terms(n)
                ranks.append(max(1.0, (bytes_ - diag) / per_rank))
            if ranks:
                updates["hodlr_rank"] = sum(ranks) / len(ranks)
        return replace(self, **updates)


def predict_max_unknowns(
    model: CouplingMemoryModel,
    algorithm: str,
    limit_bytes: float,
    dims_fn: Callable[[int], ProblemDims] = paper_pipe_dims,
    n_lo: int = 10_000,
    n_hi: int = 1_000_000_000,
    **params: Any,
) -> int:
    """Largest ``n_total`` whose predicted peak fits under ``limit_bytes``.

    Bisection on the (monotone) peak model; this is what regenerates the
    paper's "largest processable system" numbers per algorithm.
    """
    if model.peak_bytes(algorithm, dims_fn(n_lo), **params) > limit_bytes:
        return 0
    if model.peak_bytes(algorithm, dims_fn(n_hi), **params) <= limit_bytes:
        return n_hi
    lo, hi = n_lo, n_hi
    while hi - lo > max(1, lo // 1000):
        mid = (lo + hi) // 2
        if model.peak_bytes(algorithm, dims_fn(mid), **params) <= limit_bytes:
            lo = mid
        else:
            hi = mid
    return lo
