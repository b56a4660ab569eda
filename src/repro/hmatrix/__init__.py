"""Hierarchical low-rank matrix solver (the HMAT substitute).

The paper's compressed couplings store the BEM block :math:`A_{ss}` and the
Schur complement :math:`S` in the hierarchical ℋ-matrix solver HMAT
(ACA compression, compressed factorization/solve).  This subpackage
provides the equivalent stack, built from scratch:

* :mod:`~repro.hmatrix.cluster` — geometric binary cluster trees;
* :mod:`~repro.hmatrix.rk` — rank-revealing outer-product (Rk) blocks and
  :func:`~repro.hmatrix.rk.recompress`, the one routine that rounds a
  factored sum at ε (the AXPY flush, ``RkMatrix.truncate`` and the H-LU /
  H-LDLᵀ Schur updates all call it);
* :mod:`~repro.hmatrix.aca` — adaptive cross approximation with partial
  pivoting (lazy kernels);
* :mod:`~repro.hmatrix.hmatrix` — the hierarchical container (HODLR
  structure: nested diagonal blocks, low-rank off-diagonal blocks) with
  kernel assembly, matvec, **compressed AXPY** of dense sub-blocks (the
  operation at the heart of the paper's compressed-Schur variants) and
  memory accounting;
* :mod:`~repro.hmatrix.factorization` — hierarchical LU factorization and
  solves.

DESIGN.md documents the HODLR-for-general-ℋ substitution.
"""

from repro.hmatrix.cluster import ClusterNode, ClusterTree, build_cluster_tree
from repro.hmatrix.rk import (
    RkAccumulator,
    RkMatrix,
    recompress,
    svd_truncate,
)
from repro.hmatrix.aca import aca
from repro.hmatrix.hmatrix import AxpyPlan, HMatrix, build_hodlr, hodlr_from_dense
from repro.hmatrix.factorization import HLUFactorization
from repro.hmatrix.ldlt_factorization import HLDLTFactorization

__all__ = [
    "ClusterNode",
    "ClusterTree",
    "build_cluster_tree",
    "RkAccumulator",
    "RkMatrix",
    "recompress",
    "svd_truncate",
    "aca",
    "AxpyPlan",
    "HMatrix",
    "build_hodlr",
    "hodlr_from_dense",
    "HLUFactorization",
    "HLDLTFactorization",
]
