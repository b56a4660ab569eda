"""Multifrontal sparse direct solver (the MUMPS substitute).

This subpackage implements, from scratch, the sparse direct solver role of
the paper's couplings:

* fill-reducing **nested dissection** orderings (geometric when point
  coordinates are available, BFS-separator based otherwise) producing a
  separator :class:`~repro.sparse.partition.PartitionTree`
  (:mod:`~repro.sparse.ordering`);
* **symbolic analysis** computing each front's boundary variables
  (:mod:`~repro.sparse.symbolic`), run once per interior pattern by
  :meth:`SparseSolver.analyse` and taken by every numeric call;
* **numeric multifrontal factorization** with dense frontal matrices,
  LDLᵀ for symmetric values and LU for general values on a symmetrized
  pattern (:mod:`~repro.sparse.multifrontal`);
* optional **BLR low-rank compression** of the frontal off-diagonal
  panels (:mod:`~repro.sparse.blr`), the analog of MUMPS' BLR feature the
  paper keeps enabled;
* forward/backward **solves** with multiple right-hand sides and
  sparse-RHS exploitation (the ICNTL(20) analog);
* the **Schur complement API** (:meth:`SparseSolver.factorize_schur`)
  that — faithfully to the MUMPS API limitation central to the paper —
  always returns the Schur block as a **non-compressed dense matrix**.
"""

from repro.sparse.ordering import (
    geometric_nested_dissection,
    graph_nested_dissection,
)
from repro.sparse.partition import PartitionNode, PartitionTree
from repro.sparse.symbolic import (
    SymbolicFactorization,
    extend_symbolic_with_border,
    symbolic_analysis,
)
from repro.sparse.blr import BLRConfig
from repro.sparse.multifrontal import FrontArena, MultifrontalFactorization
from repro.sparse.solver import SparseAnalysis, SparseSolver

__all__ = [
    "geometric_nested_dissection",
    "graph_nested_dissection",
    "PartitionNode",
    "PartitionTree",
    "SymbolicFactorization",
    "symbolic_analysis",
    "extend_symbolic_with_border",
    "BLRConfig",
    "FrontArena",
    "MultifrontalFactorization",
    "SparseAnalysis",
    "SparseSolver",
]
