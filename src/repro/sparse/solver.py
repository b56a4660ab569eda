"""The :class:`SparseSolver` facade (MUMPS-equivalent API).

This is the interface the coupling algorithms in :mod:`repro.core` consume,
shaped after the paper's description of fully-featured sparse direct
solvers (§II-C), with the analysis split from the numeric phase by API as
in every real solver (MUMPS JOB=1 vs JOB=2, PaStiX):

* :meth:`SparseSolver.analyse` — ordering, partition tree and symbolic
  factorization of the *interior* matrix, returned as a
  :class:`SparseAnalysis` that every numeric call below takes;
* :meth:`SparseSolver.factorize` — *baseline usage*: numeric factorization
  of the analysed matrix, returning a factorization handle whose ``solve``
  supports many right-hand sides and sparse-RHS exploitation;
* :meth:`SparseSolver.factorize_schur` — *advanced usage*: the
  "sparse factorization+Schur" building block.  The Schur border is
  grafted onto the interior analysis
  (:func:`~repro.sparse.symbolic.extend_symbolic_with_border`), the listed
  Schur variables are kept uneliminated and their Schur complement is
  returned **as a non-compressed dense matrix** — deliberately reproducing
  the API limitation at the heart of the paper.  Every call pays the full
  numeric factorization from scratch, exactly like the repeated calls the
  multi-factorization algorithm has to pay for ("implies a
  re-factorization of A_vv at each iteration", §IV-B1);
* :meth:`SparseSolver.schur_complement` — the same call for a caller that
  reads only the Schur block (MUMPS ``ICNTL(31)=1``, "discard factors"):
  the numeric phase runs in full, but no factor is stored or compressed.

An optional :class:`~repro.utils.timer.PhaseTimer` splits
``sparse_analysis`` (the analysis, and each call's border graft) from
``sparse_numeric``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.memory.tracker import Allocation, MemoryTracker
from repro.sparse.blr import BLRConfig
from repro.sparse.multifrontal import MultifrontalFactorization
from repro.sparse.ordering import (
    DEFAULT_LEAF,
    geometric_nested_dissection,
    graph_nested_dissection,
)
from repro.sparse.partition import PartitionTree
from repro.sparse.symbolic import (
    SymbolicFactorization,
    extend_symbolic_with_border,
    symbolic_analysis,
)
from repro.utils.errors import ConfigurationError
from repro.utils.timer import PhaseTimer

_ORDERINGS = ("geometric", "graph")


def _phase(timer: Optional[PhaseTimer], name: str):
    """Timer phase context, or a no-op when no timer was provided."""
    return timer.phase(name) if timer is not None else nullcontext()


class SparseAnalysis(NamedTuple):
    """The analysis of an interior matrix (MUMPS JOB=1): its partition
    tree and its symbolic factorization.  Immutable once built, so one
    analysis serves any number of numeric calls, from any thread."""

    tree: PartitionTree
    symbolic: SymbolicFactorization


class SparseSolver:
    """Multifrontal sparse direct solver facade.

    Parameters
    ----------
    ordering:
        ``"geometric"`` (requires coordinates, default) or ``"graph"``.
    leaf_size:
        Nested-dissection leaf size (subdomain interiors).
    amalgamate:
        Supernode amalgamation threshold (merge tiny fronts); 0 disables.
    blr:
        :class:`BLRConfig` enabling low-rank panel compression, or ``None``
        for uncompressed factors.
    tracker:
        Memory tracker shared with the caller.
    """

    def __init__(
        self,
        ordering: str = "geometric",
        leaf_size: int = DEFAULT_LEAF,
        amalgamate: int = 32,
        blr: Optional[BLRConfig] = None,
        tracker: Optional[MemoryTracker] = None,
    ):
        if ordering not in _ORDERINGS:
            raise ConfigurationError(
                f"ordering must be one of {_ORDERINGS}, got {ordering!r}"
            )
        self.ordering = ordering
        self.leaf_size = int(leaf_size)
        self.amalgamate = int(amalgamate)
        self.blr = blr
        self.tracker = tracker if tracker is not None else MemoryTracker()

    # -- analysis -----------------------------------------------------------------
    def build_tree(
        self, a_interior: sp.spmatrix, coords: Optional[np.ndarray]
    ) -> PartitionTree:
        """Nested-dissection partition tree over the interior variables."""
        if self.ordering == "geometric":
            if coords is None:
                raise ConfigurationError(
                    "geometric ordering requires point coordinates; "
                    "use ordering='graph' otherwise"
                )
            tree = geometric_nested_dissection(
                a_interior, coords, leaf_size=self.leaf_size
            )
        else:
            tree = graph_nested_dissection(a_interior, leaf_size=self.leaf_size)
        if self.amalgamate > 0:
            tree = tree.amalgamated(min_own=self.amalgamate)
        return tree

    def analyse(
        self,
        a: sp.spmatrix,
        coords: Optional[np.ndarray] = None,
        timer: Optional[PhaseTimer] = None,
    ) -> SparseAnalysis:
        """Analyse the interior matrix ``a`` (ordering + symbolic
        factorization), under the ``sparse_analysis`` phase of ``timer``.

        ``coords`` are the point coordinates of ``a``'s variables, for
        the geometric ordering.  The result serves :meth:`factorize` of
        any matrix with ``a``'s pattern, and :meth:`factorize_schur` /
        :meth:`schur_complement` of any matrix whose interior block has
        it.
        """
        a = a.tocsr()
        with _phase(timer, "sparse_analysis"):
            tree = self.build_tree(a, coords)
            return SparseAnalysis(tree, symbolic_analysis(a, tree))

    # -- baseline usage ------------------------------------------------------------
    def factorize(
        self,
        analysis: SparseAnalysis,
        a: sp.spmatrix,
        symmetric_values: Optional[bool] = None,
        timer: Optional[PhaseTimer] = None,
    ) -> MultifrontalFactorization:
        """Numeric factorization of ``a`` along ``analysis`` (paper
        §II-C1, *baseline usage*).

        ``symmetric_values`` selects LDLᵀ (True) versus LU (False);
        ``None`` probes the matrix.  ``timer`` times the call as
        ``sparse_numeric``.
        """
        n = analysis.symbolic.n_full
        if a.shape != (n, n):
            raise ConfigurationError(
                f"matrix shape {a.shape} does not match the analysis "
                f"({n} variables)"
            )
        a = a.tocsr()
        if symmetric_values is None:
            symmetric_values = _probe_symmetry(a)
        with _phase(timer, "sparse_numeric"):
            return MultifrontalFactorization(
                a, analysis.symbolic, symmetric_values, blr=self.blr,
                tracker=self.tracker,
            )

    # -- advanced usage --------------------------------------------------------------
    def factorize_schur(
        self,
        analysis: SparseAnalysis,
        a_full: sp.spmatrix,
        schur_vars: np.ndarray,
        symmetric_values: Optional[bool] = None,
        timer: Optional[PhaseTimer] = None,
    ) -> MultifrontalFactorization:
        """The *sparse factorization+Schur* building block (paper §II-C2).

        Parameters
        ----------
        analysis:
            The analysis of ``a_full``'s interior block (its rows and
            columns outside ``schur_vars``, in ascending order).
        a_full:
            The full sparse matrix including the Schur variables (the
            paper's ``W`` matrices).
        schur_vars:
            Row/column indices of ``a_full`` to keep uneliminated.
        timer:
            Optional phase timer; the call splits into ``sparse_analysis``
            (the border graft) and ``sparse_numeric`` (the faithful
            numeric factorization).

        Returns
        -------
        MultifrontalFactorization
            With ``.schur`` set to the dense Schur complement
            ``A₂₂ − A₂₁ A₁₁⁻¹ A₁₂`` (dense by design; see module docstring)
            and ``solve`` available for the interior block.
        """
        return self._factorize_bordered(analysis, a_full, schur_vars,
                                        symmetric_values, timer,
                                        keep_factors=True)

    def schur_complement(
        self,
        analysis: SparseAnalysis,
        a_full: sp.spmatrix,
        schur_vars: np.ndarray,
        symmetric_values: Optional[bool] = None,
        timer: Optional[PhaseTimer] = None,
    ) -> Tuple[np.ndarray, Allocation]:
        """:meth:`factorize_schur` for a caller that reads only the Schur
        block (MUMPS ``ICNTL(31)=1``, "discard factors").

        Same parameters and the same graft and numeric loop, bit for bit
        the same Schur block; the factors of the interior block are
        neither stored, BLR-compressed nor charged under
        ``sparse_factor``.  Returns ``(schur, alloc)`` — the dense block
        and its ``schur_dense`` charge, which the caller frees.
        """
        return self._factorize_bordered(analysis, a_full, schur_vars,
                                        symmetric_values, timer,
                                        keep_factors=False).take_schur()

    def _factorize_bordered(self, analysis, a_full, schur_vars,
                            symmetric_values, timer, keep_factors):
        """Border graft + numeric phase of ``a_full`` with ``schur_vars``
        kept uneliminated."""
        a_full = a_full.tocsr()
        schur_vars = np.asarray(schur_vars, dtype=np.intp)
        if len(np.unique(schur_vars)) != len(schur_vars):
            raise ConfigurationError("schur_vars must be unique")
        if symmetric_values is None:
            symmetric_values = _probe_symmetry(a_full)
        with _phase(timer, "sparse_analysis"):
            interior_mask = np.ones(a_full.shape[0], dtype=bool)
            interior_mask[schur_vars] = False
            symbolic = extend_symbolic_with_border(
                analysis.symbolic, a_full, schur_vars,
                np.flatnonzero(interior_mask),
            )
        with _phase(timer, "sparse_numeric"):
            return MultifrontalFactorization(
                a_full, symbolic, symmetric_values, blr=self.blr,
                tracker=self.tracker, keep_factors=keep_factors,
            )


def _probe_symmetry(a: sp.csr_matrix, samples: int = 16) -> bool:
    """Cheap check whether the matrix values are symmetric (up to roundoff)."""
    scale = float(np.abs(a.data).max()) if a.nnz else 1.0
    tol = 1e-12 * max(scale, 1e-300)
    if a.shape[0] <= 512:
        diff = a - a.T
        return len(diff.data) == 0 or float(np.abs(diff.data).max()) <= tol
    rng = np.random.default_rng(0)
    idx = rng.integers(0, a.shape[0], size=samples)
    for i in idx:
        row = a[int(i)].toarray().ravel()
        col = a[:, int(i)].toarray().ravel()
        if not np.allclose(row, col, rtol=0.0, atol=tol):
            return False
    return True
