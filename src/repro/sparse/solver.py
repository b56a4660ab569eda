"""The :class:`SparseSolver` facade (MUMPS-equivalent API).

This is the interface the coupling algorithms in :mod:`repro.core` consume,
shaped after the paper's description of fully-featured sparse direct
solvers (§II-C):

* :meth:`SparseSolver.factorize` — *baseline usage*: analysis + numeric
  factorization of a sparse matrix, returning a factorization handle whose
  ``solve`` supports many right-hand sides and sparse-RHS exploitation;
* :meth:`SparseSolver.factorize_schur` — *advanced usage*: the
  "sparse factorization+Schur" building block.  The listed Schur variables
  are kept uneliminated and their Schur complement is returned **as a
  non-compressed dense matrix** — deliberately reproducing the API
  limitation at the heart of the paper.  Every call pays the full numeric
  factorization from scratch, exactly like the repeated calls the
  multi-factorization algorithm has to pay for ("implies a re-factorization
  of A_vv at each iteration", §IV-B1);
* :meth:`SparseSolver.schur_complement` — the same call for a caller that
  reads only the Schur block (MUMPS ``ICNTL(31)=1``, "discard factors"):
  the numeric phase runs in full, but no factor is stored or compressed.

The *analysis* phase, however, follows what real solvers do (MUMPS JOB=1
vs JOB=2, PaStiX's split API): when a :class:`~repro.sparse.symbolic_cache
.SymbolicCache` is attached, the ordering + partition tree + symbolic
factorization of the interior matrix are computed once per pattern and
reused — each subsequent ``factorize_schur`` call only grafts its Schur
border onto the cached elimination tree
(:func:`~repro.sparse.symbolic.extend_symbolic_with_border`) before paying
the faithful numeric phase.  ``n_symbolic_analyses`` /
``n_symbolic_reuses`` count both outcomes; an optional
:class:`~repro.utils.timer.PhaseTimer` splits ``sparse_analysis`` from
``sparse_numeric`` so the saving is visible in reports.
"""

from __future__ import annotations

import threading
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
from repro.sparse.symbolic_cache import (
    SymbolicCache,
    coords_digest,
    pattern_fingerprint,
)
from repro.utils.errors import ConfigurationError
from repro.utils.timer import PhaseTimer

_ORDERINGS = ("geometric", "graph")


def _phase(timer: Optional[PhaseTimer], name: str):
    """Timer phase context, or a no-op when no timer was provided."""
    return timer.phase(name) if timer is not None else nullcontext()


class _CachedAnalysis(NamedTuple):
    """What a :class:`SymbolicCache` entry stores for one pattern."""

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
    symbolic_cache:
        Optional :class:`SymbolicCache`.  When set, analyses are reused
        across calls whose interior pattern (and ordering inputs) match;
        when ``None`` every call re-analyses from scratch (the historical
        behavior).
    """

    def __init__(
        self,
        ordering: str = "geometric",
        leaf_size: int = DEFAULT_LEAF,
        amalgamate: int = 32,
        blr: Optional[BLRConfig] = None,
        tracker: Optional[MemoryTracker] = None,
        symbolic_cache: Optional[SymbolicCache] = None,
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
        self.symbolic_cache = symbolic_cache
        self._n_symbolic_analyses = 0  # guarded-by: _stats_lock
        self._n_symbolic_reuses = 0  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()

    # -- analysis counters --------------------------------------------------------
    @property
    def n_symbolic_analyses(self) -> int:
        """Full symbolic analyses actually computed (cache misses included)."""
        with self._stats_lock:
            return self._n_symbolic_analyses

    @property
    def n_symbolic_reuses(self) -> int:
        """Analyses served from the symbolic cache instead of recomputed."""
        with self._stats_lock:
            return self._n_symbolic_reuses

    def _count_analysis(self, reused: bool) -> None:
        with self._stats_lock:
            if reused:
                self._n_symbolic_reuses += 1
            else:
                self._n_symbolic_analyses += 1

    def _analysis_key(self, a_interior: sp.csr_matrix,
                      coords: Optional[np.ndarray]) -> str:
        """Cache key: interior pattern + everything the tree depends on."""
        extra = repr(
            (self.ordering, self.leaf_size, self.amalgamate)
        ).encode() + coords_digest(coords)
        return pattern_fingerprint(a_interior, extra=extra)

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

    def _analyse_interior(
        self, a_interior: sp.csr_matrix, coords: Optional[np.ndarray]
    ) -> _CachedAnalysis:
        """Interior analysis through the cache (or from scratch)."""

        def build() -> _CachedAnalysis:
            tree = self.build_tree(a_interior, coords)
            return _CachedAnalysis(tree, symbolic_analysis(a_interior, tree))

        if self.symbolic_cache is None:
            entry = build()
            self._count_analysis(reused=False)
            return entry
        key = self._analysis_key(a_interior, coords)
        entry, was_hit = self.symbolic_cache.get_or_build(key, build)
        self._count_analysis(reused=was_hit)
        return entry

    # -- baseline usage ------------------------------------------------------------
    def factorize(
        self,
        a: sp.spmatrix,
        coords: Optional[np.ndarray] = None,
        symmetric_values: Optional[bool] = None,
        timer: Optional[PhaseTimer] = None,
    ) -> MultifrontalFactorization:
        """Analyse and factorize ``a`` (paper §II-C1, *baseline usage*).

        ``symmetric_values`` selects LDLᵀ (True) versus LU (False);
        ``None`` probes the matrix.  ``timer`` splits the call into
        ``sparse_analysis`` and ``sparse_numeric`` phases.
        """
        a = a.tocsr()
        if symmetric_values is None:
            symmetric_values = _probe_symmetry(a)
        with _phase(timer, "sparse_analysis"):
            analysis = self._analyse_interior(a, coords)
        with _phase(timer, "sparse_numeric"):
            return MultifrontalFactorization(
                a, analysis.symbolic, symmetric_values, blr=self.blr,
                tracker=self.tracker,
            )

    # -- advanced usage --------------------------------------------------------------
    def factorize_schur(
        self,
        a_full: sp.spmatrix,
        schur_vars: np.ndarray,
        coords_interior: Optional[np.ndarray] = None,
        symmetric_values: Optional[bool] = None,
        timer: Optional[PhaseTimer] = None,
    ) -> MultifrontalFactorization:
        """The *sparse factorization+Schur* building block (paper §II-C2).

        Parameters
        ----------
        a_full:
            The full sparse matrix including the Schur variables (the
            paper's ``W`` matrices).
        schur_vars:
            Row/column indices of ``a_full`` to keep uneliminated.
        coords_interior:
            Coordinates of the interior variables (ascending id order),
            for the geometric ordering.
        timer:
            Optional phase timer; the call splits into ``sparse_analysis``
            (ordering + symbolic, or cache lookup + border extension) and
            ``sparse_numeric`` (the faithful numeric factorization).

        Returns
        -------
        MultifrontalFactorization
            With ``.schur`` set to the dense Schur complement
            ``A₂₂ − A₂₁ A₁₁⁻¹ A₁₂`` (dense by design; see module docstring)
            and ``solve`` available for the interior block.
        """
        return self._factorize_bordered(a_full, schur_vars, coords_interior,
                                        symmetric_values, timer,
                                        keep_factors=True)

    def schur_complement(
        self,
        a_full: sp.spmatrix,
        schur_vars: np.ndarray,
        coords_interior: Optional[np.ndarray] = None,
        symmetric_values: Optional[bool] = None,
        timer: Optional[PhaseTimer] = None,
    ) -> Tuple[np.ndarray, Allocation]:
        """:meth:`factorize_schur` for a caller that reads only the Schur
        block (MUMPS ``ICNTL(31)=1``, "discard factors").

        Same parameters and the same analysis and numeric loop, bit for
        bit the same Schur block; the factors of the interior block are
        neither stored, BLR-compressed nor charged under
        ``sparse_factor``.  Returns ``(schur, alloc)`` — the dense block
        and its ``schur_dense`` charge, which the caller frees.
        """
        return self._factorize_bordered(a_full, schur_vars, coords_interior,
                                        symmetric_values, timer,
                                        keep_factors=False).take_schur()

    def _factorize_bordered(self, a_full, schur_vars, coords_interior,
                            symmetric_values, timer, keep_factors):
        """Analysis (cached interior, grafted border) + numeric phase of
        ``a_full`` with ``schur_vars`` kept uneliminated."""
        a_full = a_full.tocsr()
        schur_vars = np.asarray(schur_vars, dtype=np.intp)
        if len(np.unique(schur_vars)) != len(schur_vars):
            raise ConfigurationError("schur_vars must be unique")
        if symmetric_values is None:
            symmetric_values = _probe_symmetry(a_full)
        with _phase(timer, "sparse_analysis"):
            interior_mask = np.ones(a_full.shape[0], dtype=bool)
            interior_mask[schur_vars] = False
            interior_ids = np.flatnonzero(interior_mask)
            a_int = a_full[interior_ids][:, interior_ids].tocsr()
            if self.symbolic_cache is None:
                tree = self.build_tree(a_int, coords_interior)
                symbolic = symbolic_analysis(
                    a_full, tree, schur_vars=schur_vars
                )
                self._count_analysis(reused=False)
            else:
                analysis = self._analyse_interior(a_int, coords_interior)
                symbolic = extend_symbolic_with_border(
                    analysis.symbolic, a_full, schur_vars, interior_ids
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
