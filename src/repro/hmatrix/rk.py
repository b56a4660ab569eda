"""Rank-k (outer product) matrix blocks with SVD recompression.

An :class:`RkMatrix` stores a block as ``U @ V.T`` (plain transpose, so
complex *symmetric* data keeps its symmetry, as the paper's complex
matrices require).

:func:`recompress` is the one place a factored sum is rounded: it stacks
the factors of ``Σ U_i V_iᵀ`` and recompresses them at ``tol`` with the
standard QR+SVD rounding — the operation whose cost the paper's §IV-A2
dissociated block sizes (``n_c`` vs ``n_S``) trade against memory.  The
compressed AXPY's flush (:meth:`RkAccumulator.flush`),
:meth:`RkMatrix.truncate` and the H-LU / H-LDLᵀ Schur updates all call it.

:class:`RkAccumulator` batches that recompression: low-rank updates to one
block are *appended* (factors concatenated, no rounding) until
:data:`MAX_ACCUMULATED_RANK` trips or :meth:`RkAccumulator.flush` runs —
the LUAR-style update accumulation of BLR/HSS solvers, which turns ``n``
recompressions per block into roughly one.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.errors import ConfigurationError

def svd_truncate(
    a: np.ndarray, tol: float, max_rank: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best low-rank approximation of a dense block by truncated SVD.

    Singular values below ``tol`` times the largest are dropped, and at
    most ``max_rank`` are kept (the cap :func:`rank_first`'s ``keep`` path
    passes: the rank it decided from the values alone).

    Returns ``(u, v)`` with ``a ≈ u @ v.T``.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigurationError("svd_truncate expects a 2-D block")
    if min(a.shape) == 0:
        dt = a.dtype if np.issubdtype(a.dtype, np.inexact) else np.float64
        return (np.zeros((a.shape[0], 0), dt), np.zeros((a.shape[1], 0), dt))
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer gesdd occasionally fails to converge
        # on ill-conditioned accumulated factors; the slower but more
        # robust QR-iteration gesvd driver handles those
        from scipy.linalg import svd as scipy_svd

        u, s, vh = scipy_svd(a, full_matrices=False, lapack_driver="gesvd")
    rank = _numerical_rank(s, tol, s[0])
    if max_rank is not None:
        rank = min(rank, max_rank)
    u = u[:, :rank] * s[:rank]
    v = vh[:rank].T.copy()
    return u, v


def rank_first(
    a: np.ndarray, tol: float,
    keep: Optional[Callable[[int], bool]] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Dense block → ``(u, v)`` with ``a ≈ u @ v.T``, rank first.

    The rank ``r = #{σ > tol·σ₀}`` is decided from the singular *values*
    and vectors are formed for those ``r`` only.  The values are the
    eigenvalues ``σ²`` of the short-side Gram matrix (``A Aᴴ`` for
    ``m ≤ n``: one GEMM, one ``eigh`` of order ``min(m, n)``); the
    factors are the projection onto its top-``r`` eigenvectors ``B`` —
    ``u = B, v = Aᵀ·conj(B)`` or ``u = A·B, v = conj(B)`` — whose error is
    the discarded tail.  Gram eigenvalues carry an absolute error of a
    few ``max(m, n)·eps·σ₀²``, so they resolve the threshold only while
    ``tol² ≥ 100·max(m, n)·eps`` — ``tol ≳ 5e-6`` for 960 float64 columns
    and never float32 at ``tol = 1e-3``; otherwise the block's own
    singular values decide and the vectors are :func:`svd_truncate`'s.

    ``keep(r)``, when given, is asked once the rank is known and before
    any vector is computed; ``None`` is returned if it declines — the
    BLR panel test, which rejects most panels, pays for values only.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigurationError("rank_first expects a 2-D block")
    m, n = a.shape
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(np.float64)
    if min(m, n) == 0:
        return svd_truncate(a, tol)
    if tol * tol < 100 * max(m, n) * np.finfo(a.dtype).eps:
        if keep is None:
            return svd_truncate(a, tol)
        s = np.linalg.svd(a, compute_uv=False)
        rank = _numerical_rank(s, tol, s[0])
        return svd_truncate(a, tol, rank) if keep(rank) else None
    gram = a @ a.conj().T if m <= n else a.conj().T @ a
    if keep is None:
        values, vectors = np.linalg.eigh(gram)
    else:
        values, vectors = np.linalg.eigvalsh(gram), None
    rank = _numerical_rank(values, tol * tol, values[-1])
    if keep is not None and not keep(rank):
        return None
    if vectors is None:
        vectors = np.linalg.eigh(gram)[1]
    # eigh sorts ascending: the top-r eigenvectors, largest first
    basis = vectors[:, :-rank - 1:-1]
    if m <= n:
        u, v = basis, a.T @ basis.conj()
    else:
        u, v = a @ basis, basis.conj()
    return np.ascontiguousarray(u), np.ascontiguousarray(v)


def _numerical_rank(values: np.ndarray, cut: float, ref: float) -> int:
    """``#{values > cut·ref}``; 0 for a zero reference."""
    return int(np.count_nonzero(values > cut * ref)) if ref > 0 else 0


def recompress(us: Sequence[np.ndarray], vs: Sequence[np.ndarray],
               tol: float) -> "RkMatrix":
    """Round the factored sum ``Σ us[i] @ vs[i].T`` at ``tol``.

    The one place the ℋ layer rounds a sum of low-rank terms: the flush of
    an :class:`RkAccumulator`, :meth:`RkMatrix.truncate` and the H-LU /
    H-LDLᵀ Schur updates all call it.  The factors are stacked (rank-0
    terms skipped, dtypes promoted together); a zero sum comes back at
    rank 0, factors at least as thick as the block go through
    :func:`rank_first` on the dense sum, and the rest through thin QR of
    both stacks plus a truncated SVD of the small core — ``O((m+n) r² +
    r³)``, independent of the dense block size, which is what makes
    hierarchical accumulation affordable.
    """
    m, n = us[0].shape[0], vs[0].shape[0]
    if any(u.shape[0] != m for u in us) or any(v.shape[0] != n for v in vs):
        raise ConfigurationError("shape mismatch in recompress")
    dtype = np.result_type(*us, *vs)
    terms = [(u, v) for u, v in zip(us, vs, strict=True) if u.shape[1]]
    if not terms:
        return RkMatrix.zeros(m, n, dtype)
    # one term is rounded where it lies, several are stacked in order
    u, v = (np.hstack([f.astype(dtype, copy=False) for f in fs])
            if len(fs) > 1 else fs[0].astype(dtype, copy=False)
            for fs in zip(*terms))
    if u.shape[1] >= min(m, n):
        return RkMatrix(*rank_first(u @ v.T, tol))
    qu, ru = np.linalg.qr(u)
    qv, rv = np.linalg.qr(v)
    cu, cv = svd_truncate(ru @ rv.T, tol)
    return RkMatrix(qu @ cu, qv @ cv)


class RkMatrix:
    """A low-rank block ``U @ V.T`` with ``U (m, r)`` and ``V (n, r)``."""

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        u = np.asarray(u)
        v = np.asarray(v)
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
            raise ConfigurationError(
                f"incompatible Rk factors: u {u.shape}, v {v.shape}"
            )
        self.u = u
        self.v = v

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zeros(cls, m: int, n: int, dtype=np.float64) -> "RkMatrix":
        return cls(np.zeros((m, 0), dtype=dtype), np.zeros((n, 0), dtype=dtype))

    @classmethod
    def from_dense(cls, a: np.ndarray, tol: float) -> "RkMatrix":
        """Compress a dense block (see :func:`rank_first`)."""
        return cls(*rank_first(a, tol))

    # -- properties -----------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.u.dtype, self.v.dtype)

    @property
    def nbytes(self) -> int:
        return self.u.nbytes + self.v.nbytes

    # -- algebra ----------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        return self.u @ self.v.T

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``(U Vᵀ) @ x``."""
        return self.u @ (self.v.T @ x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``(U Vᵀ)ᵀ @ x = V (Uᵀ x)``."""
        return self.v @ (self.u.T @ x)

    def truncate(self, tol: float) -> "RkMatrix":
        """Recompress at ``tol`` (see :func:`recompress`)."""
        return recompress([self.u], [self.v], tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RkMatrix(shape={self.shape}, rank={self.rank})"


#: Pending-rank budget of every accumulator (read by
#: :attr:`RkAccumulator.needs_flush`): past it ``HMatrix.commit_axpy``
#: flushes the accumulator mid-stream, which bounds the factor storage and
#: keeps the eventual QR+SVD from going superlinear.
MAX_ACCUMULATED_RANK = 128


class RkAccumulator:
    """Deferred-recompression accumulator for one low-rank block.

    Wraps a *base* :class:`RkMatrix` and a list of pending low-rank
    updates.  :meth:`append` concatenates factors without rounding —
    O(1) in flops — and :meth:`flush` folds everything into the base with
    a **single** :func:`recompress`, so ``n`` updates cost one rounding
    instead of ``n`` (the low-rank update accumulation of BLR solvers).

    When the pending rank exceeds :data:`MAX_ACCUMULATED_RANK`,
    :attr:`needs_flush` turns true and the owner is expected to flush —
    unbounded accumulation would grow the factor storage linearly with
    the update count and make the eventual QR+SVD superlinear.  The
    accumulator never flushes behind the owner's back, which keeps byte
    accounting and flush ordering in the owner's hands.  Its pending
    updates are not readable: the owner flushes before any read.
    """

    __slots__ = ("base", "_us", "_vs", "n_appends", "n_flushes")

    def __init__(self, base: RkMatrix):
        self.base = base
        self._us: List[np.ndarray] = []
        self._vs: List[np.ndarray] = []
        self.n_appends = 0
        self.n_flushes = 0

    # -- inspection -----------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.base.shape

    @property
    def pending_rank(self) -> int:
        return sum(u.shape[1] for u in self._us)

    @property
    def pending_nbytes(self) -> int:
        return sum(u.nbytes + v.nbytes
                   for u, v in zip(self._us, self._vs, strict=True))

    @property
    def needs_flush(self) -> bool:
        """True once the pending rank exceeds :data:`MAX_ACCUMULATED_RANK`.

        The budget is on the *pending* factors only: gating on the base
        rank too would thrash (flush on every append) whenever a block's
        converged rank sits near the budget.
        """
        return self.pending_rank > MAX_ACCUMULATED_RANK

    # -- lifecycle ------------------------------------------------------------
    def append(self, rk: RkMatrix) -> int:
        """Record ``self += rk`` without recompressing.

        Returns the pending bytes the update added (0 for a rank-0 update),
        so owners can account incrementally.
        """
        if rk.shape != self.base.shape:
            raise ConfigurationError(
                f"shape mismatch in accumulator append: "
                f"{rk.shape} vs {self.base.shape}"
            )
        if rk.rank == 0:
            return 0
        self._us.append(rk.u)
        self._vs.append(rk.v)
        self.n_appends += 1
        return rk.u.nbytes + rk.v.nbytes

    def flush(self, tol: float) -> RkMatrix:
        """Fold every pending update into the base with one
        :func:`recompress` of ``[base | pending]``.

        Returns the new base (also stored on :attr:`base`).  With no
        pending updates this is a no-op returning the base unchanged.
        """
        if not self._us:
            return self.base
        self.base = recompress([self.base.u, *self._us],
                               [self.base.v, *self._vs], tol)
        self._us.clear()
        self._vs.clear()
        self.n_flushes += 1
        return self.base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RkAccumulator(shape={self.shape}, base_rank={self.base.rank}, "
            f"pending_rank={self.pending_rank})"
        )

