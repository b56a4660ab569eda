"""Rank-k (outer product) matrix blocks with SVD recompression.

An :class:`RkMatrix` stores a block as ``U @ V.T`` (plain transpose, so
complex *symmetric* data keeps its symmetry, as the paper's complex
matrices require).  Sums of Rk blocks concatenate the factors and are then
*recompressed* with the standard QR+SVD rounding — the operation whose cost
the paper's §IV-A2 dissociated block sizes (``n_c`` vs ``n_S``) trade
against memory.

:class:`RkAccumulator` batches that recompression: low-rank updates to one
block are *appended* (factors concatenated, no rounding) until a rank
budget trips or :meth:`RkAccumulator.flush` runs — the LUAR-style update
accumulation of BLR/HSS solvers, which turns ``n`` recompressions per
block into roughly one.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.utils.errors import ConfigurationError

def svd_truncate(
    a: np.ndarray, tol: float, max_rank: Optional[int] = None,
    norm_ref: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best low-rank approximation of a dense block by truncated SVD.

    Singular values below ``tol`` times the reference (the largest singular
    value, or ``norm_ref`` when provided — used when rounding a *summand*
    relative to the magnitude of the full accumulated block) are dropped.

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
    rank = _numerical_rank(s, tol, s[0] if norm_ref is None else norm_ref,
                           max_rank)
    u = u[:, :rank] * s[:rank]
    v = vh[:rank].T.copy()
    return u, v


def rank_first(
    a: np.ndarray, tol: float, max_rank: Optional[int] = None,
    norm_ref: Optional[float] = None,
    keep: Optional[Callable[[int], bool]] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Dense block → ``(u, v)`` with ``a ≈ u @ v.T``, rank first.

    The rank ``r = #{σ > tol·ref}`` (``ref`` as in :func:`svd_truncate`,
    capped by ``max_rank``) is decided from the singular *values* and
    vectors are formed for those ``r`` only.  The values are the
    eigenvalues ``σ²`` of the short-side Gram matrix (``A Aᴴ`` for
    ``m ≤ n``: one GEMM, one ``eigh`` of order ``min(m, n)``); the
    factors are the projection onto its top-``r`` eigenvectors ``B`` —
    ``u = B, v = Aᵀ·conj(B)`` or ``u = A·B, v = conj(B)`` — whose error is
    the discarded tail.  Gram eigenvalues carry an absolute error of a
    few ``max(m, n)·eps·σ₀²``, so they resolve the threshold only while
    ``(tol·ref)² ≥ 100·max(m, n)·eps·σ₀²`` — with ``ref = σ₀`` that is
    ``tol ≳ 5e-6`` for 960 float64 columns and never float32 at ``tol =
    1e-3``; otherwise the block's own singular values decide and the
    vectors are :func:`svd_truncate`'s.

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
    bound = 100 * max(m, n) * np.finfo(a.dtype).eps
    resolved = tol * tol >= bound
    if resolved:
        gram = a @ a.conj().T if m <= n else a.conj().T @ a
        if keep is None:
            values, vectors = np.linalg.eigh(gram)
        else:
            values, vectors = np.linalg.eigvalsh(gram), None
        ref2 = values[-1] if norm_ref is None else float(norm_ref) ** 2
        # a norm_ref below σ₀ can still pull the threshold under the bound
        resolved = tol * tol * ref2 >= bound * values[-1]
    if not resolved:
        if keep is not None:
            s = np.linalg.svd(a, compute_uv=False)
            max_rank = _numerical_rank(s, tol, s[0] if norm_ref is None
                                       else norm_ref, max_rank)
            if not keep(max_rank):
                return None
        return svd_truncate(a, tol, max_rank, norm_ref)
    rank = _numerical_rank(values, tol * tol, ref2, max_rank)
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


def _numerical_rank(values: np.ndarray, cut: float, ref: float,
                    max_rank: Optional[int]) -> int:
    """``#{values > cut·ref}``, capped; 0 for a zero reference."""
    rank = int(np.count_nonzero(values > cut * ref)) if ref > 0 else 0
    return rank if max_rank is None else min(rank, max_rank)


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
    def from_dense(
        cls, a: np.ndarray, tol: float, max_rank: Optional[int] = None,
        norm_ref: Optional[float] = None,
    ) -> "RkMatrix":
        """Compress a dense block (see :func:`rank_first`)."""
        return cls(*rank_first(a, tol, max_rank, norm_ref))

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

    def truncate(
        self, tol: float, max_rank: Optional[int] = None,
        norm_ref: Optional[float] = None,
    ) -> "RkMatrix":
        """Recompress via thin QR of both factors + small SVD.

        Cost is ``O((m+n) r² + r³)`` — independent of the dense block size,
        which is what makes hierarchical accumulation affordable.
        """
        r = self.rank
        if r == 0:
            return self
        m, n = self.shape
        if r >= min(m, n):
            # factors thicker than the block: fall back to a dense SVD
            return RkMatrix.from_dense(self.to_dense(), tol, max_rank, norm_ref)
        qu, ru = np.linalg.qr(self.u)
        qv, rv = np.linalg.qr(self.v)
        core = ru @ rv.T
        cu, cv = svd_truncate(core, tol, max_rank, norm_ref)
        return RkMatrix(qu @ cu, qv @ cv)

    def add(
        self, other: "RkMatrix", tol: float,
        max_rank: Optional[int] = None, norm_ref: Optional[float] = None,
    ) -> "RkMatrix":
        """``self + other`` followed by recompression."""
        if self.shape != other.shape:
            raise ConfigurationError(
                f"shape mismatch in Rk add: {self.shape} vs {other.shape}"
            )
        if other.rank == 0:
            return self
        if self.rank == 0:
            return other.truncate(tol, max_rank, norm_ref)
        dtype = np.result_type(self.dtype, other.dtype)
        u = np.hstack([self.u.astype(dtype, copy=False),
                       other.u.astype(dtype, copy=False)])
        v = np.hstack([self.v.astype(dtype, copy=False),
                       other.v.astype(dtype, copy=False)])
        return RkMatrix(u, v).truncate(tol, max_rank, norm_ref)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RkMatrix(shape={self.shape}, rank={self.rank})"


#: Pending-rank budget of every accumulator ``HMatrix.commit_axpy`` makes
#: (its ``RkAccumulator.max_rank``, read when the accumulator is made):
#: past it an accumulator is flushed mid-stream, which bounds the factor
#: storage and keeps the eventual QR+SVD from going superlinear.
MAX_ACCUMULATED_RANK = 128


class RkAccumulator:
    """Deferred-recompression accumulator for one low-rank block.

    Wraps a *base* :class:`RkMatrix` and a list of pending low-rank
    updates.  :meth:`append` concatenates factors without rounding —
    O(1) in flops — and :meth:`flush` folds everything into the base with
    a **single** QR+SVD recompression, so ``n`` updates cost one rounding
    instead of ``n`` (the low-rank update accumulation of BLR solvers).

    ``max_rank`` is the pending-rank budget: when the accumulated (base +
    pending) rank exceeds it, :attr:`needs_flush` turns true and the owner
    is expected to flush — unbounded accumulation would grow the factor
    storage linearly with the update count and make the eventual QR+SVD
    superlinear.  The accumulator never flushes behind the owner's back,
    which keeps byte accounting and flush ordering in the owner's hands.
    """

    __slots__ = ("base", "max_rank", "_us", "_vs",
                 "n_appends", "n_flushes")

    def __init__(self, base: RkMatrix, max_rank: Optional[int] = None):
        if max_rank is not None and max_rank < 1:
            raise ConfigurationError("RkAccumulator max_rank must be >= 1")
        self.base = base
        self.max_rank = max_rank
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
        """True once the pending rank exceeds the configured budget.

        The budget is on the *pending* factors only: gating on the base
        rank too would thrash (flush on every append) whenever a block's
        converged rank sits near the budget.
        """
        if self.max_rank is None:
            return False
        return self.pending_rank > self.max_rank

    # -- algebra over the pending part ---------------------------------------
    def pending_dense(self) -> np.ndarray:
        """Dense sum of the pending (unflushed) updates."""
        m, n = self.base.shape
        dt = self.base.dtype
        if self._us:
            dt = np.result_type(dt, *[u.dtype for u in self._us])
        out = np.zeros((m, n), dtype=dt)
        for u, v in zip(self._us, self._vs, strict=True):
            out += u @ v.T
        return out

    def pending_matvec(self, x: np.ndarray, trans: bool = False) -> np.ndarray:
        """``(sum of pending updates) @ x`` (its transpose with ``trans``)
        without materialising them."""
        out = None
        us, vs = (self._vs, self._us) if trans else (self._us, self._vs)
        for u, v in zip(us, vs, strict=True):
            term = u @ (v.T @ x)
            out = term if out is None else out + term
        if out is None:
            shape = (self.base.shape[int(trans)],) + x.shape[1:]
            out = np.zeros(shape, dtype=np.result_type(self.base.dtype,
                                                       x.dtype))
        return out

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

    def flush(self, tol: float, max_rank: Optional[int] = None,
              norm_ref: Optional[float] = None) -> RkMatrix:
        """Fold every pending update into the base with one recompression.

        Returns the new base (also stored on :attr:`base`).  With no
        pending updates this is a no-op returning the base unchanged.
        """
        if not self._us:
            return self.base
        dtype = np.result_type(self.base.dtype,
                               *[u.dtype for u in self._us])
        parts_u = ([self.base.u] if self.base.rank else []) + self._us
        parts_v = ([self.base.v] if self.base.rank else []) + self._vs
        u = np.hstack([p.astype(dtype, copy=False) for p in parts_u])
        v = np.hstack([p.astype(dtype, copy=False) for p in parts_v])
        self._us.clear()
        self._vs.clear()
        self.base = RkMatrix(u, v).truncate(tol, max_rank, norm_ref)
        self.n_flushes += 1
        return self.base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RkAccumulator(shape={self.shape}, base_rank={self.base.rank}, "
            f"pending_rank={self.pending_rank})"
        )

