"""Coupled FEM/BEM problem container with a manufactured exact solution.

A :class:`CoupledProblem` packages the four blocks of the paper's system (1)

.. math::

    \\begin{pmatrix} A_{vv} & A_{sv}^T \\\\ A_{sv} & A_{ss} \\end{pmatrix}
    \\begin{pmatrix} x_v \\\\ x_s \\end{pmatrix}
    = \\begin{pmatrix} b_v \\\\ b_s \\end{pmatrix}

together with the point coordinates the solvers need (nested-dissection
ordering for the sparse part, cluster trees for the compressed dense part)
and a manufactured exact solution.  As in the paper's pipe test case, "the
test case is designed so as we know the expected result in advance" — the
right-hand side is built from a smooth chosen solution so each algorithm's
relative error can be measured (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.fembem.bem import KernelMatrix
from repro.memory.model import ProblemDims
from repro.utils.errors import ConfigurationError


def smooth_field(points: np.ndarray, dtype, seed: int = 0) -> np.ndarray:
    """A smooth deterministic test field evaluated at ``points``.

    A small random (seeded) combination of low-frequency trigonometric
    modes — smooth enough to be physically plausible, generic enough not
    to be accidentally in any operator's kernel.
    """
    rng = np.random.default_rng(seed)
    pts = np.asarray(points, dtype=np.float64)
    span = np.maximum(pts.max(axis=0) - pts.min(axis=0), 1.0)
    scaled = (pts - pts.min(axis=0)) / span
    out = np.zeros(len(pts), dtype=np.float64)
    for _ in range(3):
        freq = rng.uniform(0.5, 2.0, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        amp = rng.uniform(0.5, 1.0)
        out += amp * np.sin(2.0 * np.pi * scaled @ freq + phase.sum())
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        imag = np.zeros(len(pts))
        for _ in range(3):
            freq = rng.uniform(0.5, 2.0, size=3)
            phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
            amp = rng.uniform(0.5, 1.0)
            imag += amp * np.cos(2.0 * np.pi * scaled @ freq + phase.sum())
        out = out + 1j * imag
    return out.astype(dtype)


@dataclass
class CoupledProblem:
    """A coupled sparse/dense FEM/BEM linear system with known solution.

    Attributes
    ----------
    a_vv:
        Sparse pattern-symmetric volume block, CSR ``(n_v, n_v)``.
    a_sv:
        Sparse coupling block, CSR ``(n_s, n_v)``; the upper-right block of
        the system is ``a_sv.T`` as in the paper's equation (1).
    a_ss_op:
        Lazy dense surface operator (see :class:`KernelMatrix`).
    coords_v, coords_s:
        Volume / surface point coordinates.
    b_v, b_s:
        Right-hand side built from the manufactured solution.
    x_v_exact, x_s_exact:
        The manufactured solution.
    symmetric:
        True when both diagonal blocks have symmetric values.
    """

    name: str
    a_vv: sp.csr_matrix
    a_sv: sp.csr_matrix
    a_ss_op: KernelMatrix
    coords_v: np.ndarray
    coords_s: np.ndarray
    b_v: np.ndarray
    b_s: np.ndarray
    x_v_exact: np.ndarray
    x_s_exact: np.ndarray
    symmetric: bool
    dtype: np.dtype = field(default=None)

    def __post_init__(self):
        n_v = self.a_vv.shape[0]
        n_s = self.a_ss_op.shape[0]
        if self.a_vv.shape != (n_v, n_v):
            raise ConfigurationError("a_vv must be square")
        if self.a_ss_op.shape != (n_s, n_s):
            raise ConfigurationError("a_ss_op must be square")
        if self.a_sv.shape != (n_s, n_v):
            raise ConfigurationError(
                f"a_sv must be (n_s, n_v) = ({n_s}, {n_v}), got {self.a_sv.shape}"
            )
        if len(self.coords_v) != n_v or len(self.coords_s) != n_s:
            raise ConfigurationError("coordinate counts must match block sizes")
        if self.dtype is None:
            self.dtype = np.result_type(
                self.a_vv.dtype, self.a_sv.dtype, self.a_ss_op.dtype
            )

    # -- sizes ----------------------------------------------------------------
    @property
    def n_fem(self) -> int:
        return self.a_vv.shape[0]

    @property
    def n_bem(self) -> int:
        return self.a_ss_op.shape[0]

    @property
    def n_total(self) -> int:
        return self.n_fem + self.n_bem

    @property
    def dims(self) -> ProblemDims:
        return ProblemDims(self.n_total, self.n_fem, self.n_bem)

    # -- quality metrics --------------------------------------------------------
    def relative_error(self, x_v: np.ndarray, x_s: np.ndarray) -> float:
        """``‖x − x_exact‖₂ / ‖x_exact‖₂`` on the concatenated solution."""
        exact = np.concatenate([self.x_v_exact, self.x_s_exact])
        got = np.concatenate([np.asarray(x_v).ravel(), np.asarray(x_s).ravel()])
        return float(np.linalg.norm(got - exact) / np.linalg.norm(exact))

    def residual_norm(self, x_v: np.ndarray, x_s: np.ndarray) -> float:
        """Relative residual ``‖Ax − b‖₂ / ‖b‖₂`` (blockwise, no dense A_ss)."""
        x_v = np.asarray(x_v).ravel()
        x_s = np.asarray(x_s).ravel()
        r_v = self.a_vv @ x_v + self.a_sv.T @ x_s - self.b_v
        r_s = self.a_sv @ x_v + self.a_ss_op.matvec(x_s) - self.b_s
        num = np.sqrt(np.linalg.norm(r_v) ** 2 + np.linalg.norm(r_s) ** 2)
        den = np.sqrt(
            np.linalg.norm(self.b_v) ** 2 + np.linalg.norm(self.b_s) ** 2
        )
        return float(num / den)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoupledProblem({self.name!r}, n_fem={self.n_fem}, "
            f"n_bem={self.n_bem}, dtype={np.dtype(self.dtype).name}, "
            f"symmetric={self.symmetric})"
        )


def manufacture_rhs(
    a_vv: sp.csr_matrix,
    a_sv: sp.csr_matrix,
    a_ss_op: KernelMatrix,
    coords_v: np.ndarray,
    coords_s: np.ndarray,
    dtype,
    seed: int = 0,
):
    """Build ``(b_v, b_s, x_v_exact, x_s_exact)`` from a smooth solution."""
    x_v = smooth_field(coords_v, dtype, seed=seed)
    x_s = smooth_field(coords_s, dtype, seed=seed + 1)
    b_v = a_vv @ x_v + a_sv.T @ x_s
    b_s = a_sv @ x_v + a_ss_op.matvec(x_s)
    return (
        np.asarray(b_v, dtype=dtype),
        np.asarray(b_s, dtype=dtype),
        x_v,
        x_s,
    )
