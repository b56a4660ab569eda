"""Scaled workloads and memory limits for the reproduction study.

The paper's pipe study runs N ∈ [1e6, 9e6] on a 128 GiB node; the
reproduction runs the same *shape* at ``SCALE_FACTOR`` times smaller N with
a proportionally scaled logical-memory limit, so that the feasibility
boundaries (which algorithm runs out of memory first) land in the same
order.  The limits below were calibrated against the logical peaks
measured by :mod:`repro.memory` on this package's solvers (see
EXPERIMENTS.md for the calibration table).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import SolverConfig

#: The reproduction runs at 1/250 of the paper's unknown counts.
SCALE_FACTOR = 250

#: Scaled analog of Table I's four target sizes (1M, 2M, 4M, 9M).
TABLE1_SIZES = [4_000, 8_000, 16_000, 36_000]

#: Scaled N sweep of the capacity study (Fig. 10): adds the paper's
#: capacity boundaries 1.3M (advanced), 2.5M (multi-fact) and 7M
#: (multi-solve/SPIDO) to the Table I sizes.
PIPE_STUDY_SIZES = [4_000, 5_200, 8_000, 10_000, 16_000, 28_000, 36_000]

#: Scaled industrial (Table II) problem size.  The paper's case has
#: 2,259,468 total unknowns of which 7.5 % are surface unknowns; at 1/250
#: scale that fraction would make the dense part negligible (the n_s²
#: dense-Schur bytes shrink quadratically faster than the total), so the
#: scaled case preserves the *memory ratio* instead: the surface share is
#: raised until the dense Schur complement dominates the footprint the way
#: the paper's 212 GiB Schur dominates its 384 GiB node.  See DESIGN.md.
INDUSTRIAL_SIZE = 13_760

#: Surface-unknown fraction of the scaled industrial case (see above).
INDUSTRIAL_BEM_FRACTION = 0.2732

#: Schur block counts used by the scaled Table II rows: the base rows run
#: the memory-lean blocking, rows 8-9 grow the Schur blocks to trade the
#: spared memory for fewer refactorizations (the paper's rows use 8/4/2 on
#: the 384 GiB node; the scaled gaps between block counts are larger, so
#: the scaled sweep is 4/3/2).
INDUSTRIAL_NB_BASE = 4
INDUSTRIAL_NB_LARGER = (3, 2)


def scaled_n(paper_n: int) -> int:
    """Map a paper problem size onto the reproduction scale."""
    return max(1_000, int(round(paper_n / SCALE_FACTOR)))


def pipe_memory_limit() -> int:
    """Scaled stand-in for the 128 GiB limit of the pipe study node.

    Calibrated against the measured logical peaks of this package's
    solvers on the scaled pipe systems (see EXPERIMENTS.md for the
    calibration table) so that the feasibility ordering of the paper's
    Figure 10 reproduces: the advanced coupling dies first (497 MiB needed
    at scaled N = 36,000), baseline multi-solve next (328 MiB), and the
    compressed multi-solve variant processes the largest system (155 MiB
    at N = 36,000).  Multi-factorization sits between the advanced
    coupling and multi-solve per coupling flavour.
    """
    return 240 * 1024 * 1024  # 240 MiB


def industrial_memory_limit() -> int:
    """Scaled stand-in for the 384 GiB limit of the industrial study node.

    Calibrated on the scaled industrial case (see EXPERIMENTS.md): the
    uncompressed advanced coupling (739 MiB) and uncompressed
    multi-factorization (524 MiB) exceed it — the paper's OOM rows — while
    uncompressed multi-solve (498 MiB) fits, BLR brings
    multi-factorization under (509 MiB), and the compressed-Schur rows run
    far below it with head-room for larger Schur blocks.
    """
    # calibrated at 512 MiB for complex128; the industrial runs use the
    # paper's single precision (complex64), which scales every buffer by
    # the itemsize ratio — hence 256 MiB
    return 256 * 1024 * 1024  # 256 MiB


def fig10_config_grid() -> Dict[Tuple[str, str], List[SolverConfig]]:
    """Configuration grid of the capacity study (paper §V-B).

    Keys are ``(algorithm, coupling)``; the harness keeps, per problem
    size, the best time among the listed configurations that fit under the
    memory limit — exactly how Fig. 10 selects its points.  Block-size
    grids are the paper's, scaled by ``SCALE_FACTOR**(2/3)`` where they
    parameterise the surface dimension.
    """
    return {
        ("multi_solve", "spido"): [
            SolverConfig(dense_backend="spido", n_c=n_c)
            for n_c in (32, 64, 128, 256)
        ],
        # one configuration: no n_S block is staged, so n_S barely moves
        # the peak this capacity study is about (Fig. 12 sweeps it)
        ("multi_solve", "hmat"): [SolverConfig(dense_backend="hmat", n_c=128)],
        ("multi_factorization", "spido"): [
            SolverConfig(dense_backend="spido", n_b=n_b)
            for n_b in (1, 2, 4, 8)
        ],
        ("multi_factorization", "hmat"): [
            SolverConfig(dense_backend="hmat", n_b=n_b)
            for n_b in (1, 2, 4, 8)
        ],
        ("advanced", "spido"): [SolverConfig(dense_backend="spido")],
        ("baseline", "spido"): [SolverConfig(dense_backend="spido")],
    }


def fig12_nc_sweep() -> List[int]:
    """Scaled n_c sweep (paper: 32-256 at N=2M)."""
    return [16, 32, 64, 128, 256]


def fig12_ns_sweep() -> List[int]:
    """Scaled n_S sweep (paper: 512-4096 at N=2M; our n_bem is ~40x
    smaller, so the sweep scales accordingly)."""
    return [64, 128, 256, 512, 1024]


def fig13_nb_sweep() -> List[int]:
    """n_b sweep (paper: 1-4 at N=1M)."""
    return [1, 2, 3, 4]
