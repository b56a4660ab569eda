"""Tests for SolverConfig validation and helpers."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import solve_coupled
from repro.core.config import SolverConfig
from repro.core.schur_tools import HodlrSchurContainer
from repro.memory import MemoryTracker
from repro.utils.errors import ConfigurationError


class TestValidation:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.dense_backend == "spido"
        assert cfg.epsilon == 1e-3

    @pytest.mark.parametrize("field,value", [
        ("dense_backend", "lapack"),
        ("epsilon", 0.0),
        ("epsilon", -1.0),
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("n_c", 0),
        ("n_s_block", 0),
        ("n_b", 0),
        ("memory_limit", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("ordering", "graph"),
        ("nd_leaf_size", 96),
        ("amalgamate", 32),
        ("hodlr_leaf_size", 64),
        ("dense_block_size", 128),
        ("blr_min_panel", 64),
        ("exploit_sparse_rhs", False),
        ("schur_assembly", "randomized"),
        ("randomized_start_rank", 16),
        ("randomized_oversample", 8),
        ("seed", 0),
        ("axpy_max_accumulated_rank", 128),
        ("compressor", "svd"),
        ("refinement_steps", 1),
        ("axpy_accumulate", False),
    ])
    def test_removed_fields_rejected(self, field, value):
        """A caller still passing a removed field fails at construction
        instead of silently running the default."""
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: value})

    def test_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_c = 7


class TestHelpers:
    def test_coupling_name(self):
        assert SolverConfig(dense_backend="spido").coupling_name == "MUMPS/SPIDO"
        assert SolverConfig(dense_backend="hmat").coupling_name == "MUMPS/HMAT"

    def test_blr_config_reflects_compression_flag(self):
        assert SolverConfig(sparse_compression=False).blr_config() is None
        blr = SolverConfig(epsilon=1e-5).blr_config()
        assert blr is not None and blr.tol == 1e-5

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-4])
    def test_compressed_schur_rounds_at_epsilon(self, pipe_small, epsilon):
        """The ℋ container builds ``S`` at ε itself, so every later
        rounding of ``S`` (AXPY, flush, H-LDLᵀ) runs at ε too."""
        cfg = SolverConfig(dense_backend="hmat", epsilon=epsilon)
        container = HodlrSchurContainer(pipe_small, cfg, cfg.make_tracker())
        try:
            assert container.s.tol == cfg.epsilon
        finally:
            container.free()

    def test_make_tracker_honours_limit(self):
        t = SolverConfig(memory_limit=1234).make_tracker("x")
        assert isinstance(t, MemoryTracker)
        assert t.limit_bytes == 1234
        assert SolverConfig().make_tracker().limit_bytes is None

    def test_with_updates_functionally(self):
        cfg = SolverConfig(n_c=64)
        cfg2 = cfg.with_(n_c=128, dense_backend="hmat")
        assert cfg.n_c == 64
        assert cfg2.n_c == 128
        assert cfg2.dense_backend == "hmat"


class TestOptionValuesAreFields:
    def test_switches_are_plain_fields_the_environment_cannot_move(
        self, monkeypatch, pipe_small
    ):
        """The AXPY always accumulates, the symbolic cache is always
        attached and the server's settings are not config fields: the
        variables that used to mirror them no longer reach the config or
        the solution."""
        types = {f.name: f.type for f in dataclasses.fields(SolverConfig)}
        assert "axpy_accumulate" not in types
        assert "reuse_analysis" not in types
        assert not [name for name in types if name.startswith("serve_")]
        config = SolverConfig(dense_backend="hmat", n_b=2)
        before = solve_coupled(pipe_small, "multi_factorization", config)
        for name in ("REPRO_AXPY_ACCUMULATE", "REPRO_REUSE_ANALYSIS",
                     "REPRO_SERVE_BATCHING"):
            monkeypatch.setenv(name, "0")
        assert SolverConfig(dense_backend="hmat", n_b=2) == config
        after = solve_coupled(pipe_small, "multi_factorization", config)
        assert np.array_equal(before.x_s, after.x_s)
        assert after.stats.n_symbolic_reuses == before.stats.n_symbolic_reuses

    def test_api_table_lists_exactly_the_fields(self):
        api = (Path(__file__).parent.parent / "docs" / "api.md").read_text()
        table = api.split("### `SolverConfig` fields")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert rows == fields, (
            f"docs/api.md rows without a field: {sorted(set(rows) - set(fields))}; "
            f"fields without a row: {sorted(set(fields) - set(rows))}"
        )
