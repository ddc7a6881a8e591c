"""Unit tests for repro.utils (rng, timing, tables, validation, logging)."""

from __future__ import annotations

import logging
import types

import numpy as np
import pytest

from repro.utils.logging import get_logger, set_verbosity
from repro.utils.rng import RngRegistry, as_generator, spawn_generators
from repro.utils.tables import Table, format_float, render_table
from repro.utils import timing
from repro.utils.timing import time_call
from repro.utils.validation import (
    ValidationError,
    check_in,
    check_non_negative,
    check_positive,
    check_probability,
    check_shape,
)


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

class TestAsGenerator:
    def test_from_int_is_deterministic(self):
        a = as_generator(42).standard_normal(5)
        b = as_generator(42).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).standard_normal(5)
        b = as_generator(2).standard_normal(5)
        assert not np.allclose(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_from_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        children = spawn_generators(0, 5)
        assert len(children) == 5

    def test_children_are_independent_streams(self):
        children = spawn_generators(0, 3)
        draws = [child.standard_normal(8) for child in children]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_deterministic_given_seed(self):
        first = [g.standard_normal(4) for g in spawn_generators(9, 2)]
        second = [g.standard_normal(4) for g in spawn_generators(9, 2)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_spawn_from_generator(self):
        root = np.random.default_rng(3)
        children = spawn_generators(root, 2)
        assert len(children) == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(seed=1)
        assert registry.get("a") is registry.get("a")

    def test_streams_depend_only_on_seed_and_name(self):
        r1 = RngRegistry(seed=5)
        r2 = RngRegistry(seed=5)
        # Create in different orders; streams must still match by name.
        r1.get("x")
        a = r1.get("y").standard_normal(4)
        b = r2.get("y").standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        registry = RngRegistry(seed=5)
        a = registry.get("a").standard_normal(4)
        b = registry.get("b").standard_normal(4)
        assert not np.allclose(a, b)

    def test_reset_single(self):
        registry = RngRegistry(seed=0)
        first = registry.get("s").standard_normal(3)
        registry.reset("s")
        again = registry.get("s").standard_normal(3)
        np.testing.assert_array_equal(first, again)

    def test_reset_all_and_names(self):
        registry = RngRegistry(seed=0)
        registry.get("a")
        registry.get("b")
        assert set(registry.names()) == {"a", "b"}
        registry.reset()
        assert set(registry.names()) == set()


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

class TestTimeCall:
    def test_returns_result_and_positive_time(self):
        seconds, result = time_call(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0.0

    def test_repeats_take_minimum(self, monkeypatch):
        # (start, end) readings of three calls lasting 4, 0.5 and 2 s.
        readings = iter([0.0, 4.0, 10.0, 10.5, 20.0, 22.0])
        monkeypatch.setattr(timing, "time", types.SimpleNamespace(
            perf_counter=lambda: next(readings)))
        calls = []

        def count():
            calls.append(1)
            return len(calls)

        seconds, result = time_call(count, repeats=3)
        assert result == 3
        assert seconds == 0.5

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            time_call(sum, [1], repeats=0)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

class TestFormatFloat:
    def test_zero(self):
        assert format_float(0.0) == "0"

    def test_nan(self):
        assert format_float(float("nan")) == "nan"

    def test_small_uses_scientific(self):
        assert "e" in format_float(1.23e-7)

    def test_mid_range_plain(self):
        assert "e" not in format_float(12.5)


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["a", "bbbb"], [[1, 2], [30, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        # all data lines have the same width
        assert len(lines[2]) == len(lines[3]) == len(lines[4])

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_float_cells_formatted(self):
        text = render_table(["x"], [[0.000123456]])
        assert "0.0001235" in text or "1.235e-04" in text


class TestTable:
    def test_add_row_and_column(self):
        table = Table(["n", "value"])
        table.add_row(1, 2.0).add_row(2, 3.0)
        assert table.column("value") == [2.0, 3.0]

    def test_add_row_arity_checked(self):
        with pytest.raises(ValueError):
            Table(["a"]).add_row(1, 2)

    def test_unknown_column(self):
        with pytest.raises(ValueError):
            Table(["a"]).column("b")

    def test_render_roundtrip(self):
        table = Table(["name"], title="hello")
        table.add_row("x")
        assert "hello" in table.render()
        assert "x" in str(table)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_check_positive_accepts(self):
        check_positive("x", 1)
        check_positive("x", 0.5)

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValidationError):
            check_positive("x", value)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ValidationError):
            check_non_negative("x", -1e-9)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_check_probability_accepts(self, value):
        check_probability("p", value)

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_check_probability_rejects(self, value):
        with pytest.raises(ValidationError):
            check_probability("p", value)

    def test_check_shape_exact_and_wildcard(self):
        check_shape("m", np.zeros((3, 4)), (3, 4))
        check_shape("m", np.zeros((3, 4)), (-1, 4))
        with pytest.raises(ValidationError):
            check_shape("m", np.zeros((3, 4)), (4, 3))
        with pytest.raises(ValidationError):
            check_shape("m", np.zeros(3), (3, 1))

    def test_check_in(self):
        check_in("mode", "a", ("a", "b"))
        with pytest.raises(ValidationError):
            check_in("mode", "c", ("a", "b"))

    def test_validation_error_is_value_error(self):
        assert issubclass(ValidationError, ValueError)


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------

class TestLogging:
    def test_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("core.gibbs").name == "repro.core.gibbs"
        assert get_logger("repro.mpi").name == "repro.mpi"

    def test_set_verbosity_levels(self):
        logger = set_verbosity("warning")
        assert logger.level == logging.WARNING
        logger = set_verbosity(logging.DEBUG)
        assert logger.level == logging.DEBUG

    def test_set_verbosity_installs_single_handler(self):
        set_verbosity("info")
        set_verbosity("info")
        handlers = logging.getLogger("repro").handlers
        assert len(handlers) == 1
