"""Tests for the runtime determinism sanitizer (``repro.sanitize``).

Each trap is demonstrated on a deliberately broken fixture — a wall-clock
read mid-event, an unseeded global random draw, a set at an order-sensitive
boundary, a crediting imbalance — and each has a near-identical correct
twin that must run trap-free.  A final smoke test checks a sanitized
pipeline run is bit-identical with an unsanitized one: the sanitizer is a
pure detector.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import sanitize
from repro.sanitize import SanitizerTrap
from repro.simcore import AllOf, Environment


@pytest.fixture(autouse=True)
def _guards_restored():
    """Leave the process clock/RNG untouched for the rest of the suite."""
    yield
    sanitize.uninstall_guards()


def _run_trapped(proc_fn):
    env = Environment(sanitize=True)
    env.process(proc_fn(env))
    with pytest.raises(SanitizerTrap) as excinfo:
        env.run()
    return str(excinfo.value)


# -- wall-clock and global-RNG guards -------------------------------------


class TestClockAndRandomGuards:
    def test_wall_clock_read_during_event_traps(self):
        def broken(env):
            yield env.sleep(1.0)
            time.perf_counter()

        message = _run_trapped(broken)
        assert "time.perf_counter()" in message
        assert "D202" in message

    def test_global_random_draw_during_event_traps(self):
        def broken(env):
            yield env.sleep(1.0)
            random.random()

        message = _run_trapped(broken)
        assert "random.random()" in message
        assert "D201" in message

    def test_guards_are_transparent_outside_event_execution(self):
        env = Environment(sanitize=True)
        assert sanitize.guards_installed()
        # The harness (pytest, the bench timer) keeps its wall clock.
        assert isinstance(time.perf_counter(), float)
        assert 0.0 <= random.random() < 1.0

        def fine(env):
            yield env.sleep(1.0)

        env.process(fine(env))
        env.run()
        assert isinstance(time.perf_counter(), float)

    def test_install_is_idempotent_and_uninstall_restores(self):
        originals = (time.perf_counter, random.random)
        sanitize.install_guards()
        patched = (time.perf_counter, random.random)
        sanitize.install_guards()
        assert (time.perf_counter, random.random) == patched
        sanitize.uninstall_guards()
        assert (time.perf_counter, random.random) == originals
        assert not sanitize.guards_installed()

    def test_seeded_stream_randomness_stays_trap_free(self):
        from repro.simcore import RandomStreams

        streams = RandomStreams(7)

        def fine(env):
            yield env.sleep(streams.jitter("svc", 1.0, 0.1))

        env = Environment(sanitize=True)
        env.process(fine(env))
        env.run()
        assert env.now > 0.0


# -- order-sensitive boundaries -------------------------------------------


class TestOrderedBoundaries:
    def test_condition_built_from_a_set_traps(self):
        env = Environment(sanitize=True)
        events = {env.sleep(1.0), env.sleep(2.0)}
        with pytest.raises(SanitizerTrap, match="D203"):
            AllOf(env, events)

    def test_condition_built_from_a_list_is_fine(self):
        env = Environment(sanitize=True)
        done = AllOf(env, [env.sleep(1.0), env.sleep(2.0)])
        env.run(done)
        assert env.now == 2.0

    def test_check_ordered_names_the_boundary(self):
        with pytest.raises(SanitizerTrap, match="batch coalescing"):
            sanitize.check_ordered(frozenset({1, 2}), "batch coalescing")
        sanitize.check_ordered([1, 2], "batch coalescing")
        sanitize.check_ordered((1, 2), "batch coalescing")


# -- crediting validation -------------------------------------------------


class TestCreditingValidation:
    def test_zero_and_negative_counts_trap(self):
        def broken(env):
            yield env.sleep(1.0)
            env.credit_events(0)

        assert "credit_events(0)" in _run_trapped(broken)

        def negative(env):
            yield env.sleep(1.0)
            env.credit_events(-2)

        assert "credit_events(-2)" in _run_trapped(negative)

    def test_non_integer_count_traps(self):
        def broken(env):
            yield env.sleep(1.0)
            env.credit_events(1.5)

        assert "credit_events(1.5)" in _run_trapped(broken)

    def test_crediting_outside_event_execution_traps(self):
        env = Environment(sanitize=True)
        with pytest.raises(SanitizerTrap, match="outside event execution"):
            env.credit_events(2)

    def test_valid_crediting_counts_like_unsanitized(self):
        def fast(env):
            yield env.sleep(1.0)
            env.credit_events(2)

        env = Environment(sanitize=True)
        env.process(fast(env))
        env.run()
        plain = Environment()
        plain.process(fast(plain))
        plain.run()
        assert env.events_processed == plain.events_processed


# -- enablement and end-to-end identity -----------------------------------


class TestEnablement:
    def test_default_enabled_reads_the_environment_variable(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize.default_enabled() is False
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize.default_enabled() is False
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.default_enabled() is True
        env = Environment()
        assert env.sanitize is True
        assert Environment(sanitize=False).sanitize is False

    def test_sanitized_run_is_bit_identical(self):
        from repro.bench.experiments import pipeline_chain
        from repro.sweep.store import result_payload
        from repro.workflow.runner import run_pipeline

        pipeline = pipeline_chain(total_cores=96, steps=2)
        sanitized = run_pipeline(pipeline.replace(sanitize=True))
        plain = run_pipeline(pipeline)
        assert result_payload(sanitized) == result_payload(plain)
