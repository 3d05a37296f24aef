"""Unit tests for the synchronisation primitives."""

from __future__ import annotations

import pytest

from repro.simcore import (
    ConditionVar,
    OneShotSignal,
    SimBarrier,
    SimulationError,
    Timeout,
)


class TestSimBarrier:
    def test_all_parties_released_together(self, env):
        barrier = SimBarrier(env, 3)
        times = []

        def party(env, barrier, delay):
            yield Timeout(env, delay)
            yield barrier.wait()
            times.append(env.now)

        for delay in (1.0, 2.0, 5.0):
            env.process(party(env, barrier, delay))
        env.run()
        assert times == [5.0, 5.0, 5.0]
        assert barrier.generations_completed == 1

    def test_barrier_is_reusable(self, env):
        barrier = SimBarrier(env, 2)
        log = []

        def party(env, barrier, name):
            for step in range(3):
                yield Timeout(env, 1)
                yield barrier.wait()
                log.append((name, step, env.now))

        env.process(party(env, barrier, "a"))
        env.process(party(env, barrier, "b"))
        env.run()
        assert barrier.generations_completed == 3
        assert all(t == step + 1 for _, step, t in log)

    def test_invalid_parties(self, env):
        with pytest.raises(SimulationError):
            SimBarrier(env, 0)


class TestConditionVar:
    def test_notify_wakes_in_fifo_order(self, env):
        cv = ConditionVar(env)
        woken = []

        def waiter(env, cv, name):
            yield cv.wait()
            woken.append(name)

        for name in "abc":
            env.process(waiter(env, cv, name))

        def notifier(env, cv):
            yield Timeout(env, 1)
            assert cv.notify(2) == 2
            yield Timeout(env, 1)
            assert cv.notify_all() == 1

        env.process(notifier(env, cv))
        env.run()
        assert woken == ["a", "b", "c"]
        assert cv.notifications == 3

    def test_notify_without_waiters_returns_zero(self, env):
        assert ConditionVar(env).notify() == 0


class TestOneShotSignal:
    def test_wait_before_and_after_set(self, env):
        sig = OneShotSignal(env)
        got = []

        def early(env, sig):
            value = yield sig.wait()
            got.append(("early", value, env.now))

        def late(env, sig):
            yield Timeout(env, 5)
            value = yield sig.wait()
            got.append(("late", value, env.now))

        def setter(env, sig):
            yield Timeout(env, 2)
            sig.set("go")

        env.process(early(env, sig))
        env.process(late(env, sig))
        env.process(setter(env, sig))
        env.run()
        assert ("early", "go", 2.0) in got
        assert ("late", "go", 5.0) in got

    def test_second_set_is_ignored(self, env):
        sig = OneShotSignal(env)
        sig.set(1)
        sig.set(2)
        got = []

        def waiter(env, sig):
            got.append((yield sig.wait()))

        env.process(waiter(env, sig))
        env.run()
        assert got == [1]
