"""Unit and property tests for random streams and statistics monitors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import RandomStreams, TallyMonitor


class TestRandomStreams:
    def test_streams_are_deterministic_across_instances(self):
        a = RandomStreams(seed=7).stream("network").random(5)
        b = RandomStreams(seed=7).stream("network").random(5)
        assert np.allclose(a, b)

    def test_streams_are_independent_of_request_order(self):
        r1 = RandomStreams(seed=3)
        first_net = r1.stream("network").random(3)
        r2 = RandomStreams(seed=3)
        r2.stream("pfs").random(10)  # interleave another stream first
        second_net = r2.stream("network").random(3)
        assert np.allclose(first_net, second_net)

    def test_different_names_differ(self):
        rs = RandomStreams(seed=1)
        assert not np.allclose(rs.stream("a").random(4), rs.stream("b").random(4))

    def test_jitter_zero_cv_is_exact(self):
        assert RandomStreams(0).jitter("x", 2.5, 0.0) == 2.5

    def test_jitter_mean_is_respected(self):
        rs = RandomStreams(0)
        samples = [rs.jitter("j", 10.0, 0.2) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.05)

    def test_jitter_validation(self):
        rs = RandomStreams(0)
        with pytest.raises(ValueError):
            rs.jitter("x", -1.0, 0.1)
        with pytest.raises(ValueError):
            rs.jitter("x", 1.0, -0.1)

    def test_contains_and_len(self):
        rs = RandomStreams(0)
        rs.stream("a")
        assert "a" in rs and "b" not in rs
        assert len(rs) == 1


class TestTallyMonitor:
    def test_basic_statistics(self):
        m = TallyMonitor("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            m.observe(v)
        assert m.count == 4
        assert m.mean == pytest.approx(2.5)
        assert m.minimum == 1.0 and m.maximum == 4.0
        assert m.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))

    def test_empty_monitor(self):
        m = TallyMonitor()
        assert m.mean == 0.0 and m.variance == 0.0 and m.count == 0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, values):
        m = TallyMonitor()
        for v in values:
            m.observe(v)
        assert m.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)
        assert m.total == pytest.approx(float(np.sum(values)), rel=1e-9, abs=1e-6)
        if len(values) > 1:
            assert m.variance == pytest.approx(float(np.var(values, ddof=1)), rel=1e-6, abs=1e-3)

    @given(
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=80),
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_combined(self, left, right):
        a, b = TallyMonitor(), TallyMonitor()
        for v in left:
            a.observe(v)
        for v in right:
            b.observe(v)
        merged = a.merge(b)
        combined = left + right
        assert merged.count == len(combined)
        assert merged.mean == pytest.approx(float(np.mean(combined)), rel=1e-6, abs=1e-3)
