"""Unit tests for statistics monitors (repro.sim.stats)."""

import math

import pytest

from repro.sim import (
    Counter,
    Histogram,
    SeriesRecorder,
    Simulator,
    Tally,
    TimeWeighted,
)


class TestCounter:
    def test_increment_and_reset(self):
        c = Counter("events")
        c.increment()
        c.increment(5)
        assert c.count == 6
        c.reset()
        assert c.count == 0


class TestTally:
    def test_empty_stats_are_nan(self):
        t = Tally()
        assert math.isnan(t.mean)
        assert math.isnan(t.variance)
        assert math.isnan(t.std)

    def test_single_sample(self):
        t = Tally()
        t.record(4.0)
        assert t.mean == 4.0
        assert t.min == t.max == 4.0
        assert math.isnan(t.variance)

    def test_known_values(self):
        t = Tally()
        for x in (2.0, 4.0, 6.0):
            t.record(x)
        assert t.mean == 4.0
        assert t.variance == 4.0
        assert t.std == 2.0
        assert t.total == 12.0

    def test_merge_empty_cases(self):
        a, b = Tally(), Tally()
        b.record(1.0)
        a.merge(b)
        assert a.mean == 1.0
        a.merge(Tally())  # merging empty changes nothing
        assert a.count == 1


class TestTimeWeighted:
    def test_time_average_of_step_signal(self):
        sim = Simulator()
        tw = TimeWeighted(sim, initial=0.0)

        def proc():
            yield sim.timeout(2.0)
            tw.set(10.0)   # 0 for 2 s
            yield sim.timeout(3.0)
            tw.set(0.0)    # 10 for 3 s

        sim.process(proc())
        sim.run()
        # Area = 0*2 + 10*3 = 30 over 5 s.
        assert tw.mean == pytest.approx(6.0)

    def test_add_shifts_level(self):
        sim = Simulator()
        tw = TimeWeighted(sim, initial=1.0)
        tw.add(2.0)
        assert tw.value == 3.0
        tw.add(-3.0)
        assert tw.value == 0.0

    def test_mean_before_time_advances(self):
        sim = Simulator()
        tw = TimeWeighted(sim, initial=7.0)
        assert tw.mean == 7.0


class TestHistogram:
    def test_binning_and_overflow(self):
        h = Histogram(0.0, 10.0, nbins=10)
        for x in (0.5, 1.5, 1.6, 9.9, -1.0, 10.0, 25.0):
            h.record(x)
        assert h.count == 7
        assert h.underflow == 1
        assert h.overflow == 2
        assert h.bins[0] == 1
        assert h.bins[1] == 2
        assert h.bins[9] == 1

    def test_percentile_midpoint(self):
        h = Histogram(0.0, 100.0, nbins=100)
        for x in range(100):
            h.record(x + 0.5)
        assert h.percentile(50) == pytest.approx(49.5, abs=1.5)
        assert h.percentile(95) == pytest.approx(94.5, abs=1.5)

    def test_percentile_empty_is_nan(self):
        assert math.isnan(Histogram(0, 1, 4).percentile(50))

    def test_bin_edges(self):
        h = Histogram(0.0, 1.0, nbins=4)
        assert list(h.bin_edges()) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(5, 5, 3)
        with pytest.raises(ValueError):
            Histogram(0, 1, 0)


class TestSeriesRecorder:
    def test_records_and_converts(self):
        s = SeriesRecorder("lat")
        s.record(1.0, 10.0)
        s.record(2.0, 20.0)
        t, v = s.to_arrays()
        assert list(t) == [1.0, 2.0]
        assert list(v) == [10.0, 20.0]
        assert len(s) == 2

    def test_rate_over_span(self):
        s = SeriesRecorder()
        for i in range(11):
            s.record(i * 0.5, 0.0)  # 11 samples over 5 s
        assert s.rate() == pytest.approx(11 / 5.0)

    def test_rate_with_window(self):
        s = SeriesRecorder()
        for i in range(10):
            s.record(float(i), 0.0)
        assert s.rate(window=(0.0, 4.0)) == pytest.approx(5 / 4.0)

    def test_rate_empty(self):
        assert SeriesRecorder().rate() == 0.0
