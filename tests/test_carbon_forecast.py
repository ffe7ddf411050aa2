"""Unit tests for forecasts and the replaying carbon API."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonIntensityAPI, CarbonReading
from repro.carbon.forecast import CarbonForecaster, forecast_bounds

from conftest import make_trace


class TestForecastBounds:
    def test_window_min_max(self):
        trace = make_trace([100.0, 50.0, 300.0, 200.0], step_seconds=60.0)
        low, high = forecast_bounds(trace, 0.0, lookahead_steps=2)
        assert (low, high) == (50.0, 100.0)

    def test_current_step_included(self):
        trace = make_trace([400.0, 100.0], step_seconds=60.0)
        low, high = forecast_bounds(trace, 0.0, lookahead_steps=2)
        assert high == 400.0  # L <= c(t) <= U must be possible

    def test_rejects_nonpositive_lookahead(self):
        trace = make_trace([1.0])
        with pytest.raises(ValueError):
            forecast_bounds(trace, 0.0, lookahead_steps=0)

    def test_window_slides(self):
        trace = make_trace([400.0, 100.0, 50.0, 600.0], step_seconds=60.0)
        assert forecast_bounds(trace, 0.0, 2) == (100.0, 400.0)
        assert forecast_bounds(trace, 120.0, 2) == (50.0, 600.0)


class TestForecaster:
    def test_perfect_forecast_matches_bounds(self):
        trace = make_trace([10.0, 20.0, 30.0], step_seconds=60.0)
        forecaster = CarbonForecaster(trace, lookahead_steps=3)
        assert forecaster.bounds(0.0) == (10.0, 30.0)

    def test_cache_within_step(self):
        trace = make_trace([10.0, 20.0], step_seconds=60.0)
        forecaster = CarbonForecaster(trace, lookahead_steps=1)
        assert forecaster.bounds(0.0) == forecaster.bounds(30.0)

    def test_error_keeps_ordering(self):
        trace = make_trace([10.0, 500.0, 20.0], step_seconds=60.0)
        forecaster = CarbonForecaster(trace, error_std=0.5, seed=3)
        low, high = forecaster.bounds(0.0)
        assert 0 <= low <= high

    def test_error_perturbs_bounds(self):
        trace = make_trace([10.0, 500.0, 20.0], step_seconds=60.0)
        exact = CarbonForecaster(trace).bounds(0.0)
        noisy = CarbonForecaster(trace, error_std=0.5, seed=3).bounds(0.0)
        assert noisy != exact

    def test_rejects_bad_params(self):
        trace = make_trace([1.0])
        with pytest.raises(ValueError):
            CarbonForecaster(trace, lookahead_steps=0)
        with pytest.raises(ValueError):
            CarbonForecaster(trace, error_std=-1.0)


class TestCarbonAPI:
    def test_reading_fields(self):
        trace = make_trace([100.0, 40.0, 250.0], step_seconds=60.0)
        api = CarbonIntensityAPI(trace, lookahead_steps=3)
        reading = api.reading(0.0)
        assert reading.intensity == 100.0
        assert reading.lower_bound == 40.0
        assert reading.upper_bound == 250.0
        assert reading.time == 0.0

    def test_intensity_bounds_consistent(self):
        trace = make_trace([100.0, 40.0, 250.0], step_seconds=60.0)
        api = CarbonIntensityAPI(trace, lookahead_steps=3)
        for t in (0.0, 65.0, 125.0):
            reading = api.reading(t)
            assert reading.lower_bound <= reading.intensity <= reading.upper_bound

    def test_query_count_increments(self):
        api = CarbonIntensityAPI(make_trace([1.0]))
        assert api.query_count == 0
        api.reading(0.0)
        api.reading(1.0)
        assert api.query_count == 2

    def test_convenience_accessors(self):
        trace = make_trace([100.0, 40.0], step_seconds=60.0)
        api = CarbonIntensityAPI(trace, lookahead_steps=2)
        assert api.intensity(0.0) == 100.0
        assert api.bounds(0.0) == (40.0, 100.0)


def memo_free_reading(api: CarbonIntensityAPI, t: float) -> CarbonReading:
    """A reading recomputed from the forecaster and the trace per call."""
    low, high = api.bounds(t)
    return CarbonReading(
        time=t, intensity=api.intensity(t), lower_bound=low, upper_bound=high
    )


class TestReadingReuse:
    """``reading`` reuses its step's intensity and bounds, yet reads and
    draws exactly like a per-call recompute."""

    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(("reading", "bounds", "intensity")),
                st.integers(min_value=0, max_value=4),
                st.sampled_from((0.0, 0.25, 0.5, 0.99)),
            ),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_interleaved_calls_match_a_memo_free_reference(self, calls, seed):
        trace = make_trace([120.0, 40.0, 300.0, 80.0, 200.0], step_seconds=60.0)
        api = CarbonIntensityAPI(
            trace, lookahead_steps=2, forecast_error_std=0.4, seed=seed
        )
        ref = CarbonIntensityAPI(
            trace, lookahead_steps=2, forecast_error_std=0.4, seed=seed
        )
        for kind, step, offset in calls:
            t = (step + offset) * 60.0
            if kind == "reading":
                assert api.reading(t) == memo_free_reading(ref, t)
            else:
                assert getattr(api, kind)(t) == getattr(ref, kind)(t)
        state = api._forecaster._rng.bit_generator.state
        assert state == ref._forecaster._rng.bit_generator.state

    def test_bounds_at_another_step_forces_a_redraw(self):
        trace = make_trace([120.0, 40.0, 300.0], step_seconds=60.0)
        api = CarbonIntensityAPI(trace, forecast_error_std=0.4, seed=1)
        first = api.reading(0.0)
        assert api.reading(30.0).upper_bound == first.upper_bound
        api.bounds(90.0)  # a geo snapshot at another step
        redrawn = api.reading(40.0)
        assert redrawn.intensity == first.intensity
        assert redrawn.upper_bound != first.upper_bound
