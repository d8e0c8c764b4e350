"""Property-based tests (hypothesis) for the simulation engine substrate."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    BatchMeans,
    DiscreteEmpirical,
    Simulator,
    Tally,
    TimeWeighted,
)

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=40,
)


#: A random schedule: ``(delay, urgent, nested delay or None)`` per
#: entry; a nested delay makes the callback defer a follow-up event.
schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        st.booleans(),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0,
                                       allow_nan=False)),
    ),
    min_size=1,
    max_size=40,
)


def _run_schedule(schedule, rng=None):
    """Run ``schedule``; the ``(time, tag)`` sequence of fired events."""
    sim = Simulator()
    seen = []

    def fire(event):
        tag, nested = event.value
        seen.append((sim.now, tag))
        if nested is not None:
            jitter = rng.random() if rng is not None else 0.0
            sim.defer(nested + jitter, callbacks, (f"{tag}+", None))

    callbacks = (fire,)
    for index, (delay, urgent, nested) in enumerate(schedule):
        sim.defer(delay, callbacks, (str(index), nested), priority=urgent)
    sim.run()
    assert sim.events_processed == sim.events_scheduled == len(seen)
    return seen


@given(schedules)
def test_events_always_processed_in_nondecreasing_time(schedule):
    seen = _run_schedule(schedule)
    times = [t for t, _ in seen]
    assert times == sorted(times)
    nested = sum(1 for _, _, n in schedule if n is not None)
    assert len(seen) == len(schedule) + nested


@given(delays)
def test_equal_time_events_fire_in_scheduling_order(ds):
    sim = Simulator()
    seen = []
    record = (lambda e: seen.append((sim.now, e.value)),)
    for index, d in enumerate(ds):
        sim.defer(d, record, index)
    sim.run()
    # Sorting by (time, scheduling order) is exactly the fired order.
    assert seen == sorted(seen)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_tally_agrees_with_numpy(values):
    t = Tally()
    t.record_many(values)
    arr = np.asarray(values)
    assert math.isclose(t.mean, arr.mean(), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(
        t.variance, arr.var(ddof=1), rel_tol=1e-6, abs_tol=1e-3
    )
    assert t.minimum == arr.min()
    assert t.maximum == arr.max()


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_time_weighted_mean_is_within_signal_range(steps):
    tw = TimeWeighted()
    t = 0.0
    lo, hi = 0.0, 0.0
    for dt, level in steps:
        t += dt
        tw.update(t, level)
        lo = min(lo, level)
        hi = max(hi, level)
    end = t + 1.0
    mean = tw.mean(end)
    assert lo - 1e-9 <= mean <= hi + 1e-9


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=4,
        max_size=200,
    ),
    st.integers(min_value=1, max_value=20),
)
def test_batch_means_grand_mean_matches_tally(values, batch):
    bm = BatchMeans(batch_size=batch)
    t = Tally()
    for v in values:
        bm.record(v)
        t.record(v)
    assert math.isclose(bm.mean, t.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert bm.num_batches == len(values) // batch


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=128),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_discrete_empirical_invariants(masses):
    values = sorted(masses)
    weights = [masses[v] for v in values]
    d = DiscreteEmpirical(values, weights)
    # Probabilities sum to one, CDF is monotone and hits 1 at the top.
    assert math.isclose(float(d.probabilities.sum()), 1.0, rel_tol=1e-9)
    cdf_vals = [d.cdf(v) for v in values]
    assert all(b >= a for a, b in zip(cdf_vals, cdf_vals[1:]))
    assert math.isclose(cdf_vals[-1], 1.0, rel_tol=1e-9)
    # The mean lies inside the support hull.
    assert values[0] <= d.mean <= values[-1]
    # Sampling stays within support.
    draws = d.sample_array(np.random.default_rng(0), 500)
    assert set(np.unique(draws)).issubset(set(float(v) for v in values))


@given(st.integers(min_value=0, max_value=2**32 - 1), schedules)
@settings(max_examples=25)
def test_simulation_is_deterministic_for_fixed_seed(seed, schedule):
    def run_once():
        return _run_schedule(schedule, np.random.default_rng(seed))

    assert run_once() == run_once()
