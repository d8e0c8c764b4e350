"""Engine microbenchmarks: event throughput of the DES substrate.

These are conventional pytest-benchmark measurements (repeated timing)
of the hot paths every experiment exercises: the event heap, callback
chains and the placement rule.
"""

from repro.core.placement import worst_fit
from repro.core.system import SimulationConfig, run_open_system
from repro.sim import Simulator
from repro.workload import das_s_128, das_t_900


def test_bench_event_heap_throughput(benchmark):
    def run_defer_storm():
        sim = Simulator()
        callbacks = (lambda event: None,)
        for i in range(5_000):
            sim.defer(float(i % 97), callbacks)
        sim.run()
        return sim.events_processed

    events = benchmark(run_defer_storm)
    assert events == 5_000


def test_bench_callback_chain(benchmark):
    """One self-rescheduling callback: the arrival-source pattern."""
    def run_chain():
        sim = Simulator()
        count = 0

        def tick(_event):
            nonlocal count
            count += 1
            if count < 2_000:
                sim.defer(1.0, callbacks)

        callbacks = (tick,)
        sim.defer(1.0, callbacks)
        sim.run()
        return count

    assert benchmark(run_chain) == 2_000


def test_bench_event_heap_churn(benchmark):
    """Hold ~1000 events while pushing/popping 5000 more (the typical
    steady-state churn pattern of a queueing simulation)."""
    import numpy as np

    def churn():
        sim = Simulator()
        delays = np.random.default_rng(0).exponential(10.0, 6_000)
        remaining = iter(delays[1_000:].tolist())

        def reschedule(_event):
            delay = next(remaining, None)
            if delay is not None:
                sim.defer(delay, callbacks)

        callbacks = (reschedule,)
        for delay in delays[:1_000].tolist():
            sim.defer(delay, callbacks)
        sim.run()
        return sim.events_scheduled

    assert benchmark(churn) == 6_000


def test_bench_worst_fit_placement(benchmark):
    free = [17, 32, 9, 28]
    components = (16, 16, 12)

    result = benchmark(worst_fit, components, free)
    assert result is not None


def test_bench_full_simulation_jobs_per_second(benchmark):
    """End-to-end cost of one simulated job under the GS policy."""
    sizes, service = das_s_128(), das_t_900()
    config = SimulationConfig(policy="GS", component_limit=16,
                              warmup_jobs=100, measured_jobs=2_000,
                              seed=3, batch_size=200)

    def run():
        return run_open_system(config, sizes, service, 0.004)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.report.completed_jobs == 2_000
