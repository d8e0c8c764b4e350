"""The timing wrappers: clean removal, self-time arithmetic, no effect."""

import sys
import types

import pytest

import layers


def _snapshot():
    """Every patched attribute, read the way install() reads it."""
    out = {}
    for target in layers.TARGETS:
        holder = layers._resolve(target.owner)
        out[(target.owner, target.name)] = (
            holder, vars(holder).get(target.name, "<absent>"),
            getattr(holder, target.name))
    return out


def test_remove_restores_every_attribute_identically():
    from repro.runner import pool

    before = _snapshot()
    default_worker = pool.execute.__kwdefaults__["worker"]
    tracer = layers.LayerTracer()
    tracer.install()
    patched = _snapshot()
    tracer.remove()
    after = _snapshot()
    for key, (holder, own, seen) in before.items():
        assert after[key][1] is own, key
        assert after[key][2] is seen, key
        assert patched[key][2] is not seen, f"{key} was never patched"
    assert pool.execute.__kwdefaults__["worker"] is default_worker
    assert pool.execute.__kwdefaults__["worker"] is pool.run_task


def test_install_twice_is_refused():
    tracer = layers.LayerTracer()
    with tracer.installed():
        with pytest.raises(RuntimeError):
            tracer.install()


def test_covered_merges_overlaps_and_clips():
    assert layers.covered([], 0.0, 10.0) == 0.0
    assert layers.covered([(1, 3), (2, 5)], 0.0, 10.0) == 4.0
    assert layers.covered([(1, 3), (4, 5)], 0.0, 10.0) == 3.0
    assert layers.covered([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert layers.covered([(2, 8), (3, 4)], 0.0, 10.0) == 6.0


def test_uncovered_is_window_time_outside_every_interval():
    assert layers.uncovered([], [(0, 1)]) == 0.0
    assert layers.uncovered([(0, 10)], []) == 10.0
    # Overlapping windows count once; intervals are merged and clipped.
    assert layers.uncovered([(0, 4), (2, 6), (8, 10)],
                            [(1, 2), (1.5, 3), (5, 9)]) == pytest.approx(
        8.0 - 2.0 - 1.0 - 1.0)
    assert layers.uncovered([(1, 2)], [(0, 5)]) == 0.0


def _span(id, parent, tid, start, end, inner=0.0):
    return layers.Span(id, parent, "x", "f", "arm", "c", 1, tid, start,
                       end, inner)


def test_span_self_times_on_synthetic_nesting():
    spans = [
        _span(1, None, 1, 0.0, 10.0, inner=2.0),  # same-thread child 2 s
        _span(2, 1, 1, 1.0, 3.0),                 # that child
        _span(3, 1, 2, 4.0, 7.0, inner=1.0),      # remote children of 1,
        _span(4, 1, 3, 6.0, 9.0),                 # overlapping: 4..9
        _span(5, 3, 2, 5.0, 6.0),                 # nested under 3
    ]
    self_times = layers.span_self_times(spans)
    assert self_times[1] == pytest.approx(10.0 - 2.0 - 5.0)
    assert self_times[2] == pytest.approx(2.0)
    assert self_times[3] == pytest.approx(3.0 - 1.0)
    assert self_times[4] == pytest.approx(3.0)
    assert self_times[5] == pytest.approx(1.0)


def test_self_time_never_negative():
    spans = [_span(1, None, 1, 0.0, 1.0, inner=0.5),
             _span(2, 1, 2, 0.0, 1.0)]
    assert layers.span_self_times(spans)[1] == 0.0


@pytest.fixture
def toy_module():
    module = types.ModuleType("perfbench_toy")

    def inner(n):
        return sum(range(n))

    def outer(n):
        return module.inner(n) + module.inner(n)

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_nested_wrappers_split_time_into_self_times(toy_module):
    tracer = layers.LayerTracer([
        layers.Target("outer", "perfbench_toy", "outer", coarse=True),
        layers.Target("inner", "perfbench_toy", "inner"),
    ])
    tracer.arm = "toy"
    with tracer.installed():
        with tracer.span("arm", "root"):
            assert toy_module.outer(20000) == 2 * sum(range(20000))
    rows = {row["layer"]: row for row in tracer.aggregates()}
    assert rows["inner"]["calls"] == 2
    assert rows["outer"]["calls"] == 1
    assert rows["inner"]["self_s"] == pytest.approx(rows["inner"]["total_s"])
    assert (rows["outer"]["self_s"] + rows["inner"]["total_s"]
            == pytest.approx(rows["outer"]["total_s"]))
    root = next(span for span in tracer.spans if span.layer == "arm")
    outer = next(span for span in tracer.spans if span.layer == "outer")
    assert outer.parent == root.id
    exact = layers.span_self_times(tracer.spans)
    assert exact[root.id] == pytest.approx(
        (root.end - root.start) - (outer.end - outer.start))
    assert toy_module.outer.__name__ == "outer"


def test_traced_sweep_gives_the_untraced_points():
    import workloads
    from dataclasses import replace
    from repro.analysis.sweeps import sweep
    from repro.workload import WORKLOADS, das_t_900

    workload = replace(workloads.WORKLOADS["fig3-grid"], warmup_jobs=20,
                       measured_jobs=80, loads=(0.4, 0.7))
    curve = workloads.curves(workload, seed=3)[3]  # LS-L16
    args = (curve.label, curve.config, WORKLOADS["das-s-128"](),
            das_t_900(), curve.loads)
    plain = sweep(*args, cache=False)
    tracer = layers.LayerTracer()
    with tracer.installed():
        traced = sweep(*args, cache=False)
    assert traced.points == plain.points
    counts = tracer.counts()["-"]
    assert counts["sim.events"] > 0
    assert counts["placement.fits"] > 0
