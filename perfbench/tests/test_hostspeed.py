"""Wall times are scaled by the reference loop's time around them."""

import os

import pytest

import hostspeed


def test_segment_scales_by_the_mean_probe_around_it(monkeypatch):
    probes = iter([2 * hostspeed.REFERENCE_S,   # at construction
                   4 * hostspeed.REFERENCE_S,   # after the first segment
                   hostspeed.REFERENCE_S])      # after the second
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    clock = hostspeed.HostClock()
    with clock.segment() as first:
        pass
    with clock.segment() as second:
        pass
    # A host at half or a third of the reference speed: the loop took
    # 2x and 4x, then 4x and 1x, as long as on the reference host.
    assert first.factor == pytest.approx(1 / 3)
    assert second.factor == pytest.approx(1 / 2.5)
    assert first.seconds == pytest.approx(first.wall / 3)
    assert clock.factors == [first.factor, second.factor]


def test_reference_loop_is_deterministic():
    assert hostspeed.reference_loop() == hostspeed.reference_loop()


def test_probe_gives_back_every_cpu():
    cpus = os.sched_getaffinity(0)
    assert hostspeed.probe() > 0
    assert os.sched_getaffinity(0) == cpus
