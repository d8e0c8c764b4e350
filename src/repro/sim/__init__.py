"""``repro.sim`` — the discrete-event simulation substrate.

This subpackage replaces the commercial CSIM18 package the paper used,
sized to what the model needs: an event heap with a written
equal-timestamp convention (:mod:`repro.sim.engine`), reproducible
named random streams, input distributions, and steady-state output
statistics (batch means, time-weighted averages, P² quantiles).

Quick example::

    from repro.sim import Simulator, Exponential, StreamFactory

    sim = Simulator()
    rng = StreamFactory(1).get("arrivals")
    iat = Exponential(mean=2.0)

    def arrival(_event):
        print("arrival at", sim.now)
        sim.defer(iat.sample(rng), ticks)

    ticks = (arrival,)
    sim.defer(iat.sample(rng), ticks)
    sim.run(until=10)
"""

from .engine import SchedulingError, Simulator
from .rng import StreamFactory, stream
from .distributions import (
    BoundedPareto,
    ContinuousEmpirical,
    Deterministic,
    DiscreteEmpirical,
    Distribution,
    Erlang,
    Exponential,
    Hyperexponential,
    Lognormal,
    Mixture,
    Scaled,
    TruncatedLognormal,
    Uniform,
    Weibull,
)
from .quantiles import P2Quantile, QuantileSet
from .stats import (
    BatchMeans,
    ConfidenceInterval,
    Histogram,
    Tally,
    TimeWeighted,
    normal_quantile,
    student_t_quantile,
)
from .trace import NullTracer, TraceRecord, Tracer

__all__ = [
    # engine
    "Simulator", "SchedulingError",
    # rng
    "StreamFactory", "stream",
    # distributions
    "Distribution", "Deterministic", "Exponential", "Uniform", "Erlang",
    "Hyperexponential", "Lognormal", "TruncatedLognormal",
    "DiscreteEmpirical", "ContinuousEmpirical", "Mixture", "Scaled",
    "Weibull", "BoundedPareto",
    # stats
    "P2Quantile", "QuantileSet",
    "Tally", "TimeWeighted", "BatchMeans", "Histogram",
    "ConfidenceInterval", "normal_quantile", "student_t_quantile",
    # tracing
    "Tracer", "NullTracer", "TraceRecord",
]
