"""Open-system workload generation for the simulations.

:class:`JobFactory` turns the workload distributions into a stream of
:class:`JobSpec` tuples — total size, component split, base (net) service
time, and the submission queue for policies with local queues.
:class:`ArrivalProcess` drives a factory inside a simulation with
exponential interarrival times (the paper's arrival model).

Load accounting: for a given size distribution, component-size limit and
extension factor, the *offered gross utilization* of an arrival rate λ is

    rho_gross = λ · E[size · extension(size)] · E[service] / capacity

with extension(size) = 1.25 for multi-component sizes and 1 otherwise
(sizes and service times are independent in the model, paper §4).
:meth:`JobFactory.arrival_rate_for_gross_utilization` inverts this so
sweeps can be parameterised directly by target utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.sim.distributions import DiscreteEmpirical, Distribution
from repro.sim.rng import StreamFactory

from . import stats_model
from .splitting import split_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["JobSpec", "JobFactory", "ArrivalProcess", "QueueRouter",
           "DEFAULT_DRAW_BATCH"]

#: Block size for prefetching random draws.  Block draws from a
#: ``block_equivalent`` distribution consume the generator's bit stream
#: exactly like successive scalar draws, so any block size (including 1,
#: which disables prefetching) yields byte-identical workloads — pinned
#: by tests/test_determinism.py.
DEFAULT_DRAW_BATCH = 256


@dataclass(frozen=True)
class JobSpec:
    """A job as produced by the workload layer.

    Attributes
    ----------
    index:
        0-based arrival sequence number.
    size:
        Total number of processors.
    components:
        Non-increasing component sizes (one entry per required cluster).
    service_time:
        Base (net) service time; *not* extended.
    queue:
        Index of the local queue this job is submitted to (policies with
        a single global queue ignore it).
    user:
        Anonymised submitting-user index (for fairness analysis; 0 when
        the workload has no user model).
    """

    index: int
    size: int
    components: tuple[int, ...]
    service_time: float
    queue: int
    user: int = 0

    @property
    def is_multi_component(self) -> bool:
        """Whether the job needs co-allocation (more than one component)."""
        return len(self.components) > 1


class QueueRouter:
    """Routes arriving jobs to local queues with given probabilities.

    The paper studies *balanced* (25% each) and *unbalanced* (one queue
    40%, the others 20%) submission of jobs to the local queues of LS and
    LP.
    """

    def __init__(self, weights: Sequence[float],
                 rng: np.random.Generator):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        self.weights = w / w.sum()
        self._cdf = np.cumsum(self.weights)
        self._cdf[-1] = 1.0
        self._rng = rng
        self._batch = DEFAULT_DRAW_BATCH
        self._buf = np.empty(0)
        self._pos = 0

    def route(self) -> int:
        """Pick a queue index.

        Uniform draws are prefetched in blocks; ``rng.random(n)``
        consumes the bit stream exactly like ``n`` scalar
        ``rng.random()`` calls, so the routed sequence is identical for
        any block size.
        """
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = self._rng.random(self._batch)
            pos = 0
        self._pos = pos + 1
        return int(np.searchsorted(self._cdf, buf[pos], side="right"))

    @property
    def num_queues(self) -> int:
        """Number of local queues."""
        return int(self.weights.size)


class JobFactory:
    """Samples :class:`JobSpec` streams and computes offered loads.

    Parameters
    ----------
    size_distribution:
        Total-job-size distribution (DAS-s-128 or DAS-s-64).
    service_distribution:
        Base service-time distribution (DAS-t-900).
    component_limit:
        Job-component-size limit L; ``None`` disables splitting entirely
        (total requests for the single-cluster reference system).
    clusters:
        Number of clusters (bounds the number of components).
    extension_factor:
        Service-time multiplier for multi-component jobs.
    routing_weights:
        Local-queue submission probabilities.
    streams:
        Named random streams (common random numbers across policies).
    num_users:
        Size of the submitting-user population; users are assigned with
        Zipf-like activity shares (0 disables the user model — every
        job gets user 0).

    Random draws are prefetched in blocks of :data:`DEFAULT_DRAW_BATCH`,
    only from ``block_equivalent`` distributions, so the job stream is
    byte-identical for every block size.
    """

    def __init__(self,
                 size_distribution: DiscreteEmpirical,
                 service_distribution: Distribution,
                 component_limit: Optional[int],
                 clusters: int = stats_model.NUM_CLUSTERS,
                 extension_factor: float = stats_model.EXTENSION_FACTOR,
                 routing_weights: Sequence[float] = stats_model.BALANCED_WEIGHTS,
                 streams: Optional[StreamFactory] = None,
                 num_users: int = 0):
        if extension_factor < 1.0:
            raise ValueError(
                f"extension factor must be >= 1, got {extension_factor!r}"
            )
        self.size_distribution = size_distribution
        self.service_distribution = service_distribution
        self.component_limit = component_limit
        self.clusters = clusters
        self.extension_factor = float(extension_factor)
        streams = streams or StreamFactory(None)
        self._size_rng = streams.get("workload.sizes")
        self._service_rng = streams.get("workload.services")
        self._batch = DEFAULT_DRAW_BATCH
        # Prefetch blocks only from distributions whose block draws are
        # provably stream-equivalent to scalar draws; everything else
        # (rejection samplers, mixtures) keeps the scalar path.
        self._batch_sizes = (self._batch > 1
                             and size_distribution.block_equivalent)
        self._batch_services = (self._batch > 1
                                and service_distribution.block_equivalent)
        self._size_buf = np.empty(0)
        self._size_pos = 0
        self._service_buf = np.empty(0)
        self._service_pos = 0
        self.router = QueueRouter(routing_weights,
                                  streams.get("workload.routing"))
        self.num_users = int(num_users)
        if self.num_users > 0:
            ranks = np.arange(1, self.num_users + 1, dtype=float)
            shares = 1.0 / ranks
            self._user_probs = shares / shares.sum()
            self._user_cdf = np.cumsum(self._user_probs)
            self._user_cdf[-1] = 1.0
            self._user_rng = streams.get("workload.users")
        self._count = 0

    # -- sampling ----------------------------------------------------------

    def _components_for(self, size: int) -> tuple[int, ...]:
        if self.component_limit is None:
            return (size,)
        return split_size(size, self.component_limit, self.clusters)

    def _next_user(self) -> int:
        if self.num_users <= 0:
            return 0
        u = self._user_rng.random()
        return int(np.searchsorted(self._user_cdf, u, side="right"))

    def next_job(self) -> JobSpec:
        """Sample the next job spec."""
        if self._batch_sizes:
            pos = self._size_pos
            buf = self._size_buf
            if pos >= len(buf):
                buf = self._size_buf = self.size_distribution.sample_array(
                    self._size_rng, self._batch
                )
                pos = 0
            self._size_pos = pos + 1
            size = int(buf[pos])
        else:
            size = int(self.size_distribution.sample(self._size_rng))
        if self._batch_services:
            pos = self._service_pos
            buf = self._service_buf
            if pos >= len(buf):
                buf = self._service_buf = (
                    self.service_distribution.sample_array(
                        self._service_rng, self._batch
                    )
                )
                pos = 0
            self._service_pos = pos + 1
            service = float(buf[pos])
        else:
            service = float(
                self.service_distribution.sample(self._service_rng)
            )
        spec = JobSpec(
            index=self._count,
            size=size,
            components=self._components_for(size),
            service_time=service,
            queue=self.router.route(),
            user=self._next_user(),
        )
        self._count += 1
        return spec

    def jobs(self, n: int) -> list[JobSpec]:
        """Sample ``n`` job specs."""
        return [self.next_job() for _ in range(n)]

    # -- analytic load accounting -------------------------------------------

    def expected_gross_work(self) -> float:
        """E[size · extension(size)] · E[service]: mean gross
        processor-seconds demanded per job."""
        ext = self.extension_factor

        def weighted(sizes: np.ndarray) -> np.ndarray:
            if self.component_limit is None:
                return sizes
            multis = np.array(
                [len(self._components_for(int(s))) > 1 for s in sizes]
            )
            return sizes * np.where(multis, ext, 1.0)

        return (self.size_distribution.expectation(weighted)
                * self.service_distribution.mean)

    def expected_net_work(self) -> float:
        """E[size] · E[service]: mean net processor-seconds per job."""
        return self.size_distribution.mean * self.service_distribution.mean

    def gross_net_ratio(self) -> float:
        """Ratio of gross to net utilization (paper §4).

        Independent of the scheduling policy because sizes and service
        times are independent of each other and of arrival times.
        """
        return self.expected_gross_work() / self.expected_net_work()

    def arrival_rate_for_gross_utilization(self, rho: float,
                                           capacity: int) -> float:
        """λ achieving offered gross utilization ``rho`` on ``capacity``."""
        if rho <= 0:
            raise ValueError(f"utilization must be positive, got {rho!r}")
        return rho * capacity / self.expected_gross_work()

    def offered_gross_utilization(self, rate: float, capacity: int) -> float:
        """Offered gross utilization of arrival rate ``rate``."""
        return rate * self.expected_gross_work() / capacity

    def offered_net_utilization(self, rate: float, capacity: int) -> float:
        """Offered net utilization of arrival rate ``rate``."""
        return rate * self.expected_net_work() / capacity


class ArrivalProcess:
    """Poisson job source driving a submit callback inside a simulation.

    Each arrival is one deferred callback on the event heap.  The event
    sequence is one urgent initialisation event at time 0, then per tick
    the job is submitted *before* the next arrival is scheduled.
    Interarrival draws are prefetched in blocks
    (``rng.exponential(mean, n)`` consumes the bit stream exactly like
    ``n`` scalar draws), so arrival times are byte-identical for any
    block size.

    Parameters
    ----------
    sim:
        The simulator to run in.
    factory:
        Source of job specs.
    rate:
        Arrival rate λ (jobs per second); interarrival times are
        exponential with mean 1/λ.
    submit:
        Callback invoked with each :class:`JobSpec` at its arrival time.
    limit:
        Stop after this many arrivals (``None`` = run until the
        simulation ends).
    rng:
        Random generator for interarrival times.
    """

    def __init__(self, sim: "Simulator", factory: JobFactory, rate: float,
                 submit: Callable[[JobSpec], None],
                 limit: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate!r}")
        self.sim = sim
        self.factory = factory
        self.rate = float(rate)
        self.submit = submit
        self.limit = limit
        # Seeded fallback: an OS-entropy default would silently break
        # replayability and common-random-numbers comparisons.
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.generated = 0
        self._mean_iat = 1.0 / self.rate
        self._batch = DEFAULT_DRAW_BATCH
        self._iat_buf = np.empty(0)
        self._iat_pos = 0
        self._tick_callbacks = (self._tick,)
        # Urgent init event at t=0: it arms the first arrival.  It
        # consumes one sequence number, which the committed goldens and
        # the events_* counters depend on.
        sim.defer(0.0, (self._arm,), priority=True)

    def _next_iat(self) -> float:
        pos = self._iat_pos
        buf = self._iat_buf
        if pos >= len(buf):
            buf = self._iat_buf = self._rng.exponential(
                self._mean_iat, self._batch
            )
            pos = 0
        self._iat_pos = pos + 1
        return float(buf[pos])

    def _arm(self, _event: object) -> None:
        if self.limit is None or self.generated < self.limit:
            self.sim.defer(self._next_iat(), self._tick_callbacks)

    def _tick(self, _event: object) -> None:
        self.submit(self.factory.next_job())
        self.generated += 1
        if self.limit is None or self.generated < self.limit:
            self.sim.defer(self._next_iat(), self._tick_callbacks)
