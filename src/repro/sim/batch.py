"""Lockstep batch backend: N heterogeneous lanes, one struct-of-arrays sim.

Campaigns run many configurations — replication seeds, utilization
grids, component-limit ladders — that share one policy.  The scalar
engine advances one event calendar at a time; this backend holds the
*lockstep* state of N such runs ("lanes") as numpy columns — the
clock, the pending-arrival and earliest-departure select columns, and
every metric accumulator — while each lane's policy state (queues,
free processors, the running-job calendar, the queue ring) lives in
plain per-lane Python containers sized for the per-event scalar work
(see the fast-path section of :class:`BatchLaneKernel`).  One
Python-level step advances every lane: the select and the departure
statistics vectorize across lanes, the policy decisions run per lane.

Lanes are *heterogeneous*: each carries its own arrival rate, seed,
warmup/measured-job targets, batch size, component limit, extension
factor and routing weights.  Only the policy, the placement rule, the
cluster capacities and the two workload distributions are fixed per
kernel (policy state containers differ by policy; capacities size the
free-processor lists).  Per-lane workload tables (component splits,
extension factors, routing CDF) are shared through interned
:class:`_LaneProfile` objects keyed by the lane parameters that shape
them.

Lanes terminate raggedly; a finished lane is *retired* — dropped from
the active mask and queued for :meth:`BatchLaneKernel.drain_retired`
— and its slot can be *refilled* with a fresh configuration via
:meth:`BatchLaneKernel.load`, so short-rho lanes don't idle while
rho=0.9 lanes drain.  The fused sweep executor
(:func:`repro.runner.fused.execute_fused`) drives exactly this
load/step/retire cycle over a whole campaign grid.

The contract is *bit-exactness against the scalar engine*: for each
lane, the six :class:`~repro.analysis.points.SweepPoint` statistics
(offered gross load, measured gross/net utilization, mean response,
CI half width, saturation flag) must equal the scalar run's output
exactly.  That holds because

* every random stream is consumed in the scalar order — block draws
  only for ``block_equivalent`` distributions (mirroring
  :class:`~repro.workload.generator.JobFactory`'s prefetch), scalar
  ``sample`` calls otherwise, and arrival times accumulated by
  *sequential* float addition (``np.cumsum`` may pairwise-sum, which
  is not the scalar reduction order);
* events are ordered by ``(time, sequence-number)`` with the same
  sequence-number bookkeeping as :meth:`repro.sim.engine.Simulator.defer`;
* placement reproduces Worst Fit decision-for-decision — a memoized
  per-lane kernel whose decision order equals the scalar rule (pinned
  by the differential tests) — and the LS/LP queue ring is carried as per-lane visit/disabled
  lists whose order equals the scalar
  :class:`~repro.core.queues.QueueRing` lists;
* metric columns apply the exact float-operation order of
  :class:`~repro.sim.stats.TimeWeighted`, Welford's update and the
  batch-means CI (elementwise float64 IEEE ops are identical to the
  scalar Python-float ops).  The gross and net accumulators share one
  fused ``(N, 2)`` column pair: the scalar recorder always updates
  both at the same event times, so their ``last`` timestamps are
  provably equal and the area accruals are the same float products.
* lanes never interact — no shared queues, streams or statistics — so
  a lane's results are independent of which other lanes share the
  kernel, of slot position, and of when its slot was (re)loaded.

The backend intentionally computes *only* what feeds ``SweepPoint``:
queue-population time series, quantiles, slowdowns and the
local/global response split draw no RNG and never reach the point, so
they are skipped.  Consequently diagnostic counters
(``placement_attempts`` and friends) are not maintained and provably
no-op placement retries are elided — behavioural identity is defined
on the returned statistics, which the differential oracle suite pins.

Supported model surface: the four paper policies (GS/LS/LP/SC) under
``placement="worst-fit"``; anything else raises
:class:`BatchBackendError` so callers fall back to the scalar engine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.system import SimulationConfig
from repro.obs.registry import REGISTRY
from repro.sim.distributions import (
    Distribution,
    Lognormal,
    Mixture,
    TruncatedLognormal,
    Uniform,
)
from repro.sim.rng import StreamFactory
from repro.sim.stats import student_t_quantile
from repro.workload.generator import DEFAULT_DRAW_BATCH, JobFactory
from repro.workload.splitting import split_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.analysis.points import SweepPoint
    from repro.runner.task import RunTask

__all__ = [
    "BatchBackendError",
    "BatchLaneKernel",
    "PLACE_CACHE_CAP",
    "run_batch_points",
    "run_batch_task",
]

#: Event-sequence sentinel for idle lanes (sorts after any real eid).
_HUGE_EID = np.iinfo(np.int64).max

_INF = float("inf")

#: Default bound on the shared worst-fit memo (entries).  Placement is
#: a pure function of its key, so the cap trades recomputation for
#: memory and never changes results; a campaign's working set is far
#: smaller, so evictions are rare outside adversarial workloads.
PLACE_CACHE_CAP = 1 << 18

#: One running job on a lane's calendar heap: (departure
#: time, event-sequence number, arrival time, total size, net size,
#: allocation pairs).  The sequence number is unique per lane, so heap
#: comparisons never reach the payload and the pop order is exactly
#: the scalar calendar's (time, sequence) total order.
_HeapItem = tuple[float, int, float, int, float,
                  tuple[tuple[int, int], ...]]

#: Cache-miss sentinel (``None`` is a valid cached "does not fit").
_MISS = object()


class BatchBackendError(ValueError):
    """The batch backend does not support the requested configuration."""


class _LaneStreams:
    """Per-lane RNG state mirroring one scalar run's consumption.

    One instance per lane: the four named substreams a scalar
    :func:`~repro.core.system.run_open_system` consumes, plus the
    running arrival-time accumulator.  Draw *order within each stream*
    is all that matters for equality; streams are independent
    generators, so lanes (and streams) can be refilled in any order.
    """

    __slots__ = ("sizes", "services", "routing", "iat", "last_arrival")

    def __init__(self, seed: int) -> None:
        streams = StreamFactory(seed)
        self.sizes = streams.get("workload.sizes")
        self.services = streams.get("workload.services")
        self.routing = streams.get("workload.routing")
        self.iat = streams.get("arrivals.iat")
        self.last_arrival = 0.0


class _LaneProfile:
    """Workload tables shared by every lane with the same shape.

    The component-split tables, extension factors and routing CDF are
    pure functions of (component limit, extension factor, routing
    weights) over the kernel's fixed size support and cluster count;
    lanes differing only in seed, rate or run-length targets intern to
    the same profile.  ``pid`` keys the shared placement memo (the
    split tables differ per profile, so memo entries must not cross
    profiles); ``factory`` performs the rate <-> offered-utilization
    conversions with the exact scalar float math.
    """

    __slots__ = ("pid", "ncomp_tab", "ext_tab", "comp_lists", "route_cdf",
                 "factory")

    def __init__(self, pid: int, ncomp_tab: "np.ndarray",
                 ext_tab: "np.ndarray",
                 comp_lists: list[tuple[int, ...]],
                 route_cdf: "np.ndarray", factory: JobFactory) -> None:
        self.pid = pid
        self.ncomp_tab = ncomp_tab
        self.ext_tab = ext_tab
        self.comp_lists = comp_lists
        self.route_cdf = route_cdf
        self.factory = factory


_ScalarSampler = Callable[[np.random.Generator, int], np.ndarray]

_ProfileKey = tuple[Optional[int], float, tuple[float, ...]]


def _make_scalar_sampler(dist: Distribution) -> Optional[_ScalarSampler]:
    """A fast draw-for-draw replica of ``n`` scalar ``dist.sample`` calls.

    Non-``block_equivalent`` distributions must be drawn one ``sample``
    call at a time so the generator state evolves exactly as in the
    scalar run.  For the distributions that actually appear on that
    path (the DAS-t-900 mixture: a rejection-sampled truncated
    lognormal body plus a uniform spike) the generic ``sample``
    dispatch dominates the draw cost, so this builds a closed-over
    loop making the *identical* generator calls — ``rng.random`` for
    the mixture pick compared against the same CDF floats,
    ``rng.lognormal`` per rejection trial, ``rng.uniform`` for the
    spike — with no per-draw attribute or ufunc dispatch.  Returns
    ``None`` when ``dist`` is not covered; callers then fall back to
    the plain ``sample`` loop.
    """

    def component(c: Distribution) -> Optional[
            Callable[[np.random.Generator], float]]:
        if type(c) is TruncatedLognormal and type(c.base) is Lognormal:
            mu, sigma = c.base.mu, c.base.sigma
            lo, hi = c.low, c.high

            def tln(rng: np.random.Generator) -> float:
                while True:
                    x = float(rng.lognormal(mu, sigma))
                    if lo <= x <= hi:
                        return x

            return tln
        if type(c) is Lognormal:
            mu, sigma = c.mu, c.sigma
            return lambda rng: float(rng.lognormal(mu, sigma))
        if type(c) is Uniform:
            lo, hi = c.low, c.high
            return lambda rng: float(rng.uniform(lo, hi))
        return None

    if type(dist) is Mixture:
        funcs = [component(c) for c in dist.components]
        if any(f is None for f in funcs):
            return None
        # Rebuilt with the same cumsum Mixture.__init__ ran, so the
        # pick comparisons see bit-identical thresholds.
        cdf_arr = np.cumsum(dist.weights)
        cdf_arr[-1] = 1.0
        cdf = [float(x) for x in cdf_arr]
        last = len(funcs) - 1

        def mixture_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            out = np.empty(n)
            random = rng.random
            for i in range(n):
                u = random()
                # searchsorted(cdf, u, side="right") clamped to the
                # last component, unrolled for the tiny CDF.
                k = 0
                while k < last and cdf[k] <= u:
                    k += 1
                out[i] = funcs[k](rng)  # type: ignore[misc]
            return out

        return mixture_sampler

    single = component(dist)
    if single is None:
        return None

    def single_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty(n)
        for i in range(n):
            out[i] = single(rng)
        return out

    return single_sampler


class BatchLaneKernel:
    """The struct-of-arrays simulation state and its step loop.

    Construction fixes the *kernel shape* — policy, placement,
    capacities, the two workload distributions and the slot count
    (``width``) — and allocates every column with all slots inactive.
    :meth:`load` arms one slot with a lane configuration (seed, rate,
    limits, run-length targets); :meth:`step` advances every active
    lane by one lockstep event round; lanes that reach their
    completion target retire themselves, and :meth:`drain_retired`
    yields their finished :class:`~repro.analysis.points.SweepPoint`
    so the slot can be refilled.
    """

    def __init__(self, config: SimulationConfig,
                 size_distribution: Distribution,
                 service_distribution: Distribution,
                 width: int, *,
                 place_cache_cap: int = PLACE_CACHE_CAP) -> None:
        policy = config.policy.upper()
        if policy not in ("GS", "LS", "LP", "SC"):
            raise BatchBackendError(
                f"batch backend supports GS/LS/LP/SC, got {config.policy!r}"
            )
        if config.placement != "worst-fit":
            raise BatchBackendError(
                "batch backend supports placement='worst-fit' only, got "
                f"{config.placement!r}"
            )
        if width < 1:
            raise BatchBackendError(f"kernel width must be >= 1, got {width}")
        if place_cache_cap < 1:
            raise BatchBackendError(
                f"place_cache_cap must be >= 1, got {place_cache_cap}"
            )
        self.policy = policy
        self.size_distribution = size_distribution
        self.service_distribution = service_distribution

        n = int(width)
        self.n = n
        caps = tuple(int(cap) for cap in config.capacities)
        self.capacities = caps
        self.n_clusters = len(caps)
        self.capacity = sum(caps)

        # -- the shared size support (profiles build tables over it) ------
        support = getattr(size_distribution, "support", None)
        if support is None:
            raise BatchBackendError(
                "batch backend needs a discrete size distribution "
                "(integer support)"
            )
        self._support = tuple(int(float(v)) for v in support)
        self._max_size = max(self._support)
        self._profiles: dict[_ProfileKey, _LaneProfile] = {}

        draw = DEFAULT_DRAW_BATCH
        self._sizes_blocked = draw > 1 and size_distribution.block_equivalent
        self._services_blocked = (draw > 1
                                  and service_distribution.block_equivalent)
        self._service_sampler = (None if self._services_blocked
                                 else _make_scalar_sampler(
                                     service_distribution))

        # -- per-lane draw state and parameters ---------------------------
        self._streams: list[Optional[_LaneStreams]] = [None] * n
        self._prof: list[Optional[_LaneProfile]] = [None] * n
        self._mean_iat = [0.0] * n
        self._offered = [0.0] * n
        self._bsize = np.zeros(n, dtype=np.int64)
        self._warm_tgt = np.zeros(n, dtype=np.int64)
        self._total_tgt = np.zeros(n, dtype=np.int64)

        # -- event state --------------------------------------------------
        # After the urgent arrival-process init event at t=0 the scalar
        # engine has consumed sequence numbers 1 (init) and 2 (first
        # tick); every later event is NORMAL rank, so ordering reduces
        # to (time, sequence number).
        self.now = np.zeros(n, dtype=np.float64)
        self.na_eid = np.full(n, 2, dtype=np.int64)
        self.na_t = np.full(n, _INF, dtype=np.float64)
        #: GS/SC run one global FCFS queue; LS/LP the visiting rounds
        #: over the queue ring.  Both as per-lane Python containers.
        self._single = policy in ("GS", "SC")

        # Per-lane Python containers (see the fast-path section): job
        # tuples, free processors per cluster, the running-job calendar
        # heap, the event-sequence counter, the next-arrival cursor.
        self._jobs_py: list[list[tuple]] = [[] for _ in range(n)]
        self._free_py = [[0] * self.n_clusters for _ in range(n)]
        self._heaps: list[list[_HeapItem]] = [[] for _ in range(n)]
        self._eid_py = [2] * n
        self._next_job_py = [0] * n
        # The select columns mirroring each lane's heap top.
        self._dmin_t = np.full(n, _INF, dtype=np.float64)
        self._dmin_eid = np.full(n, _HUGE_EID, dtype=np.int64)
        self._place_cache: dict[
            tuple[int, ...],
            Optional[tuple[tuple[int, int], ...]]] = {}
        self._place_cap = int(place_cache_cap)
        #: Evictions this kernel performed on the bounded memo.
        self.place_evictions = 0
        self._after_dep: Callable[[int, float, int], int]
        self._burst: Callable[[int, float], None]
        if self._single:
            #: The single FCFS queue of job indices per lane.
            self._q: list[deque[int]] = [deque() for _ in range(n)]
            self._after_dep = self._lane_drain
            self._burst = self._arrival_burst
        else:
            #: Queues per lane: LS one local queue per cluster (queue
            #: index == cluster index); LP index 0 is the global queue,
            #: 1..C the locals (cluster == queue index - 1).
            self._nq = self.n_clusters if policy == "LS" else (
                self.n_clusters + 1)
            self._qs: list[list[deque[int]]] = [
                [deque() for _ in range(self._nq)] for _ in range(n)]
            # The scalar QueueRing's two lists, per lane: enabled
            # queues in enablement order and disabled queues in
            # disablement order, plus the per-queue enabled flag.
            self._visit = [list(range(self._nq)) for _ in range(n)]
            self._disabled: list[list[int]] = [[] for _ in range(n)]
            self._enabled = [[True] * self._nq for _ in range(n)]
            self._after_dep = (self._lane_departure_ls if policy == "LS"
                               else self._lane_departure_lp)
            self._burst = self._arrival_burst_ring

        # -- metric columns (exact scalar float-op order) ------------------
        # Fused busy-gross / busy-net time-weighted accumulators:
        # column 0 gross, column 1 net.  Both scalar tallies are updated
        # at identical event times, so one shared ``last`` column holds.
        self.m_val = np.zeros((n, 2), dtype=np.float64)
        self.m_area = np.zeros((n, 2), dtype=np.float64)
        self.m_last = np.zeros(n, dtype=np.float64)
        self.origin = np.zeros(n, dtype=np.float64)
        self.resp_cnt = np.zeros(n, dtype=np.int64)
        self.resp_mean = np.zeros(n, dtype=np.float64)
        self.batch_sum = np.zeros(n, dtype=np.float64)
        self.in_batch = np.zeros(n, dtype=np.int64)
        self.b_cnt = np.zeros(n, dtype=np.int64)
        self.b_mean = np.zeros(n, dtype=np.float64)
        self.b_m2 = np.zeros(n, dtype=np.float64)

        # -- run control --------------------------------------------------
        self.finished = np.zeros(n, dtype=np.int64)
        self.active = np.zeros(n, dtype=bool)
        self.end_time = np.zeros(n, dtype=np.float64)
        self.backlog_reset = np.zeros(n, dtype=np.int64)
        self.backlog_end = np.zeros(n, dtype=np.int64)
        self.reset_done = np.ones(n, dtype=bool)
        #: Number of currently active lanes (maintained by load/retire).
        self.active_lanes = 0
        #: Slots whose lane finished and awaits :meth:`drain_retired`.
        self._retired: list[int] = []

    # -- lane lifecycle ----------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when no lane is active (every slot loadable/drained)."""
        return self.active_lanes == 0

    def _profile_for(self, config: SimulationConfig) -> _LaneProfile:
        """Intern the workload tables for this lane's shape parameters."""
        key: _ProfileKey = (
            config.component_limit,
            float(config.extension_factor),
            tuple(float(w) for w in config.routing_weights),
        )
        prof = self._profiles.get(key)
        if prof is not None:
            return prof
        c = self.n_clusters
        ncomp_tab = np.zeros(self._max_size + 1, dtype=np.int64)
        ext_tab = np.ones(self._max_size + 1, dtype=np.float64)
        comp_lists: list[tuple[int, ...]] = [()] * (self._max_size + 1)
        for s in self._support:
            if config.component_limit is None:
                comps: tuple[int, ...] = (s,)
            else:
                comps = split_size(s, config.component_limit, c)
            ncomp_tab[s] = len(comps)
            comp_lists[s] = comps
            if len(comps) > 1:
                ext_tab[s] = float(config.extension_factor)
        # Routing CDF, built exactly like QueueRouter.
        w = np.asarray(config.routing_weights, dtype=float)
        weights = w / w.sum()
        route_cdf = np.cumsum(weights)
        route_cdf[-1] = 1.0
        factory = JobFactory(
            self.size_distribution,  # type: ignore[arg-type]
            self.service_distribution,
            config.component_limit,
            clusters=c,
            extension_factor=config.extension_factor,
            routing_weights=config.routing_weights,
            streams=StreamFactory(0),
        )
        prof = _LaneProfile(len(self._profiles), ncomp_tab, ext_tab,
                            comp_lists, route_cdf, factory)
        self._profiles[key] = prof
        return prof

    def load(self, slot: int, config: SimulationConfig,
             offered_gross: Optional[float] = None,
             arrival_rate: Optional[float] = None) -> None:
        """Arm ``slot`` with one lane: the run that a scalar
        :func:`~repro.core.system.run_open_system` under ``config``
        would perform at the given load.

        ``arrival_rate`` overrides the rate derived from
        ``offered_gross`` (they are redundant; both are accepted so
        callers can match either scalar entry point exactly).  The
        slot must be empty — never loaded, or retired and drained.
        """
        if not 0 <= slot < self.n:
            raise BatchBackendError(f"slot {slot} out of range 0..{self.n-1}")
        if self.active[slot] or slot in self._retired:
            raise BatchBackendError(f"slot {slot} is not free")
        if config.policy.upper() != self.policy:
            raise BatchBackendError(
                f"kernel runs policy {self.policy}, got {config.policy!r}"
            )
        if config.placement != "worst-fit":
            raise BatchBackendError(
                "batch backend supports placement='worst-fit' only, got "
                f"{config.placement!r}"
            )
        if tuple(int(cap) for cap in config.capacities) != self.capacities:
            raise BatchBackendError(
                f"kernel capacities {self.capacities} != "
                f"{tuple(config.capacities)}"
            )
        prof = self._profile_for(config)
        if arrival_rate is None:
            if offered_gross is None:
                raise BatchBackendError(
                    "need offered_gross or arrival_rate"
                )
            arrival_rate = prof.factory.arrival_rate_for_gross_utilization(
                float(offered_gross), self.capacity
            )
        rate = float(arrival_rate)
        self._prof[slot] = prof
        self._mean_iat[slot] = 1.0 / rate
        self._offered[slot] = prof.factory.offered_gross_utilization(
            rate, self.capacity
        )
        self._bsize[slot] = int(config.batch_size)
        self._warm_tgt[slot] = int(config.warmup_jobs)
        self._total_tgt[slot] = int(config.warmup_jobs
                                    + config.measured_jobs)
        self._streams[slot] = _LaneStreams(int(config.seed))

        # Per-lane containers back to their scalar t=0 state.
        self._jobs_py[slot] = []
        self._free_py[slot] = [int(cap) for cap in self.capacities]
        self._heaps[slot] = []
        self._eid_py[slot] = 2
        self._next_job_py[slot] = 0
        self.now[slot] = 0.0
        self.na_eid[slot] = 2
        self._dmin_t[slot] = _INF
        self._dmin_eid[slot] = _HUGE_EID
        if self._single:
            self._q[slot] = deque()
        else:
            self._qs[slot] = [deque() for _ in range(self._nq)]
            self._visit[slot] = list(range(self._nq))
            self._disabled[slot] = []
            self._enabled[slot] = [True] * self._nq

        self.m_val[slot] = 0.0
        self.m_area[slot] = 0.0
        self.m_last[slot] = 0.0
        self.origin[slot] = 0.0
        self.resp_cnt[slot] = 0
        self.resp_mean[slot] = 0.0
        self.batch_sum[slot] = 0.0
        self.in_batch[slot] = 0
        self.b_cnt[slot] = 0
        self.b_mean[slot] = 0.0
        self.b_m2[slot] = 0.0

        self.finished[slot] = 0
        self.end_time[slot] = 0.0
        self.backlog_reset[slot] = 0
        self.backlog_end[slot] = 0
        # warmup_jobs == 0: the scalar run resets at t=0 before any
        # event, which is exactly the initial column state.
        self.reset_done[slot] = config.warmup_jobs == 0

        self._generate_chunk(slot)
        self.na_t[slot] = self._jobs_py[slot][0][0]
        self.active[slot] = True
        self.active_lanes += 1

    def drain_retired(self) -> "list[tuple[int, SweepPoint]]":
        """Finished lanes since the last drain, as ``(slot, point)``
        pairs in retirement order.  Drained slots are free for
        :meth:`load`."""
        if not self._retired:
            return []
        out = [(slot, self._point(slot)) for slot in self._retired]
        self._retired.clear()
        return out

    # -- workload generation ---------------------------------------------

    def _generate_chunk(self, lane: int) -> None:
        """Draw one prefetch block of jobs for ``lane`` in scalar order."""
        n = DEFAULT_DRAW_BATCH
        streams = self._streams[lane]
        assert streams is not None
        prof = self._prof[lane]
        assert prof is not None
        size_dist = self.size_distribution
        service_dist = self.service_distribution
        # Sizes: block draws only when provably stream-equivalent —
        # exactly the JobFactory prefetch rule.  Chunks are always the
        # full block size, so refill boundaries match the scalar
        # buffer's.
        if self._sizes_blocked:
            raw = size_dist.sample_array(streams.sizes, n)
        else:
            raw = np.array([size_dist.sample(streams.sizes)
                            for _ in range(n)], dtype=np.float64)
        sizes = raw.astype(np.int64)
        if self._services_blocked:
            svc = np.asarray(service_dist.sample_array(streams.services, n),
                             dtype=np.float64)
        elif self._service_sampler is not None:
            svc = self._service_sampler(streams.services, n)
        else:
            svc = np.array([service_dist.sample(streams.services)
                            for _ in range(n)], dtype=np.float64)
        u = streams.routing.random(n)
        queues = np.searchsorted(prof.route_cdf, u, side="right")
        iat = streams.iat.exponential(self._mean_iat[lane], n)
        # Sequential accumulation: the scalar engine chains ``now +
        # delay`` one float add at a time; np.cumsum may pairwise-sum,
        # which rounds differently.
        arr = np.empty(n, dtype=np.float64)
        t = streams.last_arrival
        for i, delta in enumerate(iat.tolist()):
            t = t + delta
            arr[i] = t
        streams.last_arrival = float(t)

        # Jobs land in per-lane Python tuples.  The elementwise
        # products/quotients below are the same float64 IEEE ops the
        # scalar JobFactory performs, so the tuples hold the exact
        # scalar values.
        ext = prof.ext_tab[sizes]
        gross = (svc * ext).tolist()
        net = (sizes / ext).tolist()
        if self._single:
            # GS/SC ignore the routing draw (consumed above for stream
            # parity): (arrival, gross service, net size, total size).
            self._jobs_py[lane].extend(
                zip(arr.tolist(), gross, net, sizes.tolist()))
            return
        # LS/LP append the routing decision: (..., destination queue,
        # multi-component flag).  LS routes every job to its origin
        # cluster's local queue; LP sends multi-component jobs to the
        # global queue (index 0) and the rest to 1 + origin cluster.
        multi = prof.ncomp_tab[sizes] > 1
        if self.policy == "LS":
            qid = queues % self.n_clusters
        else:
            qid = np.where(multi, 0, 1 + queues % self.n_clusters)
        self._jobs_py[lane].extend(
            zip(arr.tolist(), gross, net, sizes.tolist(),
                qid.tolist(), multi.tolist()))

    # -- the per-lane Python fast path ---------------------------------------
    #
    # At realistic loads each step touches a handful of lanes, so
    # per-call numpy dispatch (microseconds per vector op) dominates
    # the actual work of small-vector updates.  Each lane therefore
    # carries the state only *it* touches — its queues, free
    # processors, the running-job calendar heap, the queue ring, the
    # sequence counter — in plain Python containers (deque / list /
    # heap), and numpy columns remain only where the lockstep step
    # genuinely vectorizes: the (time, sequence) select and the
    # departure statistics.  Python floats are the same IEEE doubles
    # as the float64 columns and every float operation keeps the exact
    # scalar-engine order, so the statistics are bit-identical; only
    # the bookkeeping representation changes.

    def _place_single(self, prof: _LaneProfile, free: list[int],
                      size: int) -> Optional[tuple[tuple[int, int], ...]]:
        """Worst Fit over Python ints: ``((cluster, component), ...)``
        or ``None`` when some component does not fit.

        Decision order matches the scalar Worst Fit (pinned by the
        differential tests) exactly — components non-increasing, each
        on the fullest feasible cluster not already holding a
        component of this job, ties to the lowest cluster index.
        Placement is a pure function of (profile, total size, free
        counts): outcomes are memoized, which also elides re-deriving
        the scalar engine's repeated identical head-of-queue failures.
        The memo is bounded at ``place_cache_cap`` entries with
        deterministic oldest-insertion eviction — recomputing an
        evicted entry yields the identical tuple, so the cap never
        changes results.  Distinct keys number in the hundreds of
        thousands per campaign, so the miss path stays a plain Python
        scan — at width 1 the numpy kernel's dispatch overhead is ~10x
        the work.
        """
        key = (prof.pid, size, *free)
        cache = self._place_cache
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit  # type: ignore[return-value]
        alloc: list[tuple[int, int]] = []
        used = 0
        result: Optional[tuple[tuple[int, int], ...]] = None
        for comp in prof.comp_lists[size]:
            best = -1
            best_i = -1
            for ci, f in enumerate(free):
                if f >= comp and f > best and not (used >> ci) & 1:
                    best = f
                    best_i = ci
            if best_i < 0:
                break
            used |= 1 << best_i
            alloc.append((best_i, comp))
        else:
            result = tuple(alloc)
        if len(cache) >= self._place_cap:
            # Deterministic eviction: dicts iterate in insertion
            # order, so the oldest entry goes first (FIFO).
            del cache[next(iter(cache))]
            self.place_evictions += 1
            # Resolved at use time, never cached: REGISTRY.reset()
            # replaces Counter objects (pool.py does the same).
            REGISTRY.counter("batch.place_cache.evictions").inc()
        cache[key] = result
        return result

    def _start_single(self, lane: int, job: int, now: float, eid: int,
                      alloc: tuple[tuple[int, int], ...]) -> float:
        """Commit one start on ``lane``; returns the departure time."""
        jt = self._jobs_py[lane][job]
        arr_t = jt[0]
        gross = jt[1]
        net = jt[2]
        size = jt[3]
        free = self._free_py[lane]
        for ci, comp in alloc:
            free[ci] -= comp
        dep_t = now + gross
        heappush(self._heaps[lane], (dep_t, eid, arr_t, size, net, alloc))
        # The fused TimeWeighted add, in Python floats (same IEEE
        # doubles, same operation order as the scalar recorder).
        m_val = self.m_val
        mflat = lane * 2
        v0 = m_val.item(mflat)
        v1 = m_val.item(mflat + 1)
        last = self.m_last.item(lane)
        if now != last:  # simlint: disable=SIM002 -- zero-width accrual adds exactly +0.0; eliding it is bit-exact
            m_area = self.m_area
            a_dt = now - last
            m_area[lane, 0] = m_area.item(mflat) + v0 * a_dt
            m_area[lane, 1] = m_area.item(mflat + 1) + v1 * a_dt
            self.m_last[lane] = now
        m_val[lane, 0] = v0 + size
        m_val[lane, 1] = v1 + net
        return dep_t

    def _lane_drain(self, lane: int, now: float, eid: int) -> int:
        """Start queued jobs on ``lane`` while its head fits (GS/SC
        departure rule); returns the updated sequence counter."""
        q = self._q[lane]
        if not q:
            return eid
        jobs = self._jobs_py[lane]
        free = self._free_py[lane]
        prof = self._prof[lane]
        assert prof is not None
        while q:
            head = q[0]
            alloc = self._place_single(prof, free, jobs[head][3])
            if alloc is None:
                break
            q.popleft()
            eid += 1
            self._start_single(lane, head, now, eid, alloc)
        return eid

    def _arrival_burst(self, lane: int, dmin: float) -> None:
        """Process the lane's due arrival plus every later arrival that
        strictly precedes the lane's earliest departure (GS/SC).

        While no departure can interleave, each arrival is either a
        pure push (non-empty queue: the head is already known not to
        fit) or an immediate-start attempt on an empty queue, so the
        whole stretch runs as one Python loop instead of one global
        step per arrival.  An immediate start elides the scalar's
        push-then-pop (net queue state is identical).  A start pulls
        ``dmin`` in; an arrival tying it exactly stops the burst and
        returns to the (time, sequence) select, which owns tie-breaks.
        """
        eid = self._eid_py[lane]
        job = self._next_job_py[lane]
        jobs = self._jobs_py[lane]
        q = self._q[lane]
        free = self._free_py[lane]
        prof = self._prof[lane]
        assert prof is not None
        t = float(self.na_t.item(lane))
        started = False
        while True:
            if q:
                q.append(job)
            elif (alloc := self._place_single(prof, free,
                                              jobs[job][3])) is None:
                q.append(job)
            else:
                eid += 1
                dep_t = self._start_single(lane, job, t, eid, alloc)
                started = True
                if dep_t < dmin:
                    dmin = dep_t
            # ArrivalProcess._tick: schedule the next arrival one
            # sequence number after any start the submit made.
            eid += 1
            job += 1
            while job >= len(jobs):
                self._generate_chunk(lane)
            t_next = jobs[job][0]
            if t_next >= dmin:
                break
            t = t_next
        self._eid_py[lane] = eid
        self._next_job_py[lane] = job
        self.now[lane] = t
        self.na_eid[lane] = eid
        self.na_t[lane] = t_next
        if started:
            top = self._heaps[lane][0]
            self._dmin_t[lane] = top[0]
            self._dmin_eid[lane] = top[1]

    # -- LS / LP: the visiting rounds over the queue ring -------------------

    def _lane_rounds_ls(self, lane: int, now: float, eid: int) -> int:
        """LSPolicy._rounds on one lane: visit the enabled queues in
        enablement order (snapshot per pass), start at most one job per
        queue per pass, disable a queue whose head does not fit, repeat
        while any pass started something.  Returns the updated
        sequence counter."""
        qs = self._qs[lane]
        visit = self._visit[lane]
        disabled = self._disabled[lane]
        enabled = self._enabled[lane]
        jobs = self._jobs_py[lane]
        free = self._free_py[lane]
        prof = self._prof[lane]
        assert prof is not None
        progress = True
        while progress:
            progress = False
            for qid in tuple(visit):
                q = qs[qid]
                if not enabled[qid] or not q:
                    continue
                head = q[0]
                jt = jobs[head]
                size = jt[3]
                if jt[5]:
                    # Multi-component: Worst Fit over all clusters.
                    alloc = self._place_single(prof, free, size)
                elif free[qid] >= size:
                    # Single-component: only the local cluster
                    # (LS queue index == cluster index).
                    alloc = ((qid, size),)
                else:
                    alloc = None
                if alloc is None:
                    enabled[qid] = False
                    visit.remove(qid)
                    disabled.append(qid)
                else:
                    q.popleft()
                    eid += 1
                    self._start_single(lane, head, now, eid, alloc)
                    progress = True
        return eid

    def _lane_rounds_lp(self, lane: int, now: float, eid: int) -> int:
        """LPPolicy._rounds on one lane.  As LS, plus the local-priority
        gate: the global queue (index 0) is *skipped* — not disabled —
        unless some local queue is empty, evaluated live at each visit;
        and a start that empties a local queue while the global queue
        is disabled re-enables the global queue mid-round (§2.5)."""
        qs = self._qs[lane]
        visit = self._visit[lane]
        disabled = self._disabled[lane]
        enabled = self._enabled[lane]
        jobs = self._jobs_py[lane]
        free = self._free_py[lane]
        prof = self._prof[lane]
        assert prof is not None
        nq = self._nq
        progress = True
        while progress:
            progress = False
            for qid in tuple(visit):
                q = qs[qid]
                if not enabled[qid] or not q:
                    continue
                if qid == 0:
                    for i in range(1, nq):
                        if not qs[i]:
                            break
                    else:
                        continue
                    # Global queue: all multi-component, Worst Fit.
                    alloc = self._place_single(prof, free, jobs[q[0]][3])
                else:
                    size = jobs[q[0]][3]
                    # Local queue: only its own cluster (qid - 1).
                    alloc = (((qid - 1, size),)
                             if free[qid - 1] >= size else None)
                if alloc is None:
                    enabled[qid] = False
                    visit.remove(qid)
                    disabled.append(qid)
                    continue
                head = q.popleft()
                eid += 1
                self._start_single(lane, head, now, eid, alloc)
                progress = True
                if qid and not q and not enabled[0]:
                    # A local queue just emptied: the global queue
                    # rejoins the visit list (QueueRing.reenable).
                    disabled.remove(0)
                    enabled[0] = True
                    visit.append(0)
        return eid

    def _lane_departure_ls(self, lane: int, now: float, eid: int) -> int:
        """LSPolicy.on_departure: enable_all (disablement order), then
        rounds."""
        disabled = self._disabled[lane]
        if disabled:
            enabled = self._enabled[lane]
            for qid in disabled:
                enabled[qid] = True
            self._visit[lane].extend(disabled)
            disabled.clear()
        return self._lane_rounds_ls(lane, now, eid)

    def _lane_departure_lp(self, lane: int, now: float, eid: int) -> int:
        """LPPolicy.on_departure: enable_all(global_first=True) when
        some local queue is empty — the global queue re-enables ahead
        of the locals — otherwise enable_all(skip_global=True), the
        global queue staying disabled (re-appended to the disabled
        list, as the scalar ring does); then rounds."""
        qs = self._qs[lane]
        disabled = self._disabled[lane]
        if disabled:
            enabled = self._enabled[lane]
            visit = self._visit[lane]
            some_local_empty = False
            for i in range(1, self._nq):
                if not qs[i]:
                    some_local_empty = True
                    break
            if some_local_empty:
                if not enabled[0]:
                    disabled.remove(0)
                    disabled.insert(0, 0)
                for qid in disabled:
                    enabled[qid] = True
                visit.extend(disabled)
                disabled.clear()
            else:
                keep_global = not enabled[0]
                for qid in disabled:
                    if qid:
                        enabled[qid] = True
                        visit.append(qid)
                disabled.clear()
                if keep_global:
                    disabled.append(0)
        return self._lane_rounds_lp(lane, now, eid)

    def _arrival_burst_ring(self, lane: int, dmin: float) -> None:
        """The LS/LP arrival burst: process the lane's due arrival plus
        every later arrival that strictly precedes the lane's earliest
        departure.

        Each arrival pushes its job (destination queue precomputed in
        the job tuple) and runs the visiting rounds exactly when the
        scalar policy would act: LS rounds only when the target queue
        is enabled; LP rounds always, elided when provably a no-op —
        the push touched a disabled queue, or the global queue while
        no local queue is empty.  (After any rounds call every enabled
        queue is empty except possibly a gate-blocked global queue,
        and pushes never empty a queue, so such a round could neither
        start a job nor change ring state.)  A start pulls ``dmin``
        in; an arrival tying it exactly stops the burst and returns to
        the (time, sequence) select, which owns tie-breaks."""
        eid = self._eid_py[lane]
        job = self._next_job_py[lane]
        jobs = self._jobs_py[lane]
        qs = self._qs[lane]
        enabled = self._enabled[lane]
        heap = self._heaps[lane]
        ls = self.policy == "LS"
        rounds = self._lane_rounds_ls if ls else self._lane_rounds_lp
        nq = self._nq
        t = float(self.na_t.item(lane))
        while True:
            jt = jobs[job]
            qid = jt[4]
            qs[qid].append(job)
            if ls:
                if enabled[qid]:
                    eid = rounds(lane, t, eid)
            elif enabled[qid]:
                if qid:
                    eid = rounds(lane, t, eid)
                else:
                    for i in range(1, nq):
                        if not qs[i]:
                            eid = rounds(lane, t, eid)
                            break
            # ArrivalProcess._tick: schedule the next arrival one
            # sequence number after any starts the submit made.
            eid += 1
            job += 1
            while job >= len(jobs):
                self._generate_chunk(lane)
            t_next = jobs[job][0]
            if heap:
                top_t = heap[0][0]
                if top_t < dmin:
                    dmin = top_t
            if t_next >= dmin:
                break
            t = t_next
        self._eid_py[lane] = eid
        self._next_job_py[lane] = job
        self.now[lane] = t
        self.na_eid[lane] = eid
        self.na_t[lane] = t_next
        if heap:
            top = heap[0]
            self._dmin_t[lane] = top[0]
            self._dmin_eid[lane] = top[1]

    # -- event processing --------------------------------------------------

    def _finish_block(self, idx: "np.ndarray", t: "np.ndarray",
                      arr_t: "np.ndarray", meta2: "np.ndarray") -> None:
        """MetricsRecorder.on_finish for one departure per lane, field
        for field (in_system and the diagnostic tallies never reach
        SweepPoint and are omitted).  ``meta2`` holds the fused
        [gross size, net size] pair per lane."""
        dt = t - self.m_last[idx]
        self.m_area[idx] += self.m_val[idx] * dt[:, None]
        self.m_last[idx] = t
        self.m_val[idx] -= meta2
        resp = t - arr_t
        cnt = self.resp_cnt[idx] + 1
        self.resp_cnt[idx] = cnt
        self.resp_mean[idx] += (resp - self.resp_mean[idx]) / cnt
        bsum = self.batch_sum[idx] + resp
        self.batch_sum[idx] = bsum
        in_b = self.in_batch[idx] + 1
        self.in_batch[idx] = in_b
        closing = in_b == self._bsize[idx]
        if closing.any():
            rows = idx[closing]
            bval = bsum[closing] / self._bsize[rows]
            bc = self.b_cnt[rows] + 1
            self.b_cnt[rows] = bc
            bdelta = bval - self.b_mean[rows]
            bmean = self.b_mean[rows] + bdelta / bc
            self.b_mean[rows] = bmean
            self.b_m2[rows] += bdelta * (bval - bmean)
            self.in_batch[rows] = 0
            self.batch_sum[rows] = 0.0
        self.finished[idx] += 1

    def _departures(self, idx: "np.ndarray") -> None:
        """One departure per lane: per-lane pops and releases, the
        vectorized statistics block, then the per-lane policy reaction
        (GS/SC: the FCFS drain; LS/LP: ring re-enables plus rounds).

        The scalar event order is release + on_finish first, the
        policy's start attempts second; the statistics block therefore
        runs *between* the two Python loops so each lane's
        metric-update sequence matches the scalar engine's exactly.
        The subsequent starts happen at the departure time the block
        just accrued to, so their TimeWeighted adds are the
        elided-zero-width case of ``_start_single``."""
        heaps = self._heaps
        free_py = self._free_py
        lanes = idx.tolist()
        times = []
        arrs = []
        metas = []
        for lane in lanes:
            dep_t, _, arr_t, size, net, alloc = heappop(heaps[lane])
            times.append(dep_t)
            arrs.append(arr_t)
            metas.append((size, net))
            free = free_py[lane]
            for ci, comp in alloc:
                free[ci] += comp
        t = np.array(times, dtype=np.float64)
        self.now[idx] = t
        self._finish_block(idx, t, np.array(arrs, dtype=np.float64),
                           np.array(metas, dtype=np.float64))
        eid_py = self._eid_py
        dmin_t = self._dmin_t
        dmin_eid = self._dmin_eid
        after_dep = self._after_dep
        for i, lane in enumerate(lanes):
            eid_py[lane] = after_dep(lane, times[i], eid_py[lane])
            heap = heaps[lane]
            if heap:
                top = heap[0]
                dmin_t[lane] = top[0]
                dmin_eid[lane] = top[1]
            else:
                dmin_t[lane] = _INF
                dmin_eid[lane] = _HUGE_EID

    def _backlog(self, rows: "np.ndarray") -> "np.ndarray":
        """Total queued jobs per lane (the saturation-estimate input)."""
        if self._single:
            return np.array([len(self._q[lane]) for lane in rows.tolist()],
                            dtype=np.int64)
        return np.array([sum(map(len, self._qs[lane]))
                         for lane in rows.tolist()], dtype=np.int64)

    def _post_departure(self, idx: "np.ndarray") -> None:
        """Warmup reset / termination — the scalar ``run_while``
        predicates, checked after the full departure event.  A lane
        reaching its completion target retires: it leaves the active
        mask and queues for :meth:`drain_retired`."""
        done_jobs = self.finished[idx]
        crossing = ((done_jobs == self._warm_tgt[idx])
                    & ~self.reset_done[idx])
        if crossing.any():
            rows = idx[crossing]
            t = self.now[rows]
            self.origin[rows] = t
            self.m_area[rows] = 0.0
            self.m_last[rows] = t
            self.resp_cnt[rows] = 0
            self.resp_mean[rows] = 0.0
            self.batch_sum[rows] = 0.0
            self.in_batch[rows] = 0
            self.b_cnt[rows] = 0
            self.b_mean[rows] = 0.0
            self.b_m2[rows] = 0.0
            self.backlog_reset[rows] = self._backlog(rows)
            self.reset_done[rows] = True
        finished = done_jobs >= self._total_tgt[idx]
        if finished.any():
            rows = idx[finished]
            self.end_time[rows] = self.now[rows]
            self.backlog_end[rows] = self._backlog(rows)
            self.active[rows] = False
            done = rows.tolist()
            self._retired.extend(done)
            self.active_lanes -= len(done)

    def step(self) -> None:
        """One step of the lockstep engine: vectorized select,
        departure statistics and run control; per-lane Python pops,
        policy reactions and arrival bursts.

        Lanes never interact, so each arrival lane may process its
        whole run of arrivals up to (strictly before) its own next
        departure in one go — global (time, sequence) order only ever
        matters *within* a lane."""
        active = self.active
        dmin_t = self._dmin_t
        na_t = self.na_t
        tie = dmin_t == na_t  # simlint: disable=SIM002 -- exact calendar tie-break, mirrors the heap's total order
        is_dep = active & ((dmin_t < na_t)
                           | (tie & (self._dmin_eid < self.na_eid)))
        dep_lanes = np.nonzero(is_dep)[0]
        arr_mask = active & ~is_dep
        if dep_lanes.size:
            self._departures(dep_lanes)
            self._post_departure(dep_lanes)
        if arr_mask.any():
            arr_lanes = np.nonzero(arr_mask)[0]
            burst = self._burst
            for lane, dmin in zip(arr_lanes.tolist(),
                                  dmin_t[arr_mask].tolist()):
                burst(lane, dmin)

    # -- results -----------------------------------------------------------

    def _point(self, lane: int) -> "SweepPoint":
        """The finished lane's statistics, exactly as the scalar
        engine's :class:`~repro.analysis.points.SweepPoint`."""
        from repro.analysis.points import SweepPoint

        confidence = 0.95
        end = float(self.end_time[lane])
        elapsed = end - float(self.origin[lane])
        if elapsed <= 0:
            raise ValueError("empty measurement window")
        denom = self.capacity * elapsed
        tail = end - float(self.m_last[lane])
        gross = (float(self.m_area[lane, 0])
                 + float(self.m_val[lane, 0]) * tail) / denom
        net = (float(self.m_area[lane, 1])
               + float(self.m_val[lane, 1]) * tail) / denom
        mean = (float(self.resp_mean[lane]) if self.resp_cnt[lane]
                else math.nan)
        k = int(self.b_cnt[lane])
        if k < 2:
            half = math.inf
        else:
            t_quant = student_t_quantile(0.5 + confidence / 2.0, k - 1)
            std = math.sqrt(float(self.b_m2[lane]) / (k - 1))
            half = t_quant * std / math.sqrt(k)
        saturated = (int(self.backlog_end[lane])
                     > max(50, 3 * int(self.backlog_reset[lane]) + 20))
        return SweepPoint(
            offered_gross=self._offered[lane],
            gross_utilization=gross,
            net_utilization=net,
            mean_response=mean,
            ci_half_width=half,
            saturated=saturated,
        )


def run_batch_points(config: SimulationConfig,
                     size_distribution: Distribution,
                     service_distribution: Distribution,
                     offered_gross: float,
                     seeds: Sequence[int],
                     arrival_rate: Optional[float] = None
                     ) -> "list[SweepPoint]":
    """Run one configuration under many seeds in lockstep.

    Returns one :class:`~repro.analysis.points.SweepPoint` per seed, in
    input order, each bit-identical to the scalar
    :func:`~repro.core.system.run_open_system` result for that seed.
    ``arrival_rate`` overrides the rate derived from ``offered_gross``
    (they are redundant; both are accepted so callers can match either
    scalar entry point exactly).
    """
    if not seeds:
        raise BatchBackendError("need at least one seed")
    factory = JobFactory(
        size_distribution,  # type: ignore[arg-type]
        service_distribution,
        config.component_limit,
        clusters=len(config.capacities),
        extension_factor=config.extension_factor,
        routing_weights=config.routing_weights,
        streams=StreamFactory(0),
    )
    if arrival_rate is None:
        arrival_rate = factory.arrival_rate_for_gross_utilization(
            offered_gross, config.capacity
        )
    kernel = BatchLaneKernel(config, size_distribution,
                             service_distribution, len(seeds))
    for slot, seed in enumerate(seeds):
        kernel.load(slot, replace(config, seed=int(seed)),
                    arrival_rate=arrival_rate)
    while not kernel.idle:
        kernel.step()
    by_slot = dict(kernel.drain_retired())
    return [by_slot[slot] for slot in range(len(seeds))]


def run_batch_task(task: "RunTask") -> "SweepPoint":
    """Worker entry point for ``backend="batch"`` tasks (width 1).

    The lockstep kernel degenerates to a single lane; results are
    width-independent, so a task executed here (serially, under the
    fault-injecting pool, from a cache-miss retry, ...) is
    byte-identical to the same seed inside a wide wave.
    """
    points = run_batch_points(task.config, task.size_distribution,
                              task.service_distribution, task.offered_gross,
                              (task.config.seed,))
    return points[0]
