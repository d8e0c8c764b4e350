"""Per-layer attribution: timing wrappers around each layer's public calls.

The benchmark measures the program from outside.  :class:`LayerTracer`
patches a timing wrapper over every call listed in :data:`TARGETS` --
in the module attribute or class dict where callers look the name up --
and :meth:`LayerTracer.remove` puts every original object back.

Two kinds of call are timed:

* *coarse* calls (a sweep, a task, a lane load, a cache or campaign
  operation, a service request) are kept in full as spans with their
  parent span, thread and the shared campaign id of the request;
* *fine* calls (per job or per placement attempt) are folded into a
  count, total time and self time per layer, so memory stays bounded.

A call's self time is its duration minus the part of it that its
wrapped children cover.  Children on the caller's own thread run
strictly nested, so their durations add up; children on other threads
(``asyncio.to_thread`` work under a service request) may overlap, so
their intervals are merged first (:func:`covered`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence


@dataclass(frozen=True)
class Target:
    """One timed call: where the name lives and how to count its work."""

    layer: str
    owner: str          # "module" or "module:Class"
    name: str
    coarse: bool = False
    #: ``counter(args, result, before) -> {name: increment}``.
    counter: Optional[Callable] = None
    #: ``before(args)`` evaluated ahead of the call, passed to counter.
    before: Optional[Callable] = None
    #: The call returns ``(campaign_key, ...)``: tag the caller's
    #: context with it, so later spans of the request share the id.
    names_campaign: bool = False


def _events_before(args):
    return args[0].events_scheduled


def _events(args, result, before):
    return {"sim.events": args[0].events_scheduled - before}


def _fits(args, result, before):
    return {"placement.fits": result is not None}


def _hits(args, result, before):
    return {"cache.hits": result is not None}


def _lane_jobs(args, result, before):
    config = args[2]
    return {"batch.jobs": config.warmup_jobs + config.measured_jobs}


_MODULES_EXECUTE = ("repro.runner.pool", "repro.runner",
                    "repro.analysis.sweeps", "repro.service.scheduler")
_MODULES_FUSED = ("repro.runner.fused", "repro.runner",
                  "repro.analysis.sweeps", "repro.service.scheduler")
_MODULES_CAMPAIGN = ("repro.runner.campaign", "repro.runner",
                     "repro.analysis.sweeps", "repro.service.server")

#: Every timed call.  Where callers bind a name into their own module
#: (``from repro.runner import execute``), each such module attribute
#: is patched.
TARGETS: tuple[Target, ...] = (
    Target("sim", "repro.sim.engine:Simulator", "run_while", coarse=True,
           counter=_events, before=_events_before),
    Target("workload", "repro.workload.generator:JobFactory", "next_job"),
    *(Target("policy", f"repro.core.policies:{cls}", method)
      for cls in ("_SingleQueuePolicy", "LSPolicy", "LPPolicy")
      for method in ("submit", "on_departure")),
    *(Target("placement", module, "place_components", counter=_fits)
      for module in ("repro.core.placement", "repro.core.policies",
                     "repro.core.requests")),
    Target("system", "repro.core.system:MulticlusterSimulation", "submit"),
    Target("system", "repro.core.system:MulticlusterSimulation",
           "start_job"),
    *(Target("recorder", "repro.metrics.recorder:MetricsRecorder", method)
      for method in ("on_arrival", "on_start", "on_finish")),
    Target("batch", "repro.sim.batch:BatchLaneKernel", "step"),
    Target("batch", "repro.sim.batch:BatchLaneKernel", "load",
           coarse=True, counter=_lane_jobs),
    Target("batch", "repro.sim.batch:BatchLaneKernel", "drain_retired"),
    *(Target("fused", module, "execute_fused", coarse=True)
      for module in _MODULES_FUSED),
    *(Target("pool", module, "execute", coarse=True)
      for module in _MODULES_EXECUTE),
    Target("pool", "repro.runner.pool", "run_task", coarse=True),
    Target("pool", "repro.obs.worker", "run_task_observed", coarse=True),
    Target("cache", "repro.runner.cache:ResultCache", "load", coarse=True,
           counter=_hits),
    Target("cache", "repro.runner.cache:ResultCache", "store",
           coarse=True),
    Target("cache", "repro.runner.cache:ResultCache", "contains",
           coarse=True),
    *(Target("campaign", module, name, coarse=True)
      for module in _MODULES_CAMPAIGN
      for name in ("begin_campaign", "finish_campaign", "record_ledger")
      if not (module == "repro.analysis.sweeps"
              and name == "record_ledger")),
    Target("sweeps", "repro.analysis.sweeps", "sweep", coarse=True),
    Target("service", "repro.service.client:ServiceClient", "run",
           coarse=True),
    Target("protocol", "repro.service.server", "normalize_spec",
           coarse=True),
    Target("protocol", "repro.service.server", "spec_campaign",
           coarse=True, names_campaign=True),
    Target("protocol", "repro.service.protocol", "spec_tasks",
           coarse=True),
    Target("obs", "repro.obs.events:EventLog", "flush"),
    Target("obs", "repro.obs.events:EventLog", "close"),
    Target("obs", "repro.obs.manifest", "write_manifest", coarse=True),
)

#: Layers in report order.
LAYERS = ("sim", "workload", "policy", "placement", "system", "recorder",
          "batch", "fused", "pool", "cache", "campaign", "sweeps",
          "service", "protocol", "obs")


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _merged(intervals: Iterable[tuple[float, float]]) -> list[list[float]]:
    """``intervals`` as sorted, disjoint ``[start, stop]`` pairs."""
    out: list[list[float]] = []
    for start, stop in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], stop)
        else:
            out.append([start, stop])
    return out


def uncovered(windows: Iterable[tuple[float, float]],
              intervals: Iterable[tuple[float, float]]) -> float:
    """Time inside the union of ``windows`` that no interval covers."""
    cover = _merged(intervals)
    total = 0.0
    first = 0
    for lo, hi in _merged(windows):
        total += hi - lo
        while first < len(cover) and cover[first][1] <= lo:
            first += 1
        index = first
        while index < len(cover) and cover[index][0] < hi:
            start, stop = cover[index]
            total -= min(hi, stop) - max(lo, start)
            index += 1
    return total


@dataclass(slots=True)
class Span:
    """One coarse call, kept in full."""

    id: int
    parent: Optional[int]
    layer: str
    name: str
    arm: str
    campaign: str
    pid: int
    tid: int
    start: float
    end: float
    #: Time covered by wrapped children on the same thread.
    inner: float


def span_self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what children cover.

    Same-thread children are already summed into ``inner``; children on
    other threads may overlap each other, so their intervals are merged
    before they are subtracted.
    """
    remote: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent else None
        if parent is not None and parent.tid != span.tid:
            remote.setdefault(parent.id, []).append((span.start, span.end))
    out = {}
    for span in spans:
        duration = span.end - span.start
        cover = span.inner + covered(remote.get(span.id, ()), span.start,
                                     span.end)
        out[span.id] = duration - min(duration, cover)
    return out


class _ThreadState:
    __slots__ = ("stack", "aggs", "counts")

    def __init__(self) -> None:
        #: Open frames on this thread: ``[child_time]`` lists.
        self.stack: list[list[float]] = []
        #: ``(arm, layer, name) -> [calls, total_s, self_s]``.
        self.aggs: dict[tuple[str, str, str], list] = {}
        #: ``(arm, counter) -> value``.
        self.counts: dict[tuple[str, str], float] = {}


class LayerTracer:
    """Installs the wrappers and collects what they measure."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        #: Label of the benchmark arm the load generator is running.
        self.arm = "-"
        self.spans: list[Span] = []
        self._states: list[_ThreadState] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._campaign: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_campaign", default="-")
        #: ``(holder, name, had_own_entry, original)`` per patch.
        self._patches: list[tuple[object, str, bool, object]] = []
        self._defaults: list[tuple[dict, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch every target; wrapped objects are shared per original."""
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        wrapped: dict[int, object] = {}
        for target in self.targets:
            holder = _resolve(target.owner)
            own = isinstance(holder, type) and target.name in vars(holder)
            original = (vars(holder)[target.name] if own
                        else getattr(holder, target.name))
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = self._wrap(target, original)
                wrapped[id(original)] = wrapper
            self._patches.append((holder, target.name,
                                  own or not isinstance(holder, type),
                                  original))
            setattr(holder, target.name, wrapper)
        # ``execute`` binds its default worker at definition time and
        # compares the worker to the module's ``run_task`` by identity;
        # keep both pointing at the same wrapper.
        from repro.runner import pool

        original_execute = next((orig for holder, name, _, orig
                                 in self._patches
                                 if holder is pool and name == "execute"),
                                None)
        if original_execute is not None:
            defaults = original_execute.__kwdefaults__
            self._defaults.append((defaults, "worker", defaults["worker"]))
            defaults["worker"] = pool.run_task

    def remove(self) -> None:
        """Put every original attribute back."""
        for holder, name, restore, original in reversed(self._patches):
            if restore:
                setattr(holder, name, original)
            else:
                delattr(holder, name)
        self._patches.clear()
        for defaults, key, original in self._defaults:
            defaults[key] = original
        self._defaults.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- measurement ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState()
            self._tls.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _wrap(self, target: Target, fn):
        layer, counter, before = target.layer, target.counter, target.before
        name, names_campaign = target.name, target.names_campaign
        perf = time.perf_counter
        state_of = self._state
        tracer = self

        def count(state, args, result, pre):
            counts = state.counts
            for counted, value in counter(args, result, pre).items():
                ckey = (tracer.arm, counted)
                counts[ckey] = counts.get(ckey, 0) + value

        if not target.coarse:
            @functools.wraps(fn)
            def fine(*args, **kwargs):
                state = state_of()
                stack = state.stack
                frame = [0.0]
                stack.append(frame)
                pre = before(args) if before is not None else None
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                key = (tracer.arm, layer, name)
                agg = state.aggs.get(key)
                if agg is None:
                    agg = state.aggs[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if counter is not None:
                    count(state, args, result, pre)
                return result

            return fine

        @functools.wraps(fn)
        def coarse(*args, **kwargs):
            pre = before(args) if before is not None else None
            with tracer.span(layer, name):
                result = fn(*args, **kwargs)
            if counter is not None:
                count(state_of(), args, result, pre)
            if names_campaign:
                # A plain call shares its caller's context, so this tag
                # outlives the wrapper for the rest of the request.
                tracer._campaign.set(result[0][:12])
            return result

        return coarse

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself (an arm, a request)."""
        state = self._state()
        frame = [0.0]
        span_id = next(self._ids)
        parent = self._parent.get()
        token = self._parent.set((span_id, threading.get_ident()))
        state.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            state.stack.pop()
            self._parent.reset(token)
            if state.stack:
                state.stack[-1][0] += t1 - t0
            self.spans.append(Span(
                span_id, parent[0] if parent else None, layer, name,
                self.arm, self._campaign.get(), os.getpid(),
                threading.get_ident(), t0, t1, frame[0]))

    @contextlib.contextmanager
    def campaign(self, campaign: str):
        """Tag every span opened inside with a shared campaign id."""
        token = self._campaign.set(campaign)
        try:
            yield
        finally:
            self._campaign.reset(token)

    # -- results --------------------------------------------------------

    def aggregates(self) -> list[dict]:
        """One row per (arm, layer, call): calls, total and self time.

        Fine calls are merged over all threads; coarse calls, and the
        benchmark's own spans, are summed from the spans, with self
        times from :func:`span_self_times`.
        """
        merged: dict[tuple[str, str, str], list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, self_s) in list(state.aggs.items()):
                agg = merged.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
        exact = span_self_times(self.spans)
        for span in self.spans:
            agg = merged.setdefault((span.arm, span.layer, span.name),
                                    [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += span.end - span.start
            agg[2] += exact[span.id]
        return [{"arm": arm, "layer": layer, "name": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (arm, layer, name), (calls, total, self_s)
                in sorted(merged.items())]

    def counts(self) -> dict[str, dict[str, float]]:
        """``{arm: {counter: value}}`` over all threads."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for (arm, name), value in list(state.counts.items()):
                arm_counts = out.setdefault(arm, {})
                arm_counts[name] = arm_counts.get(name, 0) + value
        return out


def chrome_trace(spans: Sequence[Span], aggregates: list[dict]) -> dict:
    """Spans as Chrome trace-event JSON (loads in Perfetto)."""
    origin = min(span.start for span in spans)
    events = [{
        "name": span.name, "cat": span.layer, "ph": "X",
        "ts": round((span.start - origin) * 1e6, 3),
        "dur": round((span.end - span.start) * 1e6, 3),
        "pid": span.pid, "tid": span.tid,
        "args": {"id": span.id, "parent": span.parent, "arm": span.arm,
                 "campaign": span.campaign},
    } for span in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"layers": aggregates}}
