#!/usr/bin/env python3
"""The repository benchmark: one campaign through every execution path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig3-grid --seed 1 --trace 0

A run generates the workload's cells from ``--seed`` and pushes them
through ``repro.analysis.sweep`` (scalar, scalar with two workers,
batch) and through a ``repro-sim serve --fleet 2`` process (two
clients cold, then two closed-loop clients warm for ``--seconds``).
Every path's points must agree -- and match the recorded fingerprint
when the seed has one -- or the run prints no numbers and exits 1.

Every time is scaled to a reference host speed (``hostspeed.py``), so
that the drift of a shared host cancels out.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` is the separate traced run that
prints the per-layer metrics and writes a Chrome trace under
``.perfbench-out/``.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Optional

import checks
import hostspeed
import layers
import service_load
import workloads

HERE = Path(__file__).resolve().parent

#: Successful warm campaigns a run must hold (>= 10 beyond p95).
MIN_WARM_CAMPAIGNS = 200

#: Fresh servers per run, each timed to readiness and then given one
#: cold campaign; ``setup_s`` is their median and ``service_cold_s``
#: their mean without the fastest and the slowest.  One cold round
#: varies by +-20 %, so it takes several to steady the figure.
SERVICE_ROUNDS = 7

#: Repetitions of the one-shot sweep arms; each metric is the median.
COLD_REPS = 2

#: Slices of the warm phase.  Each is timed and scaled on its own, and
#: the slices are spread over the run between the other phases.
WARM_SLICES = 10

#: Untimed warm campaigns before the warm phase is measured.
WARMUP_CAMPAIGNS = 4

#: Successful submissions of the same-campaign probe (traced run only).
PROBE_CAMPAIGNS = 100


def _bootstrap(root: Path) -> None:
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro under {root}; run "
                         f"from the root of a repository checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {src}")


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (a measured sample)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def trimmed_mean(values: list[float]) -> float:
    """The mean without the lowest and the highest value."""
    ordered = sorted(values)
    return statistics.mean(ordered[1:-1])


def tree_bytes(*roots: Path) -> int:
    """Bytes in regular files under ``roots``."""
    total = 0
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in names:
                with contextlib.suppress(OSError):
                    total += os.lstat(os.path.join(dirpath, name)).st_size
    return total


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload_name: str, seed: int, seconds: float,
                 root: Path) -> None:
        from repro.service.protocol import normalize_spec, spec_campaign
        from repro.workload import WORKLOADS, das_t_900

        self.workload = workloads.WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.curves = workloads.curves(self.workload, seed)
        #: One campaign per client: the same cells, its own label.
        self.specs = [workloads.campaign_spec(self.workload, seed, client)
                      for client in (0, 1)]
        self.campaigns = [spec_campaign(normalize_spec(spec))[0]
                          for spec in self.specs]
        self.cell_order = [(curve.label, rho) for curve in self.curves
                           for rho in curve.loads]
        self.sizes = WORKLOADS["das-s-128"]()
        self.service = das_t_900()
        self.work = (root / ".perfbench-run"
                     / f"{workload_name}-{seed}-{os.getpid()}")
        self.clock = hostspeed.HostClock()
        self.attempted = 0
        self.failures: list[str] = []
        #: Path name -> {(curve, load): point dict}.
        self.cells: dict[str, dict] = {}
        #: Arm name -> wall seconds of each repetition, unscaled.
        self.walls: dict[str, list[float]] = {}
        self.tracer = None
        self.servers: list = []
        self._turns = itertools.count()

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True)
        return path

    @contextlib.contextmanager
    def observed(self, obs_dir: Optional[Path]):
        """Switch the obs layer on, writing into ``obs_dir``."""
        if obs_dir is None:
            yield
            return
        os.environ["REPRO_OBS"] = "1"
        os.environ["REPRO_OBS_DIR"] = str(obs_dir)
        try:
            yield
        finally:
            del os.environ["REPRO_OBS"], os.environ["REPRO_OBS_DIR"]

    def _span(self, arm: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.arm = arm
        stack = contextlib.ExitStack()
        stack.enter_context(
            self.tracer.campaign(f"{self.workload.name}/{arm}"))
        stack.enter_context(self.tracer.span("arm", arm))
        return stack

    # -- one-shot sweeps ------------------------------------------------

    def cold_sweeps(self, arms: dict[str, tuple[str, int, bool]],
                    rep: int = 0) -> dict[str, float]:
        """Every curve through ``sweep()`` once per arm.

        Each sweep runs its whole load grid (no early stop), like the
        service campaign, so every path covers the same cells and the
        work does not depend on where a seed happens to saturate.
        ``arms`` maps an arm name to ``(backend, workers, observed)``;
        an observed arm runs with the obs layer on.  ``rep`` numbers
        the repetition.  Every arm starts on a fresh cache directory.
        The arms take turns curve by curve, in an order that keeps
        rotating across calls, and each curve is a segment of its own
        on the host clock.  Returns each arm's scaled seconds.  A sweep
        that raises fails the gate: an arm that is missing cells has no
        comparable time.
        """
        from repro.analysis import sweeps
        from repro.analysis.points import point_to_dict
        from repro.runner import ResultCache

        names = list(arms)
        elapsed = dict.fromkeys(names, 0.0)
        walls = dict.fromkeys(names, 0.0)
        stores, obs_dirs = {}, {}
        for arm in names:
            stores[arm] = ResultCache(self.fresh_dir(f"cache-{arm}-{rep}"))
            obs_dirs[arm] = (self.fresh_dir(f"obs-{arm}-{rep}")
                             if arms[arm][2] else None)
            self.cells[f"{arm}.{rep}"] = {}
        for curve in self.curves:
            turn = next(self._turns) % len(names)
            for arm in names[turn:] + names[:turn]:
                backend, workers, _ = arms[arm]
                self.attempted += 1
                # The segment is outermost, so the reference loop runs
                # outside every traced span.
                with self.clock.segment() as seg, \
                        self.observed(obs_dirs[arm]), self._span(arm):
                    try:
                        result = sweeps.sweep(
                            curve.label, curve.config, self.sizes,
                            self.service, curve.loads,
                            stop_after_saturation=len(curve.loads),
                            workers=workers, cache=stores[arm],
                            backend=backend)
                    except Exception as exc:
                        raise checks.GateError(
                            f"{arm} sweep of {curve.label} failed: "
                            f"{exc!r}") from exc
                elapsed[arm] += seg.seconds
                walls[arm] += seg.wall
                cells = self.cells[f"{arm}.{rep}"]
                for rho, point in zip(curve.loads, result.points):
                    cells[(curve.label, rho)] = point_to_dict(point)
        for arm, wall in walls.items():
            self.walls.setdefault(arm, []).append(wall)
        return elapsed

    # -- the service ----------------------------------------------------

    def spawn(self, name: str, traced: bool = False):
        """A fresh server, always with the obs layer off.

        With obs on the service runs cells as scalar tasks in two fleet
        threads at once, which share placement's module-level scratch
        list and can give wrong points (see README); its numbers would
        measure that defect, not the obs layer.
        """
        cache_dir = self.fresh_dir(f"cache-{name}")
        if traced:
            self.server_trace = self.work / f"{name}-trace.json"
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    str(self.server_trace)]
        else:
            argv = [sys.executable, "-m", "repro.cli"]
        server = service_load.ServerProcess(
            argv, cwd=self.root,
            socket_path=str((self.work / f"{name}.sock")
                            .relative_to(self.root)),
            cache_dir=cache_dir,
            env=service_load.server_env(self.root / "src"),
            log_path=self.work / f"{name}.log")
        self.servers.append(server)
        return server

    def setup(self, name: str, traced: bool = False):
        """Spawn a fresh server; return it and its scaled time to ready."""
        with self.clock.segment() as seg:
            server = self.spawn(name, traced)
            server.wait_ready()
        return server, seg

    def _tag(self):
        tracer = self.tracer
        if tracer is None:
            return lambda index, run_id: contextlib.nullcontext()
        campaigns = [campaign[:12] for campaign in self.campaigns]

        @contextlib.contextmanager
        def tag(index: int, run_id: str):
            with tracer.campaign(campaigns[index]), \
                    tracer.span("client", run_id):
                yield
        return tag

    def _count(self, logs) -> None:
        for log in logs:
            self.attempted += len(log.latencies) + len(log.failures)
            self.failures.extend(log.failures)

    def service_cold(self, server) -> float:
        """Both clients submit the whole workload to a fresh server.

        Returns the scaled seconds until both hold every point.
        """
        with self.clock.segment() as seg, self._span("service_cold"):
            cold_s, logs = service_load.cold_phase(server, self.specs,
                                                   self._tag())
        self._count(logs)
        executed = server.control().status()["counters"]["tasks.executed"]
        if executed != len(self.cell_order):
            raise checks.GateError(f"cold phase executed {executed} tasks "
                                   f"for {len(self.cell_order)} cells")
        raw = logs[0].raw_points
        if any(log.raw_points != raw for log in logs):
            raise checks.GateError("the two cold clients received "
                                   "different points")
        if len(raw) != len(self.cell_order):
            raise checks.GateError(f"service streamed {len(raw)} of "
                                   f"{len(self.cell_order)} cells")
        cells = dict(zip(self.cell_order, raw))
        previous = self.cells.setdefault("service_cold", cells)
        checks.compare("service_cold", cells, previous, "service_cold")
        return cold_s * seg.factor

    def service_warm(self, server, seconds: float, min_campaigns: int,
                     specs: Optional[list[dict]] = None,
                     arm: str = "service_warm") -> dict:
        """Two closed-loop clients resubmit against the warm cache.

        Returns the phase's wall seconds, the wall latency of every
        successful campaign, the host clock's factor around the phase,
        the logs and the server's counters before and after.  ``specs``
        defaults to each client's own campaign; the logs' submissions
        are counted unless ``specs`` is given.
        """
        client = server.control()
        before = client.status()["counters"]
        with self.clock.segment() as seg, self._span(arm):
            warm_s, logs = service_load.warm_phase(
                server, specs or self.specs, seconds=seconds,
                min_campaigns=min_campaigns, tag=self._tag())
        if specs is None:
            self._count(logs)
        after = client.status()["counters"]
        if after["tasks.executed"] != before["tasks.executed"]:
            raise checks.GateError(
                f"warm phase executed "
                f"{after['tasks.executed'] - before['tasks.executed']} "
                f"tasks; a warm campaign must execute none")
        cold = [self.cells["service_cold"][cell]
                for cell in self.cell_order]
        for log in logs:
            if not log.consistent or log.raw_points not in (None, cold):
                raise checks.GateError("a warm campaign's points differ "
                                       "from the cold campaign's")
        return {"warm_s": warm_s, "factor": seg.factor, "before": before,
                "after": after, "logs": logs,
                "latencies": [t for log in logs for t in log.latencies]}

    # -- the gate -------------------------------------------------------

    def gate(self) -> tuple[str, str]:
        """Compare every path's cells; check the recorded fingerprint."""
        reference = self.cells["service_cold"]
        for name, cells in self.cells.items():
            if name != "service_cold":
                checks.compare(name, cells, reference, "service_cold")
        status = checks.check_fingerprint(checks.load_fingerprints(),
                                          self.workload.name, self.seed,
                                          reference)
        return checks.fingerprint(reference), status

    def cleanup(self) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


#: Layers costed from the load generator alone (see ``per_layer``).
ENGINE_LAYERS = frozenset({"sim", "workload", "policy", "placement",
                           "system", "recorder", "batch", "fused", "pool",
                           "sweeps", "obs"})


def _sum_counts(*per_arm: dict, skip: str = "") -> dict[str, float]:
    """Add ``{arm: {counter: value}}`` tables up over arms but ``skip``."""
    out: dict[str, float] = {}
    for table in per_arm:
        for arm, arm_counts in table.items():
            if arm == skip:
                continue
            for name, value in arm_counts.items():
                out[name] = out.get(name, 0) + value
    return out


ARMS = {"cold_scalar": ("scalar", 1, False),
        "cold_scalar_w2": ("scalar", 2, False),
        "cold_batch": ("batch", 1, False)}

#: The batch arm with the obs layer on (traced run only).  At this
#: commit ``fused_eligible()`` is false under obs, so it runs per task.
OBS_ARM = ("batch", 1, True)


def _spread(plan: dict[str, int]) -> list[str]:
    """Interleave ``{kind: count}`` evenly: each kind spans the run."""
    return [kind for _, kind in sorted(
        ((index + 0.5) / count, kind)
        for kind, count in plan.items() for index in range(count))]


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """The untraced run: every end-to-end metric."""
    setups, service_colds = [], []

    def cold_round(name: str):
        # A fresh server: timed from spawn until it accepts, then one
        # cold two-client campaign.
        server, seg = run.setup(name)
        setups.append(seg)
        service_colds.append(run.service_cold(server))
        return server

    # The first server stays up as the warm server.  The warm slices,
    # the sweep repetitions and the other cold rounds are spread evenly
    # over the run, so each figure samples the whole run rather than
    # one stretch of it; the warm server idles while the others run.
    server = cold_round("svc0")
    # Warm-up: the first warm campaigns after a cold one run slower;
    # they count as operations but not as warm samples.
    run.service_warm(server, 0.0, WARMUP_CAMPAIGNS)
    reps: dict[str, list[float]] = {arm: [] for arm in ARMS}
    #: Per warm slice: its scaled latencies and scaled seconds.
    slices: list[tuple[list[float], float]] = []
    for kind in _spread({"warm": WARM_SLICES, "sweeps": COLD_REPS,
                         "cold": SERVICE_ROUNDS - 1}):
        if kind == "warm":
            warm = run.service_warm(server, run.seconds / WARM_SLICES,
                                    math.ceil(MIN_WARM_CAMPAIGNS
                                              / WARM_SLICES))
            factor = warm["factor"]
            slices.append(([t * factor for t in warm["latencies"]],
                           warm["warm_s"] * factor))
        elif kind == "sweeps":
            rep = len(reps["cold_scalar"])
            for arm, seconds in run.cold_sweeps(ARMS, rep).items():
                reps[arm].append(seconds)
        else:
            cold_round(f"svc{len(setups)}").stop()
    cold = {arm: statistics.median(times) for arm, times in reps.items()}
    # Each warm figure is the median over the slices of the slice's
    # figure.  A burst of host contention a few seconds long stalls the
    # campaigns of the slice it hits by 2-4x; pooled, those few would
    # be the whole top 5 %, and p95 would measure the host's bursts.
    latencies = [t for lats, _ in slices for t in lats]
    warm_s = sum(seconds for _, seconds in slices)
    p50, p95, rate = (statistics.median(figures) for figures in zip(*(
        (nearest_rank(lats, 0.50), nearest_rank(lats, 0.95),
         len(lats) / seconds) for lats, seconds in slices)))
    server_rss = server.peak_rss_mb()
    server.stop()
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(run.failures)
    w2, batch = cold["cold_scalar_w2"], cold["cold_batch"]
    factors = run.clock.factors
    metrics = {
        "setup_s": (statistics.median(seg.seconds for seg in setups), "s"),
        "cold_scalar_s": (cold["cold_scalar"], "s"),
        "cold_scalar_w2_s": (w2, "s"),
        "cold_batch_s": (batch, "s"),
        # The two cold clients split the campaign between them at
        # random: one fused call or two contending for the interpreter
        # lock, 1.3 s or 2 s on fig3-grid.  The median of a few rounds
        # flips between those modes; the mean does not.
        "service_cold_s": (trimmed_mean(service_colds), "s"),
        "warm_p50_ms": (p50 * 1e3, "ms"),
        "warm_p95_ms": (p95 * 1e3, "ms"),
        "warm_campaigns_per_s": (rate, "1/s"),
        "peak_rss_mb": (max(server_rss, own_rss), "MB"),
    }
    notes = [
        f"host speed factor median {statistics.median(factors):.4f} "
        f"(min {min(factors):.4f}, max {max(factors):.4f}) over "
        f"{len(factors)} segments; reference loop "
        f"{hostspeed.REFERENCE_S * 1e3:.1f} ms at factor 1, "
        f"{run.clock.overhead_s:.2f} s spent in it",
        f"failed_share {failed / run.attempted!r} ratio "
        f"({failed} failed of {run.attempted} attempted operations)",
        f"warm samples {len(latencies)} successful campaigns "
        f"({sum(1 for t in latencies if t > p95)} beyond p95) "
        f"in {WARM_SLICES} slices, {warm_s:.2f} s; pooled p50 "
        f"{nearest_rank(latencies, 0.50) * 1e3:.3f} ms, p95 "
        f"{nearest_rank(latencies, 0.95) * 1e3:.3f} ms, "
        f"{len(latencies) / warm_s:.3f} campaigns/s",
        f"runner.batch_over_w2 {w2 / batch!r} ratio "
        f"(cold_scalar_w2_s {w2!r} / cold_batch_s {batch!r})",
        *(f"{arm}_s samples {[round(t, 4) for t in times]} "
          f"(wall {[round(t, 4) for t in run.walls[arm]]})"
          for arm, times in reps.items()),
        f"setup_s samples {[round(seg.seconds, 4) for seg in setups]} "
        f"(wall {[round(seg.wall, 4) for seg in setups]})",
        f"service_cold_s samples {[round(t, 4) for t in service_colds]}",
        f"peak_rss_mb server {server_rss:.1f} load generator {own_rss:.1f}",
    ]
    return metrics, notes


def per_layer(run: Run, out_dir: Path) -> tuple[dict, list[str]]:
    """The traced run: every per-layer metric, plus a Chrome trace."""
    cold = run.cold_sweeps({**ARMS, "cold_batch_obs": OBS_ARM})
    scalar, w2, batch = (cold["cold_scalar"], cold["cold_scalar_w2"],
                         cold["cold_batch"])
    obs_arm = "cold_batch_obs_traced"
    tracer = layers.LayerTracer()
    run.tracer = tracer
    with tracer.installed():
        traced = run.cold_sweeps({"cold_scalar_traced": ARMS["cold_scalar"],
                                  "cold_batch_traced": ARMS["cold_batch"],
                                  obs_arm: OBS_ARM})
        server, _ = run.setup("svc-traced", traced=True)
        run.service_cold(server)
        after_cold = run.service_warm(server, 0.0,
                                      WARMUP_CAMPAIGNS)["before"]
        service = run.service_warm(server, run.seconds, MIN_WARM_CAMPAIGNS)
        # Both clients submit the *same* campaign: the campaign manifest
        # and ledger writers race on one fixed ``.tmp`` name (ROADMAP
        # item 1).  Measured here, and kept out of the run's operations.
        probe = run.service_warm(server, 0.0, PROBE_CAMPAIGNS,
                                 specs=[run.specs[0]] * 2, arm="race_probe")
        server.stop()
    traced_scalar = traced["cold_scalar_traced"]
    with open(run.server_trace, encoding="utf-8") as fh:
        remote = json.load(fh)
    # Layers that run inside a task or a lane are costed from the load
    # generator's traced arms, which run one task at a time; in the
    # server two fleet threads contend for the interpreter lock, which
    # would inflate every per-job time.  The cache, campaign, protocol
    # and service layers add up both processes.  The obs arm counts
    # for the obs layer alone: it runs per task, not fused.
    local = tracer.aggregates()
    rows = local + remote["aggregates"]
    local_counts = _sum_counts(tracer.counts(), skip=obs_arm)
    all_counts = _sum_counts(tracer.counts(), remote["counts"],
                             skip=obs_arm)
    server_spans = [layers.Span(*row) for row in remote["spans"]]
    spans = tracer.spans + server_spans

    def select(layer: str, name: Optional[str] = None,
               arm: Optional[str] = None) -> tuple[int, float, float]:
        source = local if layer in ENGINE_LAYERS else rows
        picked = [row for row in source if row["layer"] == layer
                  and (name is None or row["name"] == name)
                  and (arm is None or row["arm"] == arm)
                  and (row["arm"] == obs_arm) == (layer == "obs")]
        return (sum(row["calls"] for row in picked),
                sum(row["total_s"] for row in picked),
                sum(row["self_s"] for row in picked))

    def count(name: str) -> float:
        layer = name.partition(".")[0]
        source = local_counts if layer in ENGINE_LAYERS else all_counts
        return source.get(name, 0)

    def per(numerator: float, denominator: float, scale: float = 1.0):
        return numerator / denominator * scale if denominator else 0.0

    m: dict[str, tuple[float, str]] = {}
    sim_self = select("sim")[2]
    m["sim.events"] = (count("sim.events"), "count")
    m["sim.self_s"] = (sim_self, "s")
    m["sim.ns_per_event"] = (per(sim_self, count("sim.events"), 1e9), "ns")
    for layer, unit_name, label in (("workload", "jobs", "job"),
                                    ("policy", "calls", "call")):
        calls, _, self_s = select(layer)
        m[f"{layer}.{unit_name}"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.ns_per_{label}"] = (per(self_s, calls, 1e9), "ns")
    attempts, _, placement_self = select("placement")
    fits = count("placement.fits")
    m["placement.attempts"] = (attempts, "count")
    m["placement.fits"] = (fits, "count")
    m["placement.fit_ratio"] = (per(fits, attempts), "ratio")
    m["placement.ns_per_attempt"] = (per(placement_self, attempts, 1e9),
                                     "ns")
    m["system.starts"] = (select("system", "start_job")[0], "count")
    m["system.self_s"] = (select("system")[2], "s")
    updates, _, recorder_self = select("recorder")
    m["recorder.updates"] = (updates, "count")
    m["recorder.self_s"] = (recorder_self, "s")
    m["recorder.ns_per_update"] = (per(recorder_self, updates, 1e9), "ns")
    m["recorder.share"] = (per(select("recorder", arm="cold_scalar_traced")[2],
                               run.walls["cold_scalar_traced"][0]), "ratio")
    batch_self = select("batch")[2]
    m["batch.steps"] = (select("batch", "step")[0], "count")
    m["batch.lanes"] = (select("batch", "load")[0], "count")
    m["batch.self_s"] = (batch_self, "s")
    m["batch.ns_per_job"] = (per(batch_self, count("batch.jobs"), 1e9),
                             "ns")
    m["fused.calls"] = (select("fused")[0], "count")
    m["fused.self_s"] = (select("fused")[2], "s")
    m["pool.tasks"] = (select("pool", "run_task")[0], "count")
    m["pool.self_s"] = (select("pool")[2], "s")
    m["pool.w2_efficiency"] = (per(scalar, 2 * w2), "ratio")
    loads, load_total, _ = select("cache", "load")
    stores, store_total, _ = select("cache", "store")
    hits = count("cache.hits")
    m["cache.loads"] = (loads, "count")
    m["cache.hits"] = (hits, "count")
    m["cache.hit_ratio"] = (per(hits, loads), "ratio")
    m["cache.stores"] = (stores, "count")
    m["cache.load_us"] = (per(load_total, loads, 1e6), "us")
    m["cache.store_us"] = (per(store_total, stores, 1e6), "us")
    m["cache.bytes_written"] = (tree_bytes(*(
        path for path in run.work.glob("cache-*traced*")
        if obs_arm not in path.name)), "bytes")
    writes, write_total, _ = select("campaign")
    m["campaign.writes"] = (writes, "count")
    m["campaign.write_us"] = (per(write_total, writes, 1e6), "us")
    probe_failed = sum(len(log.failures) for log in probe["logs"])
    probe_tried = probe_failed + len(probe["latencies"])
    m["campaign.race_failed_share"] = (per(probe_failed, probe_tried),
                                       "ratio")
    m["sweeps.calls"] = (select("sweeps")[0], "count")
    m["sweeps.self_s"] = (select("sweeps")[2], "s")
    after_warm = service["after"]
    m["service.executed"] = (after_warm["tasks.executed"], "count")
    m["service.hits"] = (after_warm["tasks.hit"], "count")
    m["service.deduped"] = (after_warm["tasks.deduped"], "count")
    m["service.dedup_ratio"] = (per(after_cold["tasks.deduped"],
                                    after_cold["tasks.executed"]
                                    + after_cold["tasks.hit"]
                                    + after_cold["tasks.deduped"]),
                                "ratio")
    submissions = select("protocol", "normalize_spec")[0]
    m["protocol.us_per_campaign"] = (per(select("protocol")[2],
                                         submissions, 1e6), "us")
    m["service.warm_us_per_point"] = (
        per(nearest_rank(service["latencies"], 0.5) * service["factor"],
            len(run.cell_order), 1e6), "us")
    m["obs.bytes_written"] = (tree_bytes(*run.work.glob(f"obs-{obs_arm}-*")),
                              "bytes")
    m["obs.manifests"] = (select("obs", "write_manifest")[0], "count")
    m["obs.self_s"] = (select("obs")[2], "s")
    m["obs.cold_batch_s"] = (cold["cold_batch_obs"], "s")
    m["runner.batch_over_w2"] = (per(w2, batch), "ratio")
    m["runner.w2_s"] = (w2, "s")
    m["runner.batch_s"] = (batch, "s")
    m["trace.overhead"] = (per(traced_scalar, scalar), "ratio")
    m["trace.scalar_traced_s"] = (traced_scalar, "s")
    m["trace.scalar_untraced_s"] = (scalar, "s")
    # What no engine-layer wrapper covers: in a sweep arm, the self
    # time of the outermost wrappers (task keys, point conversion,
    # building each simulation); in the service, the time a client
    # waits while no timed call runs in the server (socket I/O,
    # framing, the server's request handling).
    for arm in ("cold_scalar", "cold_batch"):
        m[f"unattributed.{arm}_s"] = (sum(
            row["self_s"] for row in local
            if row["arm"] == f"{arm}_traced"
            and row["layer"] in ("arm", "sweeps", "pool")), "s")
    m["unattributed.service_s"] = (layers.uncovered(
        [(span.start, span.end) for span in tracer.spans
         if span.layer == "service" and span.arm != "race_probe"],
        [(span.start, span.end) for span in server_spans]), "s")

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / (f"trace-{run.workload.name}-seed{run.seed}"
                            f".json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(layers.chrome_trace(spans, rows), fh)
    notes = [f"chrome trace {trace_path} ({len(spans)} spans)",
             f"traced cold_batch_s {traced['cold_batch_traced']!r}, "
             f"traced cold_batch_obs_s {traced[obs_arm]!r}",
             f"campaign.race_failed_share: {probe_failed} of "
             f"{probe_tried} same-campaign submissions failed (not "
             f"counted as the run's operations)",
             *(f"race probe failure: {failure}" for failure in
               [f for log in probe["logs"] for f in log.failures][:2])]
    for layer in layers.LAYERS:
        calls, total, self_s = select(layer)
        if calls:
            notes.append(f"layer {layer:<9} calls {calls:>9} "
                         f"total {total:9.4f} s self {self_s:9.4f} s")
    return m, notes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the warm closed-loop phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    _bootstrap(root)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    # Imports every arm needs are paid here, outside the timed regions.
    import repro.analysis.sweeps  # noqa: F401
    import repro.runner.fused  # noqa: F401
    import repro.service  # noqa: F401
    import repro.sim.batch  # noqa: F401

    run = Run(args.workload, args.seed, args.seconds, root)
    try:
        if args.trace:
            metrics, notes = per_layer(run, root / ".perfbench-out")
        else:
            metrics, notes = end_to_end(run)
        fingerprint, status = run.gate()
    except checks.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}",
              file=sys.stderr)
        return 1
    finally:
        run.cleanup()

    print(f"perfbench {args.workload} seed {args.seed} "
          f"({len(run.cell_order)} cells, trace {args.trace})")
    print(f"fingerprint {fingerprint} ({status})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    for note in notes:
        print(note)
    for failure in run.failures[:5]:
        print(f"failure: {failure}")
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
