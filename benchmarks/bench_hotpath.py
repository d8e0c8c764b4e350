#!/usr/bin/env python
"""Hot-path throughput benchmark: absolute jobs/s and events/s per policy.

Measures the end-to-end throughput of :func:`run_open_system` — the
scalar engine path every sweep, cache and service point runs — for one
case per policy.  There is no reference configuration to compare
against: the numbers are absolute, so a change shows up as a move in
the committed ``BENCH_hotpath.json`` trajectory.

Every run of a case must produce the same fingerprint (event counters,
scheduler counters, utilization report): a case whose rounds diverged
timed different work, and is recorded with ``fingerprint_equal: false``.
Rounds visit the cases in A/B/B/A order (forward, then reversed), so
thermal and frequency drift spreads over every policy instead of
loading the last one.  Each case reports the median throughput and its
lower quartile — the "quiet quartile" convention of
``bench_obs_overhead.py``; the quartile is the conservative figure.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py           # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick --check

Writes machine-readable results to ``BENCH_hotpath.json`` (``--out`` to
redirect).  ``--check`` additionally re-reads the JSON and asserts that
every case parses with positive throughput and passed the fingerprint
self-check, exiting nonzero otherwise (the CI perf-smoke gate).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

# The benchmark (like the engine it measures) needs numpy, which ships
# under the [batch] extra.  Import failures are deferred to main() so
# a no-numpy environment gets a clear skip (exit 0) instead of an
# ImportError — and so pytest can collect this file (python_files
# includes bench_*.py) in minimal environments.
try:
    from repro.core.system import SimulationConfig, run_open_system
    from repro.sim.rng import StreamFactory
    from repro.workload import WORKLOADS, das_t_900
    from repro.workload.generator import JobFactory
except ModuleNotFoundError as exc:
    if (exc.name or "").partition(".")[0] != "numpy":
        raise
    _IMPORT_ERROR: Optional[ModuleNotFoundError] = exc
else:
    _IMPORT_ERROR = None

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "repro.bench.hotpath/2"

#: (policy, target gross utilization, component limit).  GS at the
#: paper's base-case load; LS/LP at high utilization where the local
#: queue scans and placement kernels dominate; SC as the single-cluster
#: reference.
CASES = (
    ("GS", 0.70, 16),
    ("LS", 0.90, 16),
    ("LP", 0.90, 16),
    ("SC", 0.70, None),
)


def _config(policy: str, limit: Optional[int], warmup: int,
            measured: int) -> SimulationConfig:
    if policy == "SC":
        return SimulationConfig.single_cluster(
            seed=7, warmup_jobs=warmup, measured_jobs=measured,
            batch_size=max(1, measured // 10),
        )
    return SimulationConfig(
        policy=policy, component_limit=limit, seed=7,
        warmup_jobs=warmup, measured_jobs=measured,
        batch_size=max(1, measured // 10),
    )


def _run(config: SimulationConfig, rate: float) -> dict:
    """One complete run; returns timing plus a determinism fingerprint."""
    sizes = WORKLOADS["das-s-128"]()
    service = das_t_900()
    start = time.perf_counter()
    result = run_open_system(config, sizes, service, rate)
    elapsed = time.perf_counter() - start
    extras = result.extras
    return {
        "elapsed": elapsed,
        "jobs": extras["jobs_finished"],
        "events": extras["events_processed"],
        "fingerprint": repr((
            sorted(extras.items()),
            result.end_time,
            sorted(result.report.as_dict().items()),
        )),
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    """(lower quartile, median) of ``values``."""
    if len(values) == 1:
        return values[0], values[0]
    return statistics.quantiles(values, n=4)[0], statistics.median(values)


def bench(warmup: int, measured: int, rounds: int) -> dict:
    """Run every case ``rounds`` times; per-case throughput summary."""
    configs = {}
    for policy, rho, limit in CASES:
        config = _config(policy, limit, warmup, measured)
        factory = JobFactory(WORKLOADS["das-s-128"](), das_t_900(),
                             limit, clusters=len(config.capacities),
                             streams=StreamFactory(config.seed))
        configs[policy] = (config, rho,
                           factory.arrival_rate_for_gross_utilization(
                               rho, config.capacity))
    runs: dict[str, list[dict]] = {policy: [] for policy in configs}
    order = list(configs)
    for round_index in range(rounds):
        # A/B/B/A: reverse the case order on every other round.
        for policy in (order if round_index % 2 == 0 else order[::-1]):
            config, _, rate = configs[policy]
            runs[policy].append(_run(config, rate))

    cases = {}
    for policy, policy_runs in runs.items():
        config, rho, _ = configs[policy]
        jobs_rates = [run["jobs"] / run["elapsed"] for run in policy_runs]
        event_rates = [run["events"] / run["elapsed"]
                       for run in policy_runs]
        jobs_q1, jobs_median = _quartiles(jobs_rates)
        events_q1, events_median = _quartiles(event_rates)
        cases[policy] = {
            "rho": rho,
            "component_limit": config.component_limit,
            "jobs": policy_runs[0]["jobs"],
            "events": policy_runs[0]["events"],
            "fingerprint_equal": len({run["fingerprint"]
                                      for run in policy_runs}) == 1,
            "jobs_per_sec": round(jobs_median, 1),
            "jobs_per_sec_quartile": round(jobs_q1, 1),
            "events_per_sec": round(events_median, 1),
            "events_per_sec_quartile": round(events_q1, 1),
            "jobs_per_sec_rounds": [round(r, 1) for r in jobs_rates],
        }
    return cases


def check(path: Path) -> list[str]:
    """Problems found re-reading the JSON at ``path`` (empty if none)."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        cases = payload["cases"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable result file: {exc!r}"]
    problems = []
    for policy, _, _ in CASES:
        case = cases.get(policy)
        if not isinstance(case, dict):
            problems.append(f"{policy}: missing")
        elif case.get("fingerprint_equal") is not True:
            problems.append(f"{policy}: fingerprint self-check failed")
        elif not all(isinstance(case.get(key), (int, float))
                     and case[key] > 0
                     for key in ("jobs_per_sec", "events_per_sec")):
            problems.append(f"{policy}: non-positive throughput")
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="short runs for CI smoke testing")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_hotpath.json",
                        help="output JSON path")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless every case parses and "
                             "passed the fingerprint self-check")
    args = parser.parse_args(argv)

    if _IMPORT_ERROR is not None:
        print("SKIPPED: numpy is not installed "
              f"({_IMPORT_ERROR}); install the numeric stack with "
              "`pip install repro[batch]` to run this benchmark")
        return 0

    if args.quick:
        warmup, measured, rounds = 200, 1_200, 3
    else:
        warmup, measured, rounds = 500, 5_000, 5

    cases = bench(warmup, measured, rounds)
    for policy, case in cases.items():
        diverged = "" if case["fingerprint_equal"] else "  DIVERGED"
        print(f"{policy}: {case['jobs_per_sec']:>9.1f} jobs/s "
              f"(quartile {case['jobs_per_sec_quartile']:.1f})  "
              f"{case['events_per_sec']:>9.1f} events/s{diverged}")

    payload = {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_hotpath.py",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "warmup_jobs": warmup,
        "measured_jobs": measured,
        "rounds": rounds,
        "cases": cases,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}")

    if args.check:
        problems = check(args.out)
        if problems:
            print("CHECK FAILED: " + "; ".join(problems))
            return 1
        print("CHECK OK: all cases parse, fingerprints equal across rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
