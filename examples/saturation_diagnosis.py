#!/usr/bin/env python
"""Diagnosing saturation: who blows up first, and who suffers?

Pushes the LP policy past its knee (the paper's Figure 4 regime) and
uses the instrumentation beyond the paper's aggregates:

* queue lengths sampled on a period grid (``sim.run(until=t)`` per
  grid point) show the *global* queue is the one that grows without
  bound while the local queues stay short (§3.1.3);
* bounded-slowdown percentiles show how disproportionately the
  co-allocated (multi-component) jobs pay for it;
* a paired common-random-number comparison against LS quantifies the
  penalty with a confidence interval.

Run:  python examples/saturation_diagnosis.py
"""

from repro import MulticlusterSimulation, SimulationConfig
from repro.analysis.replications import paired_comparison
from repro.sim import StreamFactory
from repro.workload import ArrivalProcess, JobFactory, das_s_128, das_t_900


def main() -> None:
    sizes, service = das_s_128(), das_t_900()
    target_util = 0.62  # just past LP's knee, inside LS's stable range

    # --- trajectory of an overloaded LP system -------------------------
    system = MulticlusterSimulation("LP")
    factory = JobFactory(sizes, service, 16, streams=StreamFactory(8))
    rate = factory.arrival_rate_for_gross_utilization(target_util, 128)
    ArrivalProcess(system.sim, factory, rate, system.submit,
                   rng=StreamFactory(8).get("iat"))
    period, horizon = 2_000.0, 300_000.0
    queues = system.policy.queues()
    lengths: dict[str, list[int]] = {queue.name: [] for queue in queues}
    for step in range(1, int(horizon / period)):
        # Sample at each grid time, before the events due at that time.
        system.sim.run(until=step * period)
        for queue in queues:
            lengths[queue.name].append(len(queue))
    system.sim.run(until=horizon)

    print(f"LP at offered gross utilization {target_util}:")
    for name, series in lengths.items():
        print(f"  queue {name:8s}: final length "
              f"{series[-1]:5.0f}, peak {max(series):5.0f}")
    busiest = max(lengths, key=lambda name: lengths[name][-1])
    print(f"  -> the runaway queue is '{busiest}' "
          "(the paper's §3.1.3 bottleneck)")

    report = system.metrics.report(system.sim.now)
    print(f"  local-queue mean response : "
          f"{report.mean_response_local:8.0f} s")
    print(f"  global-queue mean response: "
          f"{report.mean_response_global:8.0f} s")
    print(f"  bounded slowdown mean {report.mean_bounded_slowdown:.1f}, "
          f"response P50 {report.response_p50:.0f} s, "
          f"P95 {report.response_p95:.0f} s")

    # --- paired LP-vs-LS comparison with a CI ---------------------------
    def config(policy):
        return SimulationConfig(policy=policy, component_limit=16,
                                warmup_jobs=1_000, measured_jobs=6_000,
                                seed=100)

    ci = paired_comparison(config("LP"), config("LS"), sizes, service,
                           utilization=0.60, replications=4)
    print()
    print(f"Paired LP−LS response difference at utilization 0.60: "
          f"{ci.mean:+.0f} s ± {ci.half_width:.0f} (95% CI, common "
          "random numbers)")
    verdict = ("significantly worse" if ci.low > 0 else
               "not significantly different")
    print(f"LP is {verdict} than LS at this load.")


if __name__ == "__main__":
    main()
