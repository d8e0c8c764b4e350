"""Extension — does the §3.2 size cap survive when work is conserved?

The paper's DAS-s-64 experiment *drops* the 2% of jobs above 64
processors; §3.2 notes that in reality their users would reshape them
to fit, paying longer service times.  This bench compares, at the same
offered gross utilization, three LS variants:

* full DAS-s-128 (no cap),
* DAS-s-64 (the paper's cut — work of the big jobs vanishes),
* reshaped cap at 64 with perfect and 80% reshaping efficiency.

Expectation: reshaping keeps most of the cut's benefit — the harm of
the big jobs was their *shape* (whole-machine allocations that force
drains), not their work, which reshaped jobs deliver in schedulable
64-processor form.
"""

from conftest import run_once

from repro.analysis.tables import format_table
from repro.core.system import run_open_system
from repro.sim.rng import StreamFactory
from repro.workload import JobFactory, das_s_64, das_s_128, das_t_900
from repro.workload.reshaping import ReshapingJobFactory


def _run_variant(scale, variant: str, rho: float):
    service = das_t_900()
    config = scale.config("LS", 16)
    if variant == "das-s-64":
        sizes = das_s_64()
    else:
        sizes = das_s_128()
    factory = JobFactory(
        sizes, service, config.component_limit,
        clusters=len(config.capacities),
        extension_factor=config.extension_factor,
        routing_weights=config.routing_weights,
        streams=StreamFactory(config.seed),
    )
    if variant.startswith("reshaped"):
        efficiency = 1.0 if variant.endswith("1.0") else 0.8
        reshaper = ReshapingJobFactory(factory, 64,
                                       efficiency=efficiency)
        rate = reshaper.arrival_rate_for_gross_utilization(
            rho, config.capacity
        )
        # The open-system driver builds its own factory; feed the
        # reshaped stream through a custom submit wrapper instead.
        from repro.core.system import MulticlusterSimulation
        from repro.workload import ArrivalProcess

        system = MulticlusterSimulation(
            policy=config.policy, capacities=config.capacities,
            extension_factor=config.extension_factor,
            batch_size=config.batch_size,
        )
        ArrivalProcess(system.sim, reshaper, rate, system.submit,
                       limit=None,
                       rng=StreamFactory(config.seed).get("arrivals.iat"))
        system.sim.run_while(
            lambda: system.jobs_finished < config.warmup_jobs)
        system.metrics.reset(system.sim.now)
        target = config.warmup_jobs + config.measured_jobs
        system.sim.run_while(lambda: system.jobs_finished < target)
        report = system.metrics.report(system.sim.now)
        backlog = system.policy.pending_jobs()
        return report.mean_response, report.gross_utilization, backlog > 70
    rate = factory.arrival_rate_for_gross_utilization(
        rho, config.capacity
    )
    result = run_open_system(config, sizes, service, rate)
    return (result.mean_response, result.gross_utilization,
            result.saturated)


def _experiment(scale, rho=0.60):
    variants = ("das-s-128", "das-s-64", "reshaped eff=1.0",
                "reshaped eff=0.8")
    return {
        "rho": rho,
        "results": {v: _run_variant(scale, v, rho) for v in variants},
    }


def test_bench_extension_reshaping(benchmark, scale, record):
    data = run_once(benchmark, _experiment, scale)
    rows = [
        (name, resp, util, "saturated" if sat else "")
        for name, (resp, util, sat) in data["results"].items()
    ]
    record("extension_reshaping", format_table(
        ["workload variant", "mean response", "gross util", ""], rows,
        title=(
            "Extension — size cap with work conservation (LS, L=16, "
            f"offered gross {data['rho']:.2f})"
        ),
    ))
    res = data["results"]
    full = res["das-s-128"][0]
    cut = res["das-s-64"][0]
    reshaped = res["reshaped eff=1.0"][0]
    # The paper's cut helps...
    assert cut < full
    # ...and conserving the work via reshaping keeps most of the win:
    # reshaped sits strictly below the uncapped workload.
    assert reshaped < full
    # Imperfect reshaping costs something relative to perfect.
    assert res["reshaped eff=0.8"][0] >= 0.85 * reshaped
