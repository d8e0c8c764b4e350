"""The benchmark's workloads: campaigns of cells generated from a seed.

A *cell* is one policy x component limit x offered load x seed.  A
workload is a list of curves (one configuration across a load grid)
plus the environment it runs under.  Every workload uses DAS-s-128 job
sizes, DAS-t-900 service times and balanced local queues; the seed
passed on the command line becomes the master seed of every cell, so
the program under test only ever sees the generated cells.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fig. 3's curve families: GS/LS/LP at each component limit, SC once.
POLICIES = ("GS", "LS", "LP")
LIMITS = (16, 24, 32)


@dataclass(frozen=True)
class Workload:
    name: str
    loads: tuple[float, ...]
    warmup_jobs: int
    measured_jobs: int


def _grid(start: float, step: float, count: int) -> tuple[float, ...]:
    # Index-based, like repro.analysis.sweeps.utilization_grid.
    return tuple(round(start + i * step, 10) for i in range(count))


FIG3_LOADS = _grid(0.4, 0.1, 5)          # 0.4 .. 0.8
LIGHT_LOADS = _grid(0.05, 0.05, 10)      # 0.05 .. 0.5

WORKLOADS = {
    "fig3-grid": Workload("fig3-grid", FIG3_LOADS, 250, 1000),
    "many-small": Workload("many-small", LIGHT_LOADS, 50, 200),
}


@dataclass(frozen=True)
class Curve:
    label: str
    config: object  # repro.core.system.SimulationConfig
    loads: tuple[float, ...]


def curves(workload: Workload, seed: int) -> list[Curve]:
    """The workload's curves, in Fig. 3 legend order, for one seed."""
    from repro.core.system import SimulationConfig
    from repro.workload import stats_model

    common = dict(warmup_jobs=workload.warmup_jobs,
                  measured_jobs=workload.measured_jobs,
                  batch_size=max(1, workload.measured_jobs // 10),
                  routing_weights=stats_model.BALANCED_WEIGHTS,
                  seed=seed)
    out = [Curve(f"{policy}-L{limit}",
                 SimulationConfig(policy=policy, component_limit=limit,
                                  **common),
                 workload.loads)
           for policy in POLICIES for limit in LIMITS]
    out.append(Curve("SC", SimulationConfig.single_cluster(**common),
                     workload.loads))
    return out


def campaign_spec(workload: Workload, seed: int, client: int) -> dict:
    """The whole workload as one service submission (every cell).

    Each client labels its campaign with its own number.  The cells,
    and so the task keys the service runs and caches, are the same for
    every client; only the campaign record differs.
    """
    from repro.service.protocol import config_to_dict

    return {
        "kind": "sweep",
        "label": f"perfbench-{workload.name}-c{client}",
        "workload": "das-s-128",
        "backend": "batch",
        "stop_after_saturation": None,
        "cells": [{"config": config_to_dict(curve.config),
                   "offered_gross": rho}
                  for curve in curves(workload, seed)
                  for rho in curve.loads],
    }
