"""The placement kernels vs the reference greedy.

The hot-path kernels in :mod:`repro.core.placement` (single linear
scan over a per-call copy of the free list, folded feasibility tests,
single-component fast path) must make *exactly* the decisions of the
original allocating implementation — assignments feed the obs event stream and the extras
counters, so any divergence breaks byte-identity of runs.  Hypothesis
drives both implementations through the same inputs, including unsorted
component lists (the kernels skip re-sorting pre-sorted input),
infeasible requests and degenerate shapes.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import PLACEMENT_RULES, PlacementRule
from repro.core.system import SimulationConfig, run_open_system
from repro.workload import das_s_128, das_t_900

RULES = sorted(PLACEMENT_RULES)


def _greedy_reference(
        components: Sequence[int], free: Sequence[int],
        choose: Callable[[list[tuple[int, int]]], tuple[int, int]],
        ) -> Optional[tuple[tuple[int, int], ...]]:
    """Reference greedy placement, the oracle for the fast kernels.

    Components in decreasing size order, each on a distinct cluster
    selected by ``choose`` from the feasible candidates.  This is the
    original (allocating) implementation of the placement rules.
    """
    if len(components) > len(free):
        return None
    ordered = sorted(components, reverse=True)
    remaining = list(enumerate(free))
    assignment: list[tuple[int, int]] = []
    for comp in ordered:
        candidates = [(idx, f) for idx, f in remaining if f >= comp]
        if not candidates:
            return None
        idx, _ = choose(candidates)
        assignment.append((idx, comp))
        remaining = [(i, f) for i, f in remaining if i != idx]
    return tuple(assignment)


def _worst_fit_reference(components: Sequence[int], free: Sequence[int]
                         ) -> Optional[tuple[tuple[int, int], ...]]:
    return _greedy_reference(
        components, free,
        choose=lambda cands: max(cands, key=lambda c: (c[1], -c[0])),
    )


def _first_fit_reference(components: Sequence[int], free: Sequence[int]
                         ) -> Optional[tuple[tuple[int, int], ...]]:
    return _greedy_reference(
        components, free,
        choose=lambda cands: min(cands, key=lambda c: c[0]),
    )


def _best_fit_reference(components: Sequence[int], free: Sequence[int]
                        ) -> Optional[tuple[tuple[int, int], ...]]:
    return _greedy_reference(
        components, free,
        choose=lambda cands: min(cands, key=lambda c: (c[1], c[0])),
    )


#: Reference (oracle) implementations by rule name.
REFERENCE_RULES: dict[str, PlacementRule] = {
    "worst-fit": _worst_fit_reference,
    "first-fit": _first_fit_reference,
    "best-fit": _best_fit_reference,
}


def test_reference_registry_mirrors_rules() -> None:
    assert sorted(REFERENCE_RULES) == RULES


@given(
    components=st.lists(st.integers(min_value=1, max_value=40),
                        min_size=0, max_size=6),
    free=st.lists(st.integers(min_value=0, max_value=40),
                  min_size=1, max_size=6),
    rule=st.sampled_from(RULES),
    presorted=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_fast_kernels_match_reference(components, free, rule, presorted):
    if presorted:
        components = sorted(components, reverse=True)
    fast = PLACEMENT_RULES[rule](components, free)
    reference = REFERENCE_RULES[rule](components, free)
    assert fast == reference


@given(
    free=st.lists(st.integers(min_value=0, max_value=40),
                  min_size=1, max_size=6),
    rule=st.sampled_from(RULES),
)
@settings(max_examples=100, deadline=None)
def test_kernels_do_not_mutate_free(free, rule):
    # The kernels read the policy's *live* free array; writing to it
    # would corrupt cluster state.
    snapshot = list(free)
    PLACEMENT_RULES[rule]([3, 2], free)
    PLACEMENT_RULES[rule]([1], free)
    assert free == snapshot


@given(
    a=st.lists(st.integers(min_value=1, max_value=40),
               min_size=1, max_size=6),
    b=st.lists(st.integers(min_value=1, max_value=40),
               min_size=1, max_size=6),
    free=st.lists(st.integers(min_value=0, max_value=40),
                  min_size=1, max_size=6),
    rule=st.sampled_from(RULES),
)
@settings(max_examples=100, deadline=None)
def test_scratch_reuse_is_stateless_across_calls(a, b, free, rule):
    # Back-to-back calls: the second must see none of the first
    # call's markings.
    fn = PLACEMENT_RULES[rule]
    expected_b = REFERENCE_RULES[rule](b, free)
    fn(a, free)
    assert fn(b, free) == expected_b


def test_concurrent_simulations_match_serial() -> None:
    # The service fleet runs scalar simulations in threads; placement
    # must keep no state shared between them.  A tiny switch interval
    # makes the interpreter interleave the threads mid-placement.
    configs = [SimulationConfig(policy=policy, component_limit=16, seed=seed,
                                warmup_jobs=50, measured_jobs=1000,
                                batch_size=50)
               for policy in ("GS", "LS") for seed in (1, 2)]

    def run(config: SimulationConfig) -> str:
        result = run_open_system(config, das_s_128(), das_t_900(), 0.03)
        return repr((sorted(result.report.as_dict().items()),
                     sorted(result.extras.items())))

    serial = [run(config) for config in configs]
    concurrent: list[str] = [""] * len(configs)

    def worker(index: int) -> None:
        concurrent[index] = run(configs[index])

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert concurrent == serial
