"""``repro.workload`` — DAS-derived workload modelling.

The substrate replacing the paper's proprietary DAS1 trace: a synthetic
log generator matching every published marginal statistic, the canonical
DAS-s-128 / DAS-s-64 / DAS-t-900 distributions, the component-splitting
rule, Standard Workload Format I/O, and the open-system arrival process.
"""

from . import models, stats_model
from .characterize import (
    WorkloadCharacterization,
    characterize,
    size_runtime_correlation,
)
from .das_log import (
    DASLogGenerator,
    JobRecord,
    LogSummary,
    filter_log,
    generate_das_log,
    runtime_histogram,
    size_histogram,
    summarize_log,
)
from .distributions import (
    WORKLOADS,
    das_s_128,
    das_s_64,
    das_t_900,
    service_distribution_from_log,
    size_distribution_from_log,
)
from .generator import ArrivalProcess, JobFactory, JobSpec, QueueRouter
from .splitting import (
    component_fractions,
    multi_component_fraction,
    num_components,
    split_size,
)
from .swf import SWFFormatError, read_swf, swf_header, write_swf

__all__ = [
    "stats_model", "models",
    # characterisation
    "characterize", "WorkloadCharacterization",
    "size_runtime_correlation",
    # log
    "JobRecord", "DASLogGenerator", "generate_das_log", "LogSummary",
    "summarize_log", "filter_log", "size_histogram", "runtime_histogram",
    # distributions
    "das_s_128", "das_s_64", "das_t_900", "WORKLOADS",
    "size_distribution_from_log", "service_distribution_from_log",
    # splitting
    "num_components", "split_size", "component_fractions",
    "multi_component_fraction",
    # generation
    "JobSpec", "JobFactory", "ArrivalProcess", "QueueRouter",
    # swf
    "write_swf", "read_swf", "swf_header", "SWFFormatError",
]
