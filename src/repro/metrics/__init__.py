"""``repro.metrics`` — run-level metric collection and saturation analysis."""

from .recorder import MetricsRecorder, UtilizationReport
from .saturation import MaximalUtilization, estimate_maximal_utilization
from .fairness import FairnessTracker, jain_index
from .slowdown import SlowdownTracker, bounded_slowdown

__all__ = [
    "FairnessTracker",
    "jain_index",
    "MetricsRecorder",
    "UtilizationReport",
    "MaximalUtilization",
    "estimate_maximal_utilization",
    "SlowdownTracker",
    "bounded_slowdown",
]
