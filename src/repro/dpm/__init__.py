"""Device-side DPM policies: when to put the device to SLEEP."""

from .policy import IdleDecision, DPMPolicy
from .breakeven import sleep_saving, worst_case_competitive_timeout
from .timeout import TimeoutPolicy
from .predictive import PredictiveShutdownPolicy
from .oracle import OraclePolicy
from .always import AlwaysOnPolicy, AlwaysSleepPolicy

__all__ = [
    "IdleDecision",
    "DPMPolicy",
    "sleep_saving",
    "worst_case_competitive_timeout",
    "TimeoutPolicy",
    "PredictiveShutdownPolicy",
    "OraclePolicy",
    "AlwaysOnPolicy",
    "AlwaysSleepPolicy",
]
