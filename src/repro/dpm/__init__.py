"""Device-side DPM policies: when to put the device to SLEEP."""

from .policy import IdleDecision, DPMPolicy
from .predictive import PredictiveShutdownPolicy

__all__ = [
    "IdleDecision",
    "DPMPolicy",
    "PredictiveShutdownPolicy",
]
