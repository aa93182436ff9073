"""Device-side DPM policy: when to put the device to SLEEP."""

from .predictive import PredictiveShutdownPolicy

__all__ = [
    "PredictiveShutdownPolicy",
]
