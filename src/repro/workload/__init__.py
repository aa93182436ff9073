"""Load profiles: task-slot traces and their generators."""

from .trace import TaskSlot, LoadTrace
from .mpeg import MpegEncoderModel, generate_mpeg_trace
from .wlan import WlanModel, generate_wlan_trace
from .synthetic import (
    uniform_slots,
    exponential_slots,
    pareto_slots,
    bursty_slots,
    experiment2_trace,
)

__all__ = [
    "TaskSlot",
    "LoadTrace",
    "MpegEncoderModel",
    "generate_mpeg_trace",
    "WlanModel",
    "generate_wlan_trace",
    "uniform_slots",
    "exponential_slots",
    "pareto_slots",
    "bursty_slots",
    "experiment2_trace",
]
