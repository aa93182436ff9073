"""Load profiles: task-slot traces and their generators."""

from .trace import TaskSlot, LoadTrace
from .mpeg import MpegEncoderModel, generate_mpeg_trace
from .synthetic import uniform_slots, experiment2_trace

__all__ = [
    "TaskSlot",
    "LoadTrace",
    "MpegEncoderModel",
    "generate_mpeg_trace",
    "uniform_slots",
    "experiment2_trace",
]
