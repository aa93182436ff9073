"""Embedded-system substrate: DPM device parameters and the paper's camcorder."""

from .states import break_even_time
from .device import DeviceParams
from .camcorder import camcorder_device_params, randomized_device_params

__all__ = [
    "break_even_time",
    "DeviceParams",
    "camcorder_device_params",
    "randomized_device_params",
]
