"""Embedded-system substrate: power-state machines and device models."""

from .states import PowerState, Transition, PowerStateMachine, break_even_time
from .device import DPMDevice, DeviceParams
from .camcorder import (
    dvd_camcorder,
    camcorder_device_params,
    randomized_device_params,
)

__all__ = [
    "PowerState",
    "Transition",
    "PowerStateMachine",
    "break_even_time",
    "DPMDevice",
    "DeviceParams",
    "dvd_camcorder",
    "camcorder_device_params",
    "randomized_device_params",
]
