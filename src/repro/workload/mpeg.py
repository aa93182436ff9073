"""Synthetic MPEG encode/write trace generator (Experiment-1 substitute).

The paper drives Experiment 1 with "a real trace based MPEG
encoding/writing task trace obtained from a DVD camcorder" -- data we do
not have.  This module substitutes a frame-level synthetic model whose
*observable statistics* match everything the paper states about the
trace:

* the camcorder encodes continuously into a 16 MB buffer;
* a buffer-full event triggers a fixed 3.03 s write (16 MB / 5.28 MB/s);
* the gap between writes ("idle period" for the DVD writer) varies from
  8 s to 20 s "depending on the characteristics of the MPEG frames";
* the trace is 28 minutes long.

Model: video is a sequence of *scenes* with geometric length and i.i.d.
complexity; within a scene the encoder emits GOPs (IBBP... structure)
whose compressed sizes follow the classic I/P/B size ratios scaled by
scene complexity, an AR(1) drift, and lognormal per-GOP noise.  The
buffer-fill times this produces land in the paper's 8-20 s band with the
irregular, scene-correlated pattern visible in the paper's Fig. 7(a).
Deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CamcorderConstants
from ..errors import ConfigurationError
from .trace import LoadTrace, TaskSlot


@dataclass(frozen=True)
class MpegEncoderModel:
    """Frame-level MPEG-2 bitstream model.

    Attributes
    ----------
    fps:
        Frame rate (frames/s).
    gop_length:
        Frames per GOP (N).
    i_to_p, i_to_b:
        P- and B-frame size as a fraction of an I-frame.
    base_i_frame_kb:
        I-frame size (kB) at unit complexity.
    complexity_low, complexity_high:
        Scene complexity range; complexity scales all frame sizes.
    scene_mean_gops:
        Mean scene length in GOPs (geometric distribution).
    ar_coeff:
        AR(1) coefficient for intra-scene complexity drift.
    noise_sigma:
        Lognormal sigma of per-GOP size noise.
    """

    fps: float = 30.0
    gop_length: int = 15
    i_to_p: float = 0.45
    i_to_b: float = 0.20
    base_i_frame_kb: float = 125.0
    complexity_low: float = 0.55
    complexity_high: float = 1.60
    scene_mean_gops: float = 12.0
    ar_coeff: float = 0.85
    noise_sigma: float = 0.08

    def __post_init__(self) -> None:
        if self.fps <= 0 or self.gop_length < 1:
            raise ConfigurationError("fps and gop_length must be positive")
        if not 0 < self.i_to_b <= self.i_to_p <= 1:
            raise ConfigurationError("need 0 < i_to_b <= i_to_p <= 1")
        if not 0 < self.complexity_low <= self.complexity_high:
            raise ConfigurationError("bad complexity range")
        if not 0 <= self.ar_coeff < 1:
            raise ConfigurationError("AR coefficient must be in [0, 1)")
        if not self.noise_sigma >= 0:
            raise ConfigurationError("noise sigma must be non-negative")

    @property
    def gop_duration(self) -> float:
        """Wall time covered by one GOP (s)."""
        return self.gop_length / self.fps

    def gop_size_mb(self, complexity: float, noise: float = 1.0) -> float:
        """Compressed size (MB) of one GOP at the given complexity.

        GOP structure: 1 I-frame, and the remaining frames split between
        P and B in the classic M=3 pattern (one P per two Bs).
        """
        if complexity <= 0:
            raise ConfigurationError("complexity must be positive")
        size_kb = self.base_i_frame_kb * complexity * self.frames_i_units * noise
        return size_kb / 1024.0

    @property
    def frames_i_units(self) -> float:
        """GOP size in I-frame units at unit complexity."""
        rest = self.gop_length - 1
        n_p = rest // 3 + (1 if rest % 3 else 0)
        n_b = rest - n_p
        return 1.0 + n_p * self.i_to_p + n_b * self.i_to_b

    def mean_rate_mb_s(self, complexity: float) -> float:
        """Mean encoder output rate (MB/s) at the given complexity."""
        return self.gop_size_mb(complexity) / self.gop_duration


def generate_mpeg_trace(
    duration_s: float = 28 * 60.0,
    seed: int = 2007,
    model: MpegEncoderModel | None = None,
    camcorder: CamcorderConstants | None = None,
    name: str = "mpeg-28min",
) -> LoadTrace:
    """Generate the Experiment-1 MPEG encode/write trace.

    Simulates the encoder filling the write buffer GOP by GOP; every
    buffer-full event emits a task slot whose idle period is the
    inter-write gap and whose active period is the fixed DVD write.  The
    resulting idle lengths are clipped into the paper's stated 8-20 s
    band (the clip binds rarely; the complexity range is calibrated so
    the natural spread already sits inside it).

    Parameters
    ----------
    duration_s:
        Target trace length (paper: 28 minutes).
    seed:
        RNG seed; the trace is deterministic given the seed.
    model, camcorder:
        Optional overrides of the bitstream / device constants.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    m = model if model is not None else MpegEncoderModel()
    cam = camcorder if camcorder is not None else CamcorderConstants()
    rng = np.random.default_rng(seed)

    i_active = cam.p_run / 12.0
    t_active = cam.active_length

    slots: list[TaskSlot] = []
    elapsed = 0.0
    buffer_mb = 0.0
    gap = 0.0
    gop_s = m.gop_duration
    kb_units = m.frames_i_units
    ar_keep, ar_new = m.ar_coeff, 1 - m.ar_coeff

    # Scene state.  Each scene draws its GOP count and complexity, then
    # both per-GOP normal streams in one block: ``rng.normal(loc, scale)``
    # is ``loc + scale * standard_normal()`` in stream order, and the
    # generator is local, so normals past the trace's last GOP go unseen.
    scene_gops = gop = 0
    scene_complexity = 1.0
    drift = 1.0
    shocks: list[float] = []
    noises: list[float] = []

    # The minimum possible fill time must stay feasible: generate until
    # the requested duration is covered by whole slots.
    while elapsed < duration_s:
        if gop == scene_gops:
            scene_gops = 1 + rng.geometric(1.0 / m.scene_mean_gops)
            scene_complexity = rng.uniform(m.complexity_low, m.complexity_high)
            z = rng.standard_normal(2 * scene_gops)
            shocks = (1.0 + 0.10 * z[0::2]).tolist()
            noises = np.exp(m.noise_sigma * z[1::2]).tolist()
            drift = 1.0
            gop = 0

        drift = ar_keep * drift + ar_new * shocks[gop]
        # gop_size_mb's operation order, inlined for the per-GOP loop.
        complexity = scene_complexity * max(drift, 0.2)
        buffer_mb += m.base_i_frame_kb * complexity * kb_units * noises[gop] / 1024.0
        gap += gop_s
        gop += 1

        if buffer_mb >= cam.buffer_mb:
            t_idle = float(min(max(gap, cam.idle_min), cam.idle_max))
            slots.append(TaskSlot(t_idle, t_active, i_active))
            elapsed += t_idle + t_active
            buffer_mb = 0.0
            gap = 0.0

    return LoadTrace(slots, name=name)
