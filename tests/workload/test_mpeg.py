"""Synthetic MPEG trace generator tests (Experiment-1 statistics)."""

import hashlib

import numpy as np
import pytest

from repro.config import CamcorderConstants
from repro.errors import ConfigurationError
from repro.workload.mpeg import MpegEncoderModel, generate_mpeg_trace
from repro.workload.trace import LoadTrace, TaskSlot


def reference_mpeg_trace(
    duration_s: float = 28 * 60.0,
    seed: int = 2007,
    model: MpegEncoderModel | None = None,
    name: str = "mpeg-28min",
):
    """The generator as it was with one scalar normal draw per use.

    Kept as the oracle for the block-drawn generator.  The loop is the
    original; the function also returns how many GOPs of the last scene
    were left undrawn, so a test can tell a trace that ends mid-scene.
    """
    m = model if model is not None else MpegEncoderModel()
    cam = CamcorderConstants()
    rng = np.random.default_rng(seed)

    i_active = cam.p_run / 12.0
    t_active = cam.active_length

    slots: list[TaskSlot] = []
    elapsed = 0.0
    buffer_mb = 0.0
    gap = 0.0

    # Scene state.
    scene_gops_left = 0
    scene_complexity = 1.0
    drift = 1.0

    # The minimum possible fill time must stay feasible: generate until
    # the requested duration is covered by whole slots.
    while elapsed < duration_s:
        if scene_gops_left <= 0:
            scene_gops_left = 1 + rng.geometric(1.0 / m.scene_mean_gops)
            scene_complexity = rng.uniform(m.complexity_low, m.complexity_high)
            drift = 1.0
        scene_gops_left -= 1

        drift = m.ar_coeff * drift + (1 - m.ar_coeff) * rng.normal(1.0, 0.10)
        noise = float(np.exp(rng.normal(0.0, m.noise_sigma)))
        gop_mb = m.gop_size_mb(scene_complexity * max(drift, 0.2), noise)

        buffer_mb += gop_mb
        gap += m.gop_duration

        if buffer_mb >= cam.buffer_mb:
            t_idle = float(np.clip(gap, cam.idle_min, cam.idle_max))
            slots.append(TaskSlot(t_idle, t_active, i_active))
            elapsed += t_idle + t_active
            buffer_mb = 0.0
            gap = 0.0

    return LoadTrace(slots, name=name), scene_gops_left


class TestEncoderModel:
    def test_gop_duration(self):
        m = MpegEncoderModel(fps=30.0, gop_length=15)
        assert m.gop_duration == pytest.approx(0.5)

    def test_gop_size_scales_with_complexity(self):
        m = MpegEncoderModel()
        assert m.gop_size_mb(1.2) == pytest.approx(1.2 * m.gop_size_mb(1.0))

    def test_gop_size_rejects_nonpositive_complexity(self):
        with pytest.raises(ConfigurationError):
            MpegEncoderModel().gop_size_mb(0.0)

    def test_mean_rate_covers_papers_idle_band(self):
        # Fill times 16 MB / rate must span the paper's 8-20 s band.
        m = MpegEncoderModel()
        fastest = 16.0 / m.mean_rate_mb_s(m.complexity_high)
        slowest = 16.0 / m.mean_rate_mb_s(m.complexity_low)
        assert fastest < 10.0
        assert slowest > 18.0

    def test_rejects_bad_structure(self):
        with pytest.raises(ConfigurationError):
            MpegEncoderModel(gop_length=0)
        with pytest.raises(ConfigurationError):
            MpegEncoderModel(i_to_p=0.2, i_to_b=0.5)  # b > p
        with pytest.raises(ConfigurationError):
            MpegEncoderModel(ar_coeff=1.0)
        with pytest.raises(ConfigurationError):
            MpegEncoderModel(noise_sigma=-0.01)


class TestTraceGeneration:
    def test_deterministic_given_seed(self):
        a = generate_mpeg_trace(seed=7)
        b = generate_mpeg_trace(seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_mpeg_trace(seed=1) != generate_mpeg_trace(seed=2)

    def test_duration_covers_28_minutes(self):
        trace = generate_mpeg_trace()
        assert trace.duration >= 28 * 60
        assert trace.duration < 30 * 60

    def test_idle_lengths_in_paper_band(self):
        trace = generate_mpeg_trace()
        idles = np.array([s.t_idle for s in trace])
        cam = CamcorderConstants()
        assert idles.min() >= cam.idle_min
        assert idles.max() <= cam.idle_max
        # The band must actually be used, not collapsed to one end.
        assert idles.std() > 1.0
        assert 10.0 < idles.mean() < 16.0

    def test_active_period_is_3_03s(self):
        trace = generate_mpeg_trace()
        assert all(s.t_active == pytest.approx(3.0303, abs=1e-3) for s in trace)

    def test_active_current_is_run_power(self):
        trace = generate_mpeg_trace()
        assert all(s.i_active == pytest.approx(14.65 / 12) for s in trace)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            generate_mpeg_trace(duration_s=0.0)

    def test_short_trace(self):
        trace = generate_mpeg_trace(duration_s=60.0)
        assert trace.duration >= 60.0
        assert len(trace) >= 2

    def test_scene_correlation_present(self):
        # Consecutive idle gaps within a scene should correlate: the
        # lag-1 autocorrelation must be clearly positive.
        trace = generate_mpeg_trace(seed=3)
        idles = np.array([s.t_idle for s in trace])
        x, y = idles[:-1], idles[1:]
        r = np.corrcoef(x, y)[0, 1]
        assert r > 0.2


class TestBlockDrawsMatchScalarDraws:
    """Drawing a scene's normals in one block reproduces the scalar draws."""

    DURATIONS = (10.0, 300.0, 28 * 60.0)

    @pytest.mark.parametrize("duration", DURATIONS)
    def test_default_model_over_seeds(self, duration):
        ended_mid_scene = 0
        for seed in [*range(50), 2007]:
            expected, gops_left = reference_mpeg_trace(duration, seed)
            assert generate_mpeg_trace(duration, seed) == expected, seed
            ended_mid_scene += gops_left > 0
        assert ended_mid_scene > 0

    def test_trace_ending_mid_scene(self):
        # A scene far longer than the trace: the block holds normals for
        # GOPs the trace never reaches.
        model = MpegEncoderModel(scene_mean_gops=500.0)
        expected, gops_left = reference_mpeg_trace(60.0, 3, model)
        assert gops_left > 100
        assert generate_mpeg_trace(60.0, 3, model) == expected

    @pytest.mark.parametrize(
        "model",
        [
            MpegEncoderModel(noise_sigma=0.0),
            MpegEncoderModel(ar_coeff=0.0),
            MpegEncoderModel(scene_mean_gops=1.0),
            MpegEncoderModel(gop_length=1),
            MpegEncoderModel(complexity_low=1.0, complexity_high=1.0),
        ],
        ids=["no-noise", "no-drift", "one-gop-scenes", "one-frame-gops", "fixed-complexity"],
    )
    @pytest.mark.parametrize("duration", DURATIONS)
    def test_custom_models(self, model, duration):
        for seed in range(10):
            expected, _ = reference_mpeg_trace(duration, seed, model)
            assert generate_mpeg_trace(duration, seed, model) == expected, seed

    def test_seed_2007_trace_is_pinned(self):
        trace = generate_mpeg_trace(seed=2007)
        rows = np.array(
            [(s.t_idle, s.t_active, s.i_active) for s in trace], dtype="<f8"
        )
        assert len(trace) == 111
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "05a1e840bdcc0b6839d1a4ca38084270925367524e862139dbf520620c6a47f8"
        )
