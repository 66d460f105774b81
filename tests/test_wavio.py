"""Tests for WAV read/write: float32 round trip, PCM scaling, error paths."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.io import wavfile

from aliasbench.audio import AudioBuffer
from aliasbench.wavio import WavError, wav_read, wav_write


class TestRoundTrip:
    def test_float32_round_trip(self, tmp_path):
        """Written samples come back bit-exact at float32 precision."""
        rng = np.random.default_rng(42)
        x = rng.uniform(-0.9, 0.9, 4410)
        path = tmp_path / "x.wav"
        wav_write(AudioBuffer(x, 44100), path)
        back = wav_read(path)
        assert back.sample_rate == 44100
        assert np.array_equal(back.samples, x.astype(np.float32).astype(np.float64))

    def test_round_trip_precision(self, tmp_path):
        x = np.sin(np.linspace(0, 20, 1000))
        path = tmp_path / "s.wav"
        wav_write(AudioBuffer(x, 22050), path)
        back = wav_read(path)
        assert_allclose(back.samples, x, atol=1e-7)

    def test_no_temp_file_left_behind(self, tmp_path):
        wav_write(AudioBuffer(np.zeros(10), 8000), tmp_path / "z.wav")
        assert [p.name for p in tmp_path.iterdir()] == ["z.wav"]

    def test_write_creates_missing_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "z.wav"
        wav_write(AudioBuffer(np.zeros(10), 8000), path)
        assert wav_read(path).sample_rate == 8000

    def test_write_below_a_file_raises(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"")
        with pytest.raises(WavError):
            wav_write(AudioBuffer(np.zeros(10), 8000), tmp_path / "plain" / "z.wav")


class TestPcmScaling:
    def test_int16_scaled_by_32768(self, tmp_path):
        path = tmp_path / "pcm16.wav"
        data = np.array([-32768, -16384, 0, 16384, 32767], dtype=np.int16)
        wavfile.write(path, 8000, data)
        back = wav_read(path)
        assert_allclose(back.samples, data / 32768.0, rtol=0, atol=0)

    def test_int32_scaled_by_2_31(self, tmp_path):
        path = tmp_path / "pcm32.wav"
        data = np.array([-(2**31), 0, 2**31 - 1], dtype=np.int32)
        wavfile.write(path, 8000, data)
        back = wav_read(path)
        assert_allclose(back.samples, data / 2**31, rtol=0, atol=0)

    def test_uint8_centered_on_128(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        data = np.array([0, 128, 255], dtype=np.uint8)
        wavfile.write(path, 8000, data)
        back = wav_read(path)
        assert_allclose(back.samples, (data.astype(float) - 128) / 128)


class TestErrorPaths:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WavError):
            wav_read(tmp_path / "absent.wav")

    def test_junk_bytes(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav file at all, just text padding . . .")
        with pytest.raises(WavError):
            wav_read(path)

    def test_truncated_header(self, tmp_path):
        good = tmp_path / "good.wav"
        wav_write(AudioBuffer(np.zeros(100), 8000), good)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(good.read_bytes()[:20])
        with pytest.raises(WavError):
            wav_read(bad)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.float32))
        with pytest.raises(WavError):
            wav_read(path)
