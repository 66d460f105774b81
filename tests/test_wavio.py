"""Tests for WAV read/write: float32 round trip, PCM scaling, error paths,
and agreement with scipy.io.wavfile, which the reader and writer replace."""

import io
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.io import wavfile

from aliasbench.audio import AudioBuffer, NumericError
from aliasbench.wavio import WavError, wav_read, wav_write


def subtype_guid(tag: int) -> bytes:
    """The KSDATAFORMAT_SUBTYPE GUID of a format tag, as WAVE_FORMAT_EXTENSIBLE holds it."""
    return struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff(fmt: bytes, data: bytes, before_data: bytes = b"") -> bytes:
    """A RIFF/WAVE file: the fmt chunk body, any chunks given whole, then data."""
    pad = b"\x00" * (len(data) & 1)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + before_data
            + b"data" + struct.pack("<I", len(data)) + data + pad)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm_fmt(tag: int, bits: int, rate: int = 8000) -> bytes:
    """A mono fmt chunk body."""
    align = bits // 8
    return struct.pack("<HHIIHH", tag, 1, rate, rate * align, align, bits)


def extensible_fmt(tag: int, bits: int, rate: int = 8000) -> bytes:
    """A mono WAVE_FORMAT_EXTENSIBLE fmt chunk body whose subformat is tag."""
    return pcm_fmt(0xFFFE, bits, rate) + struct.pack("<HHI", 22, bits, 4) + subtype_guid(tag)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_names_the_file(self, tmp_path, value):
        """A float file whose sample 1000 is not finite raises NumericError
        with the file's name, as every other unreadable file names it."""
        path = tmp_path / "nan_at_1000.wav"
        wav_write(AudioBuffer(np.zeros(2000), 8000), path)
        blob = bytearray(path.read_bytes())
        at = len(blob) - 4 * 2000 + 4 * 1000  # the data chunk ends the file
        blob[at : at + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(NumericError, match=f"^{re.escape(str(path))}: buffer contains NaN or Inf samples$"):
            wav_read(path)


class TestAgreesWithScipy:
    @pytest.mark.parametrize("n,rate", [(0, 8000), (1, 44100), (4410, 22050)])
    def test_written_bytes_match_scipy(self, tmp_path, n, rate):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        wav_write(AudioBuffer(x, rate), tmp_path / "x.wav")
        want = io.BytesIO()
        wavfile.write(want, rate, x.astype(np.float32))
        assert (tmp_path / "x.wav").read_bytes() == want.getvalue()

    @pytest.mark.parametrize("dtype,scale", [
        (np.uint8, None), (np.int16, 2.0**-15), (np.int32, 2.0**-31), (np.float32, 1.0), (np.float64, 1.0),
    ])
    def test_scipy_written_files_read_as_scipy_reads_them(self, tmp_path, dtype, scale):
        rng = np.random.default_rng(3)
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, 1001, dtype=dtype, endpoint=True)
        else:
            data = rng.uniform(-1.0, 1.0, 1001).astype(dtype)
        path = tmp_path / "x.wav"
        wavfile.write(path, 11025, data)
        rate, ref = wavfile.read(path)
        want = (ref - 128.0) / 128.0 if scale is None else ref.astype(np.float64) * scale
        got = wav_read(path)
        assert got.sample_rate == rate and np.array_equal(got.samples, want)

    @pytest.mark.parametrize("fmt", ["plain", "extensible"])
    def test_24_bit_reads_left_justified(self, tmp_path, fmt):
        """Odd sample count, so the data chunk carries a pad byte."""
        ints = np.array([-(2**23), -1, 0, 1, 2**23 - 1, 12345, -54321])
        data = b"".join(int(v).to_bytes(3, "little", signed=True) for v in ints)
        path = tmp_path / "x.wav"
        path.write_bytes(riff(pcm_fmt(1, 24) if fmt == "plain" else extensible_fmt(1, 24), data))
        _, ref = wavfile.read(path)
        got = wav_read(path).samples
        assert np.array_equal(got, ref / 2.0**31) and np.array_equal(got, ints / 2.0**23)

    def test_extensible_float_and_unknown_chunks(self, tmp_path):
        """WAVE_FORMAT_EXTENSIBLE float32, after an odd-sized LIST chunk
        whose pad byte must be skipped."""
        x = np.random.default_rng(5).uniform(-1.0, 1.0, 64).astype(np.float32)
        path = tmp_path / "x.wav"
        path.write_bytes(riff(extensible_fmt(3, 32), x.tobytes(), b"LIST" + struct.pack("<I", 3) + b"abc\x00"))
        rate, ref = wavfile.read(path)
        got = wav_read(path)
        assert got.sample_rate == rate == 8000 and np.array_equal(got.samples, ref.astype(np.float64))


class TestRejected:
    """Outside mono PCM 8/16/24/32 and float 32/64, and for any file cut short,
    the reader raises WavError: the table commands exit 3."""

    @pytest.mark.parametrize("fmt", [
        pcm_fmt(1, 12), pcm_fmt(3, 16), pcm_fmt(6, 8), pcm_fmt(1, 16, rate=0),
        extensible_fmt(2, 16), pcm_fmt(1, 16)[:14],
    ], ids=["pcm12", "float16", "alaw", "rate0", "adpcm-extensible", "short-fmt"])
    def test_unsupported_format(self, tmp_path, fmt):
        path = tmp_path / "x.wav"
        path.write_bytes(riff(fmt, bytes(16)))
        with pytest.raises(WavError):
            wav_read(path)

    def test_data_cut_short(self, tmp_path):
        """scipy warned and read the whole samples that were left."""
        good = tmp_path / "good.wav"
        wav_write(AudioBuffer(np.zeros(100), 8000), good)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(good.read_bytes()[:-10])
        with pytest.raises(WavError, match="runs past the end"):
            wav_read(bad)

    def test_partial_sample(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(riff(pcm_fmt(1, 16), bytes(7)))
        with pytest.raises(WavError, match="whole number"):
            wav_read(path)

    def test_data_before_fmt(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 16) + b"WAVE" + b"data" + struct.pack("<I", 4) + bytes(4))
        with pytest.raises(WavError):
            wav_read(path)


def _valid_wavs() -> list[bytes]:
    """A float32 file as wav_write writes it, and PCM 8, 16 and 24-bit ones."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.wav"
        wav_write(AudioBuffer(np.sin(0.3 * np.arange(24)), 8000), path)
        written = path.read_bytes()
    return [written, riff(pcm_fmt(1, 8), bytes(range(0, 250, 10))),
            riff(pcm_fmt(1, 16), bytes(range(48))), riff(extensible_fmt(1, 24), bytes(range(45)))]


VALID_WAVS = _valid_wavs()


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(
        base=st.sampled_from(VALID_WAVS),
        cut=st.integers(0, 200),
        flips=st.lists(st.tuples(st.integers(0, 199), st.integers(1, 255)), max_size=4),
    )
    def test_damaged_wav_reads_or_raises_wav_error(self, base, cut, flips):
        """A truncated or byte-flipped file reads as a buffer, or raises
        WavError, or NumericError for a flipped float that is no longer
        finite; never any other exception."""
        blob = bytearray(base[: len(base) - cut % (len(base) + 1)])
        for at, mask in flips:
            if at < len(blob):
                blob[at] ^= mask
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            path.write_bytes(bytes(blob))
            try:
                assert isinstance(wav_read(path), AudioBuffer)
            except (WavError, NumericError):
                pass
