"""Mono WAV I/O (32-bit IEEE float on disk, PCM accepted on read)."""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .audio import AudioBuffer
from .configio import atomic_write_bytes


class WavError(IOError):
    """Unreadable, malformed, or unsupported WAV file."""


def wav_write(buffer: AudioBuffer, path: str | Path) -> None:
    """Write as RIFF/WAVE, fmt tag 3 (IEEE float32), mono.

    The write is atomic (temp file + rename) so readers never observe a
    partially written file. Round trip through wav_read is bit-exact at
    float32 precision.
    """
    blob = io.BytesIO()
    wavfile.write(blob, buffer.sample_rate, buffer.samples.astype(np.float32))
    try:
        atomic_write_bytes(path, blob.getvalue())
    except OSError as exc:
        raise WavError(f"cannot write {path}: {exc}") from exc


def wav_read(path: str | Path) -> AudioBuffer:
    """Read a mono WAV file into float64 samples.

    Float files are returned as-is; integer PCM is scaled to [-1, 1)
    (16-bit by 1/32768, etc.). Malformed or truncated files raise WavError
    rather than crashing.
    """
    path = Path(path)
    try:
        rate, data = wavfile.read(path)
    except (OSError, ValueError, EOFError, struct.error, KeyError, IndexError) as exc:
        raise WavError(f"cannot read {path}: {exc}") from exc
    if data.ndim != 1:
        raise WavError(f"{path}: expected mono, got {data.ndim} channels")
    if data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise WavError(f"{path}: unsupported sample format {data.dtype}")
    return AudioBuffer(samples, int(rate))
