"""Mono WAV I/O (32-bit IEEE float on disk, PCM accepted on read).

The RIFF layout is written and walked here with struct and numpy alone. The
writer emits the bytes scipy.io.wavfile.write gives for mono float32; the
reader accepts mono PCM at 8, 16, 24 and 32 bits and IEEE float at 32 and 64
bits, each plain or as WAVE_FORMAT_EXTENSIBLE, and raises WavError for
anything else.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .audio import AudioBuffer
from .configio import atomic_write_bytes

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE

#: The last 12 bytes of a KSDATAFORMAT_SUBTYPE GUID; its first 4 hold the tag.
_SUBTYPE_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

#: (format tag, bits per sample) -> (on-disk dtype, offset, scale): samples
#: read (x - offset) * scale. numpy has no 3-byte integer, so "i3" samples are
#: left-justified into int32 first, as scipy.io.wavfile reads them.
_DECODE = {
    (_PCM, 8): ("u1", 128.0, 1.0 / 128.0),
    (_PCM, 16): ("<i2", 0.0, 1.0 / 32768.0),
    (_PCM, 24): ("i3", 0.0, 1.0 / 2147483648.0),
    (_PCM, 32): ("<i4", 0.0, 1.0 / 2147483648.0),
    (_IEEE_FLOAT, 32): ("<f4", 0.0, 1.0),
    (_IEEE_FLOAT, 64): ("<f8", 0.0, 1.0),
}


class WavError(IOError):
    """Unreadable, malformed, or unsupported WAV file."""


def wav_write(buffer: AudioBuffer, path: str | Path) -> None:
    """Write as RIFF/WAVE, fmt tag 3 (IEEE float32), mono: an 18-byte fmt
    chunk, a fact chunk holding the sample count, then the data chunk.

    The write is atomic (temp file + rename) so readers never observe a
    partially written file. Round trip through wav_read is bit-exact at
    float32 precision.
    """
    data = buffer.samples.astype("<f4").tobytes()
    rate = buffer.sample_rate
    try:
        header = struct.pack(
            "<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
            b"RIFF", 50 + len(data), b"WAVE",
            b"fmt ", 18, _IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
            b"fact", 4, len(buffer),
            b"data", len(data),
        )
        atomic_write_bytes(path, header + data)
    except (OSError, struct.error) as exc:
        raise WavError(f"cannot write {path}: {exc}") from exc


def wav_read(path: str | Path) -> AudioBuffer:
    """Read a mono WAV file into float64 samples.

    Float files are returned as-is; integer PCM is scaled to [-1, 1)
    (16-bit by 1/32768, 32-bit and left-justified 24-bit by 1/2^31, 8-bit
    as (x - 128)/128). Chunks other than fmt and data are skipped. A
    malformed, truncated or unsupported file raises WavError.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise WavError(f"cannot read {path}: {exc}") from exc
    rate, (dtype, offset, scale), data = _parse(path, memoryview(blob))
    if dtype == "i3":
        wide = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        data, dtype = wide, "<i4"
    samples = np.frombuffer(data, dtype=dtype).astype(np.float64)
    samples -= offset
    samples *= scale
    return AudioBuffer(samples, rate)


def _parse(path: Path, blob: memoryview) -> tuple[int, tuple[str, float, float], memoryview]:
    """Walk the RIFF chunks up to the data chunk: the rate, the _DECODE
    entry of the fmt chunk, and the data bytes."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    pos = 12
    while True:
        if pos + 8 > len(blob):
            raise WavError(f"{path}: no data chunk")
        cid, size = struct.unpack_from("<4sI", blob, pos)
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavError(f"{path}: {cid!r} chunk runs past the end of the file")
        if cid == b"fmt ":
            fmt = _format(path, body)
        elif cid == b"data":
            break
        pos += 8 + size + (size & 1)
    if fmt is None:
        raise WavError(f"{path}: data chunk before any fmt chunk")
    rate, decode, width = fmt
    if size % width:
        raise WavError(f"{path}: data size {size} is not a whole number of {width}-byte samples")
    return rate, decode, body


def _format(path: Path, fmt: memoryview) -> tuple[int, tuple[str, float, float], int]:
    """The rate, the _DECODE entry and the sample width of a fmt chunk."""
    if len(fmt) < 16:
        raise WavError(f"{path}: fmt chunk of {len(fmt)} bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE:
        if len(fmt) < 40 or fmt[28:40] != _SUBTYPE_TAIL:
            raise WavError(f"{path}: malformed WAVE_FORMAT_EXTENSIBLE fmt chunk")
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if channels != 1:
        raise WavError(f"{path}: expected mono, got {channels} channels")
    decode = _DECODE.get((tag, bits))
    if decode is None or block_align != bits // 8:
        raise WavError(f"{path}: unsupported sample format (tag {tag:#06x}, {bits} bits, block align {block_align})")
    if rate == 0:
        raise WavError(f"{path}: sample rate 0")
    return rate, decode, block_align
