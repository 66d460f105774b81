"""Mono audio buffer: the carrier type every operation consumes and returns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericError(ValueError):
    """Raised when an operation would produce or consume non-finite samples."""


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """A mono signal: float64 samples plus an integer sample rate in Hz.

    Samples are validated to be finite on construction, so any library
    operation that returns an AudioBuffer guarantees finite output.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"expected mono (1-D) samples, got shape {samples.shape}")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise NumericError("buffer contains NaN or Inf samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    def with_samples(self, samples: np.ndarray, sample_rate: int | None = None) -> "AudioBuffer":
        """New buffer with these samples, keeping this rate unless overridden."""
        return AudioBuffer(samples, self.sample_rate if sample_rate is None else sample_rate)
