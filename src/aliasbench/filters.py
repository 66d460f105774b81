"""FIR design, zero-interlacing, integer-factor resampling, and the
interpolation-equivalent kernels of classic upsamplers.

Filters are Kaiser-windowed sincs sized by the standard Kaiser estimate, so
stopband attenuation and transition width are direct design inputs. All
kernels are linear-phase; convolution is aligned on the kernel center so
filtering introduces no net delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal as sps

from .audio import AudioBuffer

#: Default stopband attenuation (dB) for benchmark resampling filters. Chosen
#: so filter artifacts sit far below the aliasing levels being measured.
DEFAULT_STOPBAND_DB = 100.0

#: Default transition width at factor 2 (fraction of Nyquist); scaled by 2/L
#: for other factors so the transition stays proportional to the passband.
DEFAULT_TRANSITION = 0.05


@dataclass(frozen=True, eq=False)
class FirKernel:
    """FIR taps plus the index of the zero-delay tap."""

    taps: np.ndarray
    center: int

    def __post_init__(self) -> None:
        taps = np.array(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if not 0 <= self.center < taps.size:
            raise ValueError(f"center {self.center} outside tap range 0..{taps.size - 1}")
        taps.flags.writeable = False  # kernels are shared via the design cache
        object.__setattr__(self, "taps", taps)

    def __len__(self) -> int:
        return self.taps.size

    @property
    def dc_gain(self) -> float:
        return float(self.taps.sum())

    @property
    def is_symmetric(self) -> bool:
        """Linear phase about the center tap, within 1e-12."""
        lo = min(self.center, len(self) - 1 - self.center)
        left = self.taps[self.center - lo : self.center + 1][::-1]
        right = self.taps[self.center : self.center + lo + 1]
        outside = np.concatenate(
            [self.taps[: self.center - lo], self.taps[self.center + lo + 1 :]]
        )
        return bool(np.all(np.abs(left - right) <= 1e-12) and np.all(np.abs(outside) <= 1e-12))


@dataclass(frozen=True)
class FilterDesignSpec:
    """What to ask of design_fir: cutoff/transition as fractions of Nyquist."""

    cutoff: float
    transition_width: float = DEFAULT_TRANSITION
    stopband_atten_db: float = DEFAULT_STOPBAND_DB
    kind: str = "lowpass"

    def __post_init__(self) -> None:
        if self.kind not in ("lowpass", "highpass"):
            raise ValueError(f"kind must be lowpass or highpass, got {self.kind!r}")
        if self.transition_width <= 0:
            raise ValueError("transition_width must be positive")
        if not 0.0 < self.cutoff < 1.0:
            raise ValueError(f"cutoff must be in (0, 1), got {self.cutoff}")
        if self.cutoff - self.transition_width / 2 <= 0 or self.cutoff + self.transition_width / 2 >= 1:
            raise ValueError("transition band must fit inside (0, 1)")
        if self.stopband_atten_db <= 0:
            raise ValueError("stopband_atten_db must be positive")


def resample_filter_spec(
    factor: int,
    stopband_atten_db: float = DEFAULT_STOPBAND_DB,
    base_transition: float = DEFAULT_TRANSITION,
    kind: str = "lowpass",
) -> FilterDesignSpec:
    """Design spec for resampling by an integer factor: cutoff 1/L, with the
    transition width scaled by 2/L (anchored at 0.05 for L=2)."""
    if factor < 2:
        raise ValueError("resampling filters are for factors >= 2")
    return FilterDesignSpec(
        cutoff=1.0 / factor,
        transition_width=base_transition * 2.0 / factor,
        stopband_atten_db=stopband_atten_db,
        kind=kind,
    )


@lru_cache(maxsize=64)
def _design_cached(spec: FilterDesignSpec) -> FirKernel:
    numtaps, beta = sps.kaiserord(spec.stopband_atten_db, spec.transition_width)
    if numtaps % 2 == 0:
        numtaps += 1
    taps = sps.firwin(numtaps, spec.cutoff, window=("kaiser", beta), scale=True)
    center = numtaps // 2
    if spec.kind == "highpass":
        taps = -taps
        taps[center] += 1.0
    return FirKernel(taps, center)


def design_fir(spec: FilterDesignSpec) -> FirKernel:
    """Kaiser-windowed sinc low-pass (unity DC gain), or its spectral-inversion
    high-pass complement. Tap count follows the Kaiser length estimate for the
    requested attenuation and transition width."""
    return _design_cached(spec)


def convolve(x: AudioBuffer, h: FirKernel) -> AudioBuffer:
    """Filter with zero-delay alignment on h.center; edges are zero-padded and
    the output has the same length as the input."""
    if len(x) == 0:
        raise ValueError("cannot convolve an empty buffer")
    y = sps.convolve(x.samples, h.taps, mode="full", method="auto")
    return x.with_samples(y[h.center : h.center + len(x)])


def zero_interlace(x: AudioBuffer, factor: int) -> AudioBuffer:
    """Insert factor-1 zeros after each sample; output rate is factor * input rate."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x
    y = np.zeros(len(x) * factor)
    y[::factor] = x.samples
    return AudioBuffer(y, x.sample_rate * factor)


def upsample_filtered(x: AudioBuffer, factor: int) -> AudioBuffer:
    """Zero-interlace then apply the benchmark resampling low-pass (cutoff
    1/L, 100 dB stopband), gain-compensated by L. factor 1 is the identity."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x
    y = convolve(zero_interlace(x, factor), design_fir(resample_filter_spec(factor)))
    return y.with_samples(y.samples * factor)


def downsample_filtered(x: AudioBuffer, factor: int) -> AudioBuffer:
    """Low-pass at cutoff 1/L then keep every L-th sample. factor 1 is the identity."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x
    if len(x) < factor:
        raise ValueError("input shorter than the decimation factor")
    if x.sample_rate % factor != 0:
        raise ValueError(f"sample rate {x.sample_rate} not divisible by factor {factor}")
    y = convolve(x, design_fir(resample_filter_spec(factor)))
    return AudioBuffer(y.samples[::factor], x.sample_rate // factor)


def frequency_response(h: FirKernel, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """H(omega) on a uniform grid over [0, pi], phase-referenced to the center
    tap (symmetric kernels therefore evaluate real-valued)."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    omegas = np.linspace(0.0, np.pi, n_points)
    _, response = sps.freqz(h.taps, worN=omegas)
    return omegas, response * np.exp(1j * omegas * h.center)


def interp_kernel(kind: str, n_half: int) -> FirKernel:
    """Equivalent kernels of classic interpolating upsamplers.

    linear:  1 - |t|/N on t = -N..N (triangle; 2N+1 taps)
    nearest: 1 on |t| <= N (symmetric box; 2N+1 taps, for response analysis)
    hold:    1 on t = 0..N-1 (causal box of width N; the kernel the actual
             nearest-neighbor upsampler applies after zero-interlacing by N)

    linear and hold preserve constants when used at N = L: each polyphase
    branch sums to exactly 1.
    """
    if n_half < 1:
        raise ValueError("kernel half-length must be >= 1")
    if kind == "linear":
        t = np.arange(-n_half, n_half + 1)
        return FirKernel(1.0 - np.abs(t) / n_half, n_half)
    if kind == "nearest":
        return FirKernel(np.ones(2 * n_half + 1), n_half)
    if kind == "hold":
        return FirKernel(np.ones(n_half), 0)
    raise ValueError(f"unknown interpolation kernel kind {kind!r}")
