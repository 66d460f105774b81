"""FIR design, zero-interlacing, integer-factor resampling, and the
interpolation-equivalent kernels of classic upsamplers.

The resampling filter depends on the factor L alone: a Kaiser-windowed sinc
at cutoff 1/L with STOPBAND_DB of attenuation over a transition band
TRANSITION * 2/L wide, sized by the standard Kaiser estimate. All kernels are
linear-phase; convolution is aligned on the kernel center so filtering
introduces no net delay.

Resampling runs polyphase: interpolation convolves the low-rate input with
each of the L tap phases, and decimation computes only the kept outputs, so
no product with an interlaced zero or a discarded sample is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer

#: Stopband attenuation (dB) of the resampling filter. Chosen so filter
#: artifacts sit far below the aliasing levels being measured.
STOPBAND_DB = 100.0

#: Transition width at factor 2 (fraction of Nyquist); scaled by 2/L for
#: other factors so the transition stays proportional to the passband.
TRANSITION = 0.05


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


@lru_cache(maxsize=64)
def design_fir(factor: int, highpass: bool = False) -> FirKernel:
    """Resampling filter for an integer factor L: a Kaiser-windowed sinc
    low-pass at cutoff 1/L of Nyquist (unity DC gain), or its
    spectral-inversion high-pass complement. The transition width is
    TRANSITION scaled by 2/L, and the tap count follows the Kaiser length
    estimate, rounded up to odd. Kernels are cached by the arguments as
    passed, so callers pass them positionally."""
    if factor < 2:
        raise ValueError("resampling filters are for factors >= 2")
    # scipy.special.i0 rather than np.i0, whose last bits differ; imported
    # here so that only commands which design a resampling filter load scipy.
    from scipy.special import i0

    cutoff = 1.0 / factor
    width = TRANSITION * 2.0 / factor
    numtaps = math.ceil((STOPBAND_DB - 7.95) / 2.285 / (np.pi * width) + 1) | 1
    center = numtaps // 2
    m = np.arange(numtaps, dtype=np.float64) - center
    beta = 0.1102 * (STOPBAND_DB - 8.7)  # Kaiser (1974), for attenuations above 50 dB
    window = i0(beta * np.sqrt(1 - (m / center) ** 2.0)) / i0(beta)
    taps = cutoff * np.sinc(cutoff * m) * window
    taps /= np.sum(taps)
    if highpass:
        taps = -taps
        taps[center] += 1.0
    return FirKernel(taps, center)


def convolve(x: AudioBuffer, h: FirKernel) -> AudioBuffer:
    """Filter with zero-delay alignment on h.center; edges are zero-padded and
    the output has the same length as the input."""
    if len(x) == 0:
        raise ValueError("cannot convolve an empty buffer")
    y = np.convolve(x.samples, h.taps)
    return x.with_samples(y[h.center : h.center + len(x)])


def interpolate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """convolve(x zero-interlaced by factor, h), one polyphase branch at a time:
    output sample L*q + p of the full convolution is branch p, the input
    convolved with taps[p::L], at q."""
    if len(x) == 0:
        raise ValueError("cannot convolve an empty buffer")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    full = np.zeros(factor * (len(x) + -(-len(h) // factor)))
    for p in range(min(factor, len(h))):
        branch = np.convolve(x.samples, h.taps[p::factor])
        full[p::factor][: branch.size] = branch
    return AudioBuffer(full[h.center : h.center + factor * len(x)], x.sample_rate * factor)


def upsample_filtered(x: AudioBuffer, factor: int) -> AudioBuffer:
    """Zero-interlace then apply the resampling low-pass (design_fir),
    gain-compensated by L. factor 1 is the identity."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x
    y = interpolate(x, design_fir(factor), factor)
    return y.with_samples(y.samples * factor)


def decimate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """convolve(x, h) at every factor-th sample, computing only those: kept
    output k reads full-convolution sample c + L*k, where tap phase p meets
    only input phase (c - p) mod L, so each phase is one short convolution."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if len(x) < factor:
        raise ValueError("input shorter than the decimation factor")
    if x.sample_rate % factor != 0:
        raise ValueError(f"sample rate {x.sample_rate} not divisible by factor {factor}")
    y = np.zeros(-(-len(x) // factor))
    for p in range(min(factor, len(h))):
        shift, phase = divmod(h.center - p, factor)
        branch = np.convolve(x.samples[phase::factor], h.taps[p::factor])
        lo, hi = max(0, -shift), min(y.size, branch.size - shift)
        y[lo:hi] += branch[lo + shift : hi + shift]
    return AudioBuffer(y, x.sample_rate // factor)


def downsample_filtered(x: AudioBuffer, factor: int) -> AudioBuffer:
    """Low-pass at cutoff 1/L then keep every L-th sample. factor 1 is the identity."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x
    return decimate(x, design_fir(factor), factor)


def frequency_response(h: FirKernel, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """H(omega) on a uniform grid over [0, pi], phase-referenced to the center
    tap (symmetric kernels therefore evaluate real-valued)."""
    # Imported here: only filter-response needs it, and numpy's polyval
    # differs from it in the last bits.
    from scipy.signal import freqz

    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    omegas = np.linspace(0.0, np.pi, n_points)
    _, response = freqz(h.taps, worN=omegas)
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
