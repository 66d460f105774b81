"""FIR design, zero-interlacing, integer-factor resampling, and the
interpolation-equivalent kernels of classic upsamplers.

Filters are Kaiser-windowed sincs sized by the standard Kaiser estimate, so
stopband attenuation and transition width are direct design inputs. All
kernels are linear-phase; convolution is aligned on the kernel center so
filtering introduces no net delay.

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


def _kaiser_beta(atten_db: float) -> float:
    """Kaiser window beta for a stopband attenuation in dB (Kaiser 1974)."""
    if atten_db > 50:
        return 0.1102 * (atten_db - 8.7)
    if atten_db > 21:
        return 0.5842 * (atten_db - 21) ** 0.4 + 0.07886 * (atten_db - 21)
    return 0.0


@lru_cache(maxsize=64)
def _design_cached(spec: FilterDesignSpec) -> FirKernel:
    # scipy.special.i0 rather than np.i0, whose last bits differ; imported
    # here so that only commands which design a resampling filter load scipy.
    from scipy.special import i0

    atten = spec.stopband_atten_db
    if atten < 8:
        raise ValueError(f"stopband attenuation {atten:f} dB is too small for the Kaiser formula")
    numtaps = math.ceil((atten - 7.95) / 2.285 / (np.pi * spec.transition_width) + 1) | 1
    center = numtaps // 2
    m = np.arange(numtaps, dtype=np.float64) - center
    beta = _kaiser_beta(atten)
    window = i0(beta * np.sqrt(1 - (m / center) ** 2.0)) / i0(beta)
    taps = spec.cutoff * np.sinc(spec.cutoff * m) * window
    taps /= np.sum(taps)
    if spec.kind == "highpass":
        taps = -taps
        taps[center] += 1.0
    return FirKernel(taps, center)


def design_fir(spec: FilterDesignSpec) -> FirKernel:
    """Kaiser-windowed sinc low-pass (unity DC gain), or its spectral-inversion
    high-pass complement. Tap count follows the Kaiser length estimate for the
    requested attenuation and transition width, rounded up to odd."""
    return _design_cached(spec)


def convolve(x: AudioBuffer, h: FirKernel) -> AudioBuffer:
    """Filter with zero-delay alignment on h.center; edges are zero-padded and
    the output has the same length as the input."""
    if len(x) == 0:
        raise ValueError("cannot convolve an empty buffer")
    y = np.convolve(x.samples, h.taps)
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


def interpolate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """convolve(zero_interlace(x, factor), h), one polyphase branch at a time:
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
    """Zero-interlace then apply the benchmark resampling low-pass (cutoff
    1/L, 100 dB stopband), gain-compensated by L. factor 1 is the identity."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x
    y = interpolate(x, design_fir(resample_filter_spec(factor)), factor)
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
    return decimate(x, design_fir(resample_filter_spec(factor)), factor)


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
