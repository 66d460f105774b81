"""FIR design, zero-interlacing, integer-factor resampling, and the
interpolation-equivalent kernels of classic upsamplers.

The resampling filter depends on the factor L alone: a Kaiser-windowed sinc
at cutoff 1/L with STOPBAND_DB of attenuation over a transition band
TRANSITION * 2/L wide, sized by the standard Kaiser estimate. All kernels are
linear-phase; convolution is aligned on the kernel center so filtering
introduces no net delay. The window's Bessel function I0 is the Cephes
routine, evaluated here on numpy so that its taps equal those of
scipy.special.i0 in every bit without loading scipy.

Resampling runs polyphase: interpolation convolves the low-rate input with
each of the L tap phases, and decimation computes only the kept outputs, so
no product with an interlaced zero or a discarded sample is ever formed.
The resampling filter is a Nyquist(L) filter: the sinc is exactly zero at
every L-th tap off the center, so the phase that holds the center tap is that
one tap, and filtering with it is a scaled copy of the input, not a
convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer, NumericError

#: Stopband attenuation (dB) of the resampling filter. Chosen so filter
#: artifacts sit far below the aliasing levels being measured.
STOPBAND_DB = 100.0

#: Transition width at factor 2 (fraction of Nyquist); scaled by 2/L for
#: other factors so the transition stays proportional to the passband.
TRANSITION = 0.05

# Chebyshev coefficients of exp(-x) I0(x) on [0, 8] (_I0_A) and of
# exp(-x) sqrt(x) I0(x) on (8, inf) in 32/x (_I0_B), from Cephes (Moshier 1989).
_I0_A = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17, -2.43127984654795469359e-16,
    1.71539128555513303061e-15, -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12, -1.72682629144155570723e-11,
    9.67580903537323691224e-11, -5.18979560163526290666e-10, 2.65982372468238665035e-09,
    -1.30002500998624804212e-08, 6.04699502254191894932e-08, -2.67079385394061173391e-07,
    1.11738753912010371815e-06, -4.41673835845875056359e-06, 1.64484480707288970893e-05,
    -5.75419501008210370398e-05, 1.88502885095841655729e-04, -5.76375574538582365885e-04,
    1.63947561694133579842e-03, -4.32430999505057594430e-03, 1.05464603945949983183e-02,
    -2.37374148058994688156e-02, 4.93052842396707084878e-02, -9.49010970480476444210e-02,
    1.71620901522208775349e-01, -3.04682672343198398683e-01, 6.76795274409476084995e-01,
)
_I0_B = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18, 4.46562142029675999901e-17,
    3.46122286769746109310e-17, -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15, -9.55484669882830764870e-15,
    -4.15056934728722208663e-14, 1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12, -1.32158118404477131188e-11,
    -3.14991652796324136454e-11, 1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-09, 2.26666899049817806459e-08, 2.04891858946906374183e-07,
    2.89137052083475648297e-06, 6.88975834691682398426e-05, 3.36911647825569408990e-03,
    8.04490411014108831608e-01,
)


def _chbevl(y: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Clenshaw sum of a Chebyshev series at y, in Cephes' operation order."""
    b0, b1 = coeffs[0], 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0(x: np.ndarray) -> np.ndarray:
    """Modified Bessel function I0 of non-negative x, bit-identical to
    scipy.special.i0. The series are evaluated elementwise as Cephes does;
    exp is libm's (math.exp), which np.exp is not, and that is where np.i0's
    last bits differ."""
    x = np.asarray(x, dtype=np.float64)
    exp_x = np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)
    out = np.empty_like(x)
    low = x <= 8.0
    out[low] = exp_x[low] * _chbevl(x[low] / 2.0 - 2.0, _I0_A)
    high = x[~low]
    out[~low] = exp_x[~low] * _chbevl(32.0 / high - 2.0, _I0_B) / np.sqrt(high)
    return out


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
    cutoff = 1.0 / factor
    width = TRANSITION * 2.0 / factor
    numtaps = math.ceil((STOPBAND_DB - 7.95) / 2.285 / (np.pi * width) + 1) | 1
    center = numtaps // 2
    m = np.arange(numtaps, dtype=np.float64) - center
    beta = 0.1102 * (STOPBAND_DB - 8.7)  # Kaiser (1974), for attenuations above 50 dB
    # _i0, not np.i0: the taps match scipy.special.i0's window in every bit.
    window = _i0(beta * np.sqrt(1 - (m / center) ** 2.0)) / _i0(beta)
    taps = cutoff * np.sinc(cutoff * m) * window
    taps[(m % factor == 0) & (m != 0)] = 0.0  # sinc's exact zeros; np.sinc leaves ~1e-17
    taps /= np.sum(taps)
    if highpass:
        taps = -taps
        taps[center] += 1.0
    return FirKernel(taps, center)


def interpolate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """Filter x zero-interlaced by factor with h, aligned on h.center (zero
    delay, zero-padded edges, output length factor * len(x)); factor 1 is
    plain filtering. It runs one polyphase branch at a time: output sample
    L*q + p of the full convolution is branch p, the input convolved with
    taps[p::L], at q."""
    if len(x) == 0:
        raise ValueError("cannot convolve an empty buffer")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    full = np.zeros(factor * (len(x) + -(-len(h) // factor)))
    for p in range(min(factor, len(h))):
        taps = h.taps[p::factor]
        nonzero = np.flatnonzero(taps)
        if nonzero.size == 1:  # a scaled, shifted copy, written in place
            j = nonzero[0]
            np.multiply(x.samples, taps[j], out=full[p::factor][j : j + len(x)])
        elif nonzero.size:
            branch = np.convolve(x.samples, taps)
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
    out = y.samples  # interpolate's own fresh array: scaled in place, as apply_upsampler does
    try:
        with np.errstate(over="raise"):
            out *= factor
    except FloatingPointError as exc:
        raise NumericError(f"upsampling by {factor} overflowed applying gain {factor}") from exc
    return y


def decimate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """interpolate(x, h, 1) at every factor-th sample, computing only those:
    kept output k reads full-convolution sample c + L*k, where tap phase p
    meets only input phase (c - p) mod L, so each phase is one short
    convolution."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if len(x) < factor:
        raise ValueError("input shorter than the decimation factor")
    if x.sample_rate % factor != 0:
        raise ValueError(f"sample rate {x.sample_rate} not divisible by factor {factor}")
    y = np.zeros(-(-len(x) // factor))
    for p in range(min(factor, len(h))):
        shift, phase = divmod(h.center - p, factor)
        taps, xs = h.taps[p::factor], x.samples[phase::factor]
        nonzero = np.flatnonzero(taps)
        if nonzero.size == 1:  # a scaled, shifted copy: kept output k reads xs[k + shift - j]
            j = nonzero[0]
            lo, hi = max(0, j - shift), min(y.size, xs.size + j - shift)
            if lo < hi:
                y[lo:hi] += taps[j] * xs[lo + shift - j : hi + shift - j]
        elif nonzero.size:
            branch = np.convolve(xs, taps)
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
