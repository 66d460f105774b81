"""FIR design, zero-interlacing, integer-factor resampling, and the
interpolation-equivalent kernels of classic upsamplers.

The resampling filter depends on the factor L alone: a Kaiser-windowed sinc
at cutoff 1/L with STOPBAND_DB of attenuation over a transition band
TRANSITION * 2/L wide, sized by the standard Kaiser estimate. All kernels are
linear-phase; convolution is aligned on the kernel center so filtering
introduces no net delay.

Resampling runs polyphase: interpolation filters the low-rate input with
each of the L tap phases, and decimation computes only the kept outputs.
The resampling filter is a Nyquist(L) filter: the sinc is exactly zero at
every L-th tap off the center, so the phase that holds the center tap is that
one tap, and filtering with it is a scaled copy of the input, not a
convolution. An empty phase is skipped. The phases of at least
BLOCKED_MIN_TAPS taps (every other phase of the resampling filter) run
together as blocked matrix products (np.matmul, a BLAS dgemm): rows of
BLOCK + m - 1 consecutive inputs times a banded Toeplitz matrix of the
phases' m taps, each row giving BLOCK outputs. The band's zeros are
multiplied too, (BLOCK + m - 1) / m times the products of a direct
convolution, but one dgemm over many rows runs them faster than
np.convolve's one dot product per output sample; a shorter phase stays on
np.convolve. The products sum in another order than np.convolve, so the
samples can differ from it in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .audio import AudioBuffer, NumericError

#: Stopband attenuation (dB) of the resampling filter. Chosen so filter
#: artifacts sit far below the aliasing levels being measured.
STOPBAND_DB = 100.0

#: Transition width at factor 2 (fraction of Nyquist); scaled by 2/L for
#: other factors so the transition stays proportional to the passband.
TRANSITION = 0.05

#: Tap phases of at least this many taps run as blocked matrix products
#: (np.matmul, a BLAS dgemm); shorter ones as np.convolve, which is faster
#: there: np.convolve's time per output jumps about fourfold between 10 and
#: 12 taps. Measured crossover: BENCH_36.json "crossover".
BLOCKED_MIN_TAPS = 12

#: Outputs per row of a blocked product, and the multiply-adds of one
#: np.matmul call, which set its rows: PRODUCT_MACS // (band height * band
#: width). Up to 10**6 multiply-adds, OpenBLAS runs a dgemm on its
#: small-matrix kernels, which were faster on these shapes (about 30 against
#: 21 GMAC/s) and allocate no packing buffer. Measured: BENCH_36.json "blocks".
BLOCK = 16
PRODUCT_MACS = 10**6


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
    taps = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, beta)
    taps[(m % factor == 0) & (m != 0)] = 0.0  # sinc's exact zeros; np.sinc leaves ~1e-17
    taps /= np.sum(taps)
    if highpass:
        taps = -taps
        taps[center] += 1.0
    return FirKernel(taps, center)


def interpolate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """Filter x zero-interlaced by factor with h, aligned on h.center (zero
    delay, zero-padded edges, output length factor * len(x)); factor 1 is
    plain filtering. Output sample L*q + p of the full convolution is tap
    phase p, the input convolved with taps[p::L], at q. The phases of at
    least BLOCKED_MIN_TAPS taps run as one blocked product whose band
    interleaves their columns; a shorter phase is one np.convolve."""
    if len(x) == 0:
        raise ValueError("cannot convolve an empty buffer")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    full = np.zeros(factor * (len(x) + -(-len(h) // factor)))
    blocked = []
    for p in range(min(factor, len(h))):
        taps = h.taps[p::factor]
        nonzero = np.flatnonzero(taps)
        if nonzero.size == 1:  # a scaled, shifted copy, written in place
            j = nonzero[0]
            np.multiply(x.samples, taps[j], out=full[p::factor][j : j + len(x)])
        elif nonzero.size and taps.size >= BLOCKED_MIN_TAPS:
            blocked.append(p)
        elif nonzero.size:
            branch = np.convolve(x.samples, taps)
            full[p::factor][: branch.size] = branch
    if blocked:
        # Only the rows q0..q1-1 of full, viewed as (q, p), hold output samples.
        band = _band(h, factor, blocked)
        m = band.shape[0] - BLOCK + 1
        q0, q1 = h.center // factor, (h.center + factor * len(x) - 1) // factor + 1
        by_phase = full.reshape(-1, factor)[q0:q1]
        band = band.transpose(0, 2, 1).reshape(band.shape[0], -1)  # columns (b, i)
        for q, product in _blocked_products(x.samples, [q0 - m + 1], 1, band, q1 - q0):
            samples = product.reshape(-1, len(blocked))[: q1 - q0 - q]
            for i, p in enumerate(blocked):
                by_phase[q : q + len(samples), p] = samples[:, i]
    return AudioBuffer(full[h.center : h.center + factor * len(x)], x.sample_rate * factor)


def _band(h: FirKernel, factor: int, phases: list[int]) -> np.ndarray:
    """The banded Toeplitz matrix of h's tap phases, as a read-only view
    (m + BLOCK - 1, len(phases), BLOCK), m the longest phase's tap count:
    entry [k, i, b] is taps[phases[i]::factor][b + m - 1 - k], zero off the
    band. So m + BLOCK - 1 consecutive inputs times [:, i, :] are BLOCK
    consecutive samples of that phase's convolution."""
    m = -(-(len(h) - phases[0]) // factor)
    padded = np.zeros((m + 2 * (BLOCK - 1), len(phases)))
    for i, p in enumerate(phases):
        taps = h.taps[p::factor]
        padded[BLOCK - 1 : BLOCK - 1 + taps.size, i] = taps
    return sliding_window_view(padded, BLOCK, axis=0)[::-1]


def _blocked_products(x: np.ndarray, starts: list[int], step: int, band: np.ndarray, n_out: int):
    """Yield (first output, product) over ceil(n_out / BLOCK) rows, as many
    rows at a time as PRODUCT_MACS allows. Row r takes, from each start s in
    turn, the band's height / len(starts) samples x[s + step * (BLOCK * r +
    k)], zero outside x, and product is those rows times band. The buffers
    are reused, so each product is read before the next is asked for."""
    width = band.shape[0] // len(starts)
    n_rows = -(-n_out // BLOCK)
    chunk = min(max(1, PRODUCT_MACS // band.size), n_rows)
    rows = np.empty((chunk, band.shape[0]))
    products = np.empty((chunk, band.shape[1]))
    for r0 in range(0, n_rows, chunk):
        r = min(chunk, n_rows - r0)
        for i, s in enumerate(starts):
            seg = _segment(x, s + step * BLOCK * r0, step, BLOCK * (r - 1) + width)
            stride = seg.strides[0]
            rows[:r, i * width : (i + 1) * width] = as_strided(seg, (r, width), (BLOCK * stride, stride))
        np.matmul(rows[:r], band, out=products[:r])
        yield BLOCK * r0, products[:r]


def _segment(x: np.ndarray, start: int, step: int, count: int) -> np.ndarray:
    """x[start + step * i] for i in range(count), zero where that index falls
    outside x: a view of x when none does, else a zero-filled copy."""
    lo = max(0, -(start // step))
    hi = min(count, (x.size - 1 - start) // step + 1) if start < x.size else 0
    if lo == 0 and hi == count:
        return x[start : start + step * (count - 1) + 1 : step]
    seg = np.zeros(count)
    if lo < hi:
        seg[lo:hi] = x[start + step * lo : start + step * (hi - 1) + 1 : step]
    return seg


def upsample_filtered(x: AudioBuffer, factor: int) -> AudioBuffer:
    """Zero-interlace then apply the resampling low-pass (design_fir),
    gain-compensated by L. factor 1 is the identity."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x
    y = interpolate(x, design_fir(factor), factor)
    return scale_in_place(y, factor, 0.0, f"upsampling by {factor} overflowed applying gain {factor}")


def scale_in_place(y: AudioBuffer, gain: float, bias: float, overflow: str) -> AudioBuffer:
    """y * gain + bias over y's own array (interpolate's output is the
    caller's). Finite factors can still overflow it near the float max:
    that raises NumericError(overflow), where a finite check would cost a
    new buffer and two more passes. A zero bias is not added."""
    out = y.samples
    try:
        with np.errstate(over="raise"):
            out *= gain
            if bias:
                out += bias
    except FloatingPointError as exc:
        raise NumericError(overflow) from exc
    return y


def decimate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """interpolate(x, h, 1) at every factor-th sample, computing only those:
    kept output k reads full-convolution sample c + L*k, where tap phase p
    meets only input phase (c - p) mod L. The phases of at least
    BLOCKED_MIN_TAPS taps run as one blocked product whose band stacks them
    along its height, so the product sums them; a shorter phase is one
    np.convolve."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if len(x) < factor:
        raise ValueError("input shorter than the decimation factor")
    if x.sample_rate % factor != 0:
        raise ValueError(f"sample rate {x.sample_rate} not divisible by factor {factor}")
    y = np.zeros(-(-len(x) // factor))
    blocked = []
    for p in range(min(factor, len(h))):
        shift, phase = divmod(h.center - p, factor)
        taps, xs = h.taps[p::factor], x.samples[phase::factor]
        nonzero = np.flatnonzero(taps)
        if nonzero.size == 1:  # a scaled, shifted copy: kept output k reads xs[k + shift - j]
            j = nonzero[0]
            lo, hi = max(0, j - shift), min(y.size, xs.size + j - shift)
            if lo < hi:
                y[lo:hi] += taps[j] * xs[lo + shift - j : hi + shift - j]
        elif nonzero.size and taps.size >= BLOCKED_MIN_TAPS:
            blocked.append(p)
        elif nonzero.size:
            branch = np.convolve(xs, taps)
            lo, hi = max(0, -shift), min(y.size, branch.size - shift)
            y[lo:hi] += branch[lo + shift : hi + shift]
    if blocked:
        # Kept output k reads x[c - p + L * (k - j)] against phase p's tap j.
        band = _band(h, factor, blocked)
        m = band.shape[0] - BLOCK + 1
        starts = [h.center - p - factor * (m - 1) for p in blocked]
        band = band.transpose(1, 0, 2).reshape(-1, BLOCK)  # rows (i, k)
        for k, product in _blocked_products(x.samples, starts, factor, band, y.size):
            samples = product.reshape(-1)[: y.size - k]
            y[k : k + samples.size] += samples
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
    tap (symmetric kernels therefore evaluate real-valued). The sum is
    scipy.signal.freqz's in its operations and order, so the two agree in
    every bit: w = 2 pi omega / (2 pi), which need not round back to omega;
    Horner's rule in z = exp(-j w) from the last tap down; then the division
    by the denominator 1, which can flip the sign of a zero."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    omegas = np.linspace(0.0, np.pi, n_points)
    z = np.exp(-1j * (2 * np.pi * omegas / (2 * np.pi)))
    response = h.taps[-1] + z * 0
    for tap in h.taps[-2::-1]:
        response = response * z + tap
    response /= 1.0 + z * 0
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
