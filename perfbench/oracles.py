"""Exact references for the benchmark's checks, written apart from the pipeline.

Nothing here calls the program's synthesis, spectrum or band code. The test
signals' Fourier laws, the band rules and the constants they use are written
out again from their documented definitions:

* the WAVs are partial sums of the Fourier law, peak-normalized to -1 dBFS;
* a memoryless activation on a periodic input has exact line powers, from a
  dense single-period FFT of f(x(theta));
* every upsampler is zero-interlace + a linear filter (+ bias), so the line at
  |n Fs_in +- k f0| has power proportional to a_k^2 |H(f)|^2, with H taken
  from the layer's own impulse response.

Line powers are summed over the same harmonic and alias bands the AHR uses.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

RATE = 44100
DURATION_S = 5.0
#: Peak level of every test signal: -1 dBFS.
AMPLITUDE = 10.0 ** (-1.0 / 20.0)
#: Samples dropped at each edge before the AHR spectrum.
EDGE_TRIM = 8192
FLOOR_DB = -120.0
#: Harmonic indices considered by the band bookkeeping.
K_CAP = 512
#: Band half-width in analysis-resolution bins.
HALF_WIDTH_RES = 4
#: Points of the single-period FFT; far above any line the bands can read.
PERIOD_POINTS = 2**16
#: Value of the constant input in the tonal probe.
PROBE_VALUE = 0.5

WAVEFORMS = ("sine", "sawtooth", "triangle")


def note_freq(note: int) -> float:
    """Equal-tempered frequency, A4 = MIDI 69 = 440 Hz."""
    return 440.0 * 2.0 ** ((note - 69) / 12.0)


def freq_note(f0: float) -> int:
    return int(round(69 + 12 * math.log2(f0 / 440.0)))


def fourier_law(waveform: str, f0: float, rate: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic numbers and signed amplitudes of a band-limited test signal.

    Partials stop strictly below Nyquist - max(50 Hz, 4 rate/n).
    """
    cap = rate / 2.0 - max(50.0, 4.0 * rate / n)
    k_hi = math.ceil(cap / f0) - 1
    if waveform == "sine":
        return np.array([1]), np.array([1.0])
    if waveform == "sawtooth":
        ks = np.arange(1, k_hi + 1)
        return ks, (2.0 / np.pi) * (-1.0) ** (ks + 1) / ks
    if waveform == "triangle":
        ks = np.arange(1, k_hi + 1, 2)
        return ks, (8.0 / np.pi**2) * (-1.0) ** ((ks - 1) // 2) / ks.astype(float) ** 2
    raise ValueError(f"unknown waveform {waveform!r}")


def raw_partial_sum(ks: np.ndarray, amps: np.ndarray, f0: float, rate: int, n: int) -> np.ndarray:
    """sum_k a_k sin(2 pi k f0 j / rate) for j < n, by Horner's rule in exp(i theta_j)."""
    cycles = np.arange(n) * (f0 / rate)
    z = np.exp(2j * np.pi * (cycles - np.floor(cycles)))
    coef = np.zeros(int(ks.max()) + 1)
    coef[ks] = amps
    acc = np.zeros(n, dtype=complex)
    for c in coef[:0:-1]:
        acc *= z
        acc.real += c
    return (acc * z).imag


def reference_signal(waveform: str, note: int, rate: int = RATE, duration_s: float = DURATION_S) -> tuple[np.ndarray, float]:
    """The signal at its -1 dBFS peak, and the scale applied to the raw sum."""
    n = int(round(duration_s * rate))
    f0 = note_freq(note)
    ks, amps = fourier_law(waveform, f0, rate, n)
    raw = raw_partial_sum(ks, amps, f0, rate, n)
    scale = AMPLITUDE / np.max(np.abs(raw))
    return raw * scale, scale


# --- band bookkeeping ---------------------------------------------------------


def fold(freqs: np.ndarray, rate: float) -> np.ndarray:
    r = np.mod(freqs, rate)
    return np.where(r > rate / 2.0, rate - r, r)


class Bands:
    """Harmonic and kept alias bands of one AHR measurement, as bin masks.

    Bands cover the FFT bins within HALF_WIDTH_RES resolution bins of their
    centre. A band within 2 half-widths of DC is skipped; an alias band that
    shares a bin with a harmonic band is dropped.
    """

    def __init__(self, rate: int, n_out: int, harmonics: np.ndarray, aliases: np.ndarray):
        n = n_out - 2 * EDGE_TRIM
        self.nfft = 1 << (4 * n - 1).bit_length()
        self.bin_hz = rate / self.nfft
        hw = HALF_WIDTH_RES * rate / n
        self.harmonic = np.zeros(self.nfft // 2 + 1, dtype=bool)
        self.alias = np.zeros_like(self.harmonic)
        self.harmonic_count = 0
        for f in harmonics:
            lo, hi = self._span(f, hw)
            if f > 2.0 * hw and hi > lo:
                self.harmonic[lo:hi] = True
                self.harmonic_count += 1
        for f in aliases:
            lo, hi = self._span(f, hw)
            if f > 2.0 * hw and hi > lo and not self.harmonic[lo:hi].any():
                self.alias[lo:hi] = True

    def _span(self, f: float, hw: float) -> tuple[int, int]:
        lo = max(0, math.ceil((f - hw) / self.bin_hz))
        hi = min(self.harmonic.size, math.floor((f + hw) / self.bin_hz) + 1)
        return lo, hi

    def ahr_db(self, freqs: np.ndarray, powers: np.ndarray) -> float:
        """AHR of lines at these (already folded) frequencies."""
        bins = np.rint(freqs / self.bin_hz).astype(int)
        e_h = float(powers[self.harmonic[bins]].sum())
        e_a = float(powers[self.alias[bins]].sum())
        if e_a <= 0.0 or e_h <= 0.0:
            return FLOOR_DB
        return max(FLOOR_DB, 10.0 * math.log10(e_a / e_h))


@lru_cache(maxsize=None)
def activation_bands(f0: float, rate: int = RATE, n: int = int(RATE * DURATION_S)) -> Bands:
    """Harmonics k f0 below Nyquist; aliases are the folds of the rest (k <= K_CAP)."""
    kf = np.arange(1, K_CAP + 1) * f0
    below = kf < rate / 2.0
    return Bands(rate, n, kf[below], fold(kf[~below], rate))


def law_ks(waveform: str) -> np.ndarray:
    """Harmonic numbers (<= K_CAP) whose law amplitude is at least 1e-6."""
    ks = np.arange(1, K_CAP + 1)
    if waveform == "sine":
        return ks[:1]
    if waveform == "sawtooth":
        return ks[(2.0 / np.pi) / ks >= 1e-6]
    return ks[(ks % 2 == 1) & ((8.0 / np.pi**2) / ks.astype(float) ** 2 >= 1e-6)]


@lru_cache(maxsize=None)
def upsampler_bands(waveform: str, f0: float, factor: int, rate_in: int, n_in: int) -> Bands:
    """Harmonics below the input Nyquist; aliases are the images |n Fs_in +- k f0|."""
    kf = np.arange(1, K_CAP + 1) * f0
    lk = law_ks(waveform) * f0
    images = np.concatenate([np.abs(n * rate_in + s * lk) for n in range(1, factor) for s in (-1, 1)])
    images = np.unique(images[(images > 0) & (images <= factor * rate_in / 2.0)])
    return Bands(rate_in * factor, n_in * factor, kf[kf < rate_in / 2.0], images)


# --- activations --------------------------------------------------------------

#: The built-in memoryless c=1 activations at their default settings.
MEMORYLESS = {
    "LeakyReLU": lambda x: np.where(x >= 0, x, 0.1 * x),
    "ELU": lambda x: np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0))),
    "SnakeBeta": lambda x: x + np.sin(x) ** 2,
}


def activation_ahr(fn, waveform: str, note: int, scale: float) -> float:
    """Exact AHR of a memoryless fn on a test signal with this raw-sum scale."""
    f0 = note_freq(note)
    n = int(round(DURATION_S * RATE))
    ks, amps = fourier_law(waveform, f0, RATE, n)
    spec = np.zeros(PERIOD_POINTS // 2 + 1, dtype=complex)
    spec[ks] = -0.5j * PERIOD_POINTS * amps * scale  # irfft of this is sum a_k sin(k theta)
    c = np.fft.rfft(fn(np.fft.irfft(spec, PERIOD_POINTS))) / PERIOD_POINTS
    k = np.arange(1, c.size - 1)
    powers = 2.0 * np.abs(c[1:-1]) ** 2
    return activation_bands(f0).ahr_db(fold(k * f0, RATE), powers)


# --- upsamplers ---------------------------------------------------------------


def impulse_response(apply, rate_in: int, length: int = 4096) -> tuple[np.ndarray, float]:
    """Linear part and bias of a layer: apply(impulse) - apply(0), and apply(0).

    apply maps an input array at rate_in to the layer's output array. The
    impulse sits mid-buffer, so the response is read away from both edges.
    """
    zero = apply(np.zeros(length))
    impulse = np.zeros(length)
    impulse[length // 2] = 1.0
    bias = float(zero[zero.size // 2])
    return apply(impulse) - zero, bias


def upsampler_ahr(h: np.ndarray, factor: int, waveform: str, note: int, rate_in: int, n_in: int) -> float:
    """AHR of a zero-interlace + FIR layer with impulse response h on a test signal."""
    f0 = note_freq(note)
    rate_out = rate_in * factor
    ks, amps = fourier_law(waveform, f0, rate_in, n_in)
    lines = (ks[None, :] * f0 + np.arange(factor)[:, None] * rate_in).ravel()
    m = np.flatnonzero(h)
    gain = np.abs(np.exp(-2j * np.pi * np.outer(lines, m) / rate_out) @ h[m])
    powers = (np.tile(amps, factor) * gain) ** 2
    return upsampler_bands(waveform, f0, factor, rate_in, n_in).ahr_db(fold(lines, rate_out), powers)


def tonal_db(h: np.ndarray, bias: float, factor: int, value: float = PROBE_VALUE) -> float:
    """Stride-line level for a constant input: the output repeats the polyphase
    gains g_p = value * sum(h[p::L]) + bias, whose lines at multiples of the
    input rate are measured against the total power."""
    g = np.array([value * h[p::factor].sum() + bias for p in range(factor)])
    G = np.fft.fft(g) / factor
    q = np.arange(1, factor // 2 + 1)
    lines = float(np.sum(np.where(2 * q == factor, 1.0, 2.0) * np.abs(G[q]) ** 2))
    total = float(np.mean(g * g))
    if lines <= 0.0 or total <= 0.0:
        return FLOOR_DB
    return max(FLOOR_DB, 10.0 * math.log10(lines / total))


def harmonic_band_count(f0: float, nyquist: float, rate: int, n_out: int, edge_trim: int = EDGE_TRIM, k_cap: int = K_CAP) -> int:
    """Harmonic bands an AHR measurement keeps: k f0 below the given Nyquist
    and more than two band half-widths above DC."""
    hw = HALF_WIDTH_RES * rate / (n_out - 2 * edge_trim)
    kf = np.arange(1, k_cap + 1) * f0
    return int(np.count_nonzero((kf < nyquist) & (kf > 2.0 * hw)))
