"""Band-limited test-signal generation and the benchmark signal set.

All waveforms are synthesized additively from their Fourier series, summing
only partials that stay clear of the Nyquist fold, so the generated signals
are alias-free by construction. Any aliasing measured after passing them
through a module under test was introduced by that module.

The sine series is evaluated by Clenshaw's recurrence in cos(theta), one
block of samples at a time, so a note costs one cos and one sin per sample
whatever its number of partials, and for all of its waveforms when they are
synthesized as one group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .audio import AudioBuffer

# Waveform names in declaration (and benchmark sort) order.
WAVEFORMS = ("sine", "sawtooth", "triangle")

#: Peak level every benchmark segment is normalized to (-1 dBFS).
BENCH_AMPLITUDE = 10.0 ** (-1.0 / 20.0)

_BENCH_RATE = 44100
_BENCH_DURATION_S = 5.0
_MIDI_LO = 60  # C4
_MIDI_HI = 107  # B7
#: Samples per block of the synthesis recurrence. Every step is elementwise,
#: so no output bit depends on it; a larger block makes fewer numpy calls.
_SYNTH_BLOCK = 32768

#: Most samples a test signal may have (47.5 s at 44.1 kHz), and its highest
#: rate: run-upsamplers' tonal probe is one second at rate/L, upsampled by L.
MAX_SIGNAL_SAMPLES = 1 << 21


def midi_to_freq(note: int) -> float:
    """Equal-tempered frequency of a MIDI note number (A4 = 69 = 440 Hz)."""
    return 440.0 * 2.0 ** ((note - 69) / 12.0)


@dataclass(frozen=True)
class TestSignalSpec:
    """Recipe for one band-limited test signal: a waveform and note of the
    benchmark grid, sampled for a duration at a rate. Every rule a signal
    must meet is checked here, so a spec that exists can be synthesized."""

    __test__ = False  # keep pytest from collecting this despite the Test* name

    waveform: str
    midi_note: int
    duration_s: float = _BENCH_DURATION_S
    sample_rate: int = _BENCH_RATE

    def __post_init__(self) -> None:
        if self.waveform not in WAVEFORMS:
            raise ValueError(f"unknown waveform {self.waveform!r}, expected one of {WAVEFORMS}")
        if not _MIDI_LO <= self.midi_note <= _MIDI_HI:
            raise ValueError(
                f"midi_note {self.midi_note} outside the benchmark range [{_MIDI_LO}, {_MIDI_HI}]"
            )
        # nan fails the comparison; inf, and a finite duration whose sample
        # count overflows a float, fail the product.
        if not (self.duration_s > 0 and math.isfinite(self.duration_s * self.sample_rate)):
            raise ValueError(f"duration_s must be positive with a finite sample count, got {self.duration_s}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.sample_rate > MAX_SIGNAL_SAMPLES:
            raise ValueError(f"sample_rate {self.sample_rate} is above {MAX_SIGNAL_SAMPLES}")
        if sample_count(self.duration_s, self.sample_rate) > MAX_SIGNAL_SAMPLES:
            raise ValueError(f"duration_s {self.duration_s:g} at {self.sample_rate} Hz is above {MAX_SIGNAL_SAMPLES} samples")
        # A note at or above the partial cap would be synthesized as silence
        # and score as perfect.
        cap = harmonic_cap_hz(self.sample_rate, sample_count(self.duration_s, self.sample_rate))
        if self.f0_hz >= cap:
            raise ValueError(
                f"fundamental {self.f0_hz:.2f} Hz is not below the partial cap {cap:.2f} Hz "
                f"(Nyquist {self.sample_rate / 2:.1f} Hz less max(50 Hz, 4 bins)), so it has no partial"
            )

    @property
    def f0_hz(self) -> float:
        return midi_to_freq(self.midi_note)


def sample_count(duration_s: float, sample_rate: int) -> int:
    """Length of a duration_s signal at sample_rate: that of every synthesized
    signal, and of every benchmark WAV."""
    return int(round(duration_s * sample_rate))


def harmonic_cap_hz(sample_rate: int, n_samples: int) -> float:
    """Highest frequency a generated partial may occupy.

    Partials are kept at least max(50 Hz, 4 analysis bins) below Nyquist so
    that legitimate harmonics and fold products never share an analysis band.
    """
    bin_hz = sample_rate / n_samples
    return sample_rate / 2.0 - max(50.0, 4.0 * bin_hz)


def harmonic_numbers(waveform: str, k_max: int) -> np.ndarray:
    """Harmonic numbers k <= k_max of the waveform's Fourier law: sine has
    k = 1 alone, sawtooth every k, triangle the odd k."""
    if waveform == "sine":
        return np.arange(1, min(k_max, 1) + 1)
    if waveform not in WAVEFORMS:
        raise ValueError(f"unknown waveform {waveform!r}")
    return np.arange(1, k_max + 1, 1 if waveform == "sawtooth" else 2)


def partial_series(waveform: str, f0: float, cap_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic numbers and signed Fourier amplitudes below ``cap_hz``.

    sine:     a_1 = 1
    sawtooth: a_k = (2/pi) * (-1)^(k+1) / k
    triangle: a_k = (8/pi^2) * (-1)^((k-1)/2) / k^2   for odd k
    """
    ks = harmonic_numbers(waveform, int(math.ceil(cap_hz / f0)) - 1)  # strict: none exactly at the cap
    if ks.size == 0:
        return ks, np.array([])
    if waveform == "sine":
        amps = np.array([1.0])
    elif waveform == "sawtooth":
        amps = (2.0 / np.pi) * np.where(ks % 2 == 1, 1.0, -1.0) / ks
    else:
        amps = (8.0 / np.pi**2) * np.where(ks % 4 == 1, 1.0, -1.0) / ks.astype(float) ** 2
    return ks, amps


def partials(spec: TestSignalSpec) -> tuple[np.ndarray, np.ndarray]:
    """The harmonic numbers and amplitudes gen_bandlimited sums for spec: its
    law's partials below harmonic_cap_hz at its own rate and length."""
    n = sample_count(spec.duration_s, spec.sample_rate)
    return partial_series(spec.waveform, spec.f0_hz, harmonic_cap_hz(spec.sample_rate, n))


def gen_bandlimited(spec: TestSignalSpec | Sequence[TestSignalSpec]) -> AudioBuffer | list[AudioBuffer]:
    """Additive synthesis of one test signal, peak-normalized to BENCH_AMPLITUDE.

    The partial sum x = sum_k a_k sin(k theta), theta = 2 pi f0 t, is evaluated
    by Clenshaw's recurrence (Clenshaw 1955): starting from b_{K+1} = b_{K+2}
    = 0, b_k = a_k + 2 cos(theta) b_{k+1} - b_{k+2} for k = K..1, and x = b_1
    sin(theta). Each block of samples costs one cos and one sin per sample
    plus three array passes per harmonic index, where a sum of sines would
    cost one large-argument sin per partial. A sine is exactly
    sin(2 pi f0 t) before normalization.

    Given a sequence of specs that share one note, duration and rate
    (ValueError otherwise) in place of one spec, it returns their signals in
    spec order. Each block's theta, 2 cos(theta) and sin(theta) are then
    computed once for all of them, and every spec runs its own recurrence on
    them with the same operations in the same order, so a signal is
    bit-identical whichever group it is synthesized in. gen-bench
    synthesizes each note's waveforms as one group.

    Deterministic: equal specs produce bit-identical buffers.
    """
    one = isinstance(spec, TestSignalSpec)
    specs = [spec] if one else list(spec)
    if len({(s.midi_note, s.duration_s, s.sample_rate) for s in specs}) != 1:
        raise ValueError("gen_bandlimited takes one spec, or one or more specs of one note, duration and sample rate")
    f0, rate = specs[0].f0_hz, specs[0].sample_rate
    n = sample_count(specs[0].duration_s, rate)
    coefs = []
    for s in specs:
        ks, amps = partials(s)  # never empty: TestSignalSpec refuses a note without a partial
        coef = np.zeros(ks[-1] + 1)
        coef[ks] = amps
        coefs.append(coef)
    xs = [np.empty(n) for _ in specs]
    size = min(n, _SYNTH_BLOCK)
    bufs = [np.empty(size) for _ in range(4)]
    for lo in range(0, n, size):
        sin_t, two_cos, *work = (buf[: min(size, n - lo)] for buf in bufs)
        np.divide(np.arange(lo, lo + sin_t.size, dtype=float), rate, out=sin_t)
        sin_t *= 2.0 * np.pi * f0
        np.cos(sin_t, out=two_cos)
        two_cos *= 2.0
        np.sin(sin_t, out=sin_t)
        for coef, x in zip(coefs, xs):
            out = x[lo : lo + sin_t.size]  # also the recurrence's third buffer
            b, b_next, tmp = *work, out
            b.fill(0.0)
            b_next.fill(0.0)
            for a in coef[:0:-1]:
                # b holds b_{k+1} and b_next b_{k+2}; tmp becomes b_k.
                np.multiply(two_cos, b, out=tmp)
                tmp -= b_next
                if a:
                    tmp += a
                b, b_next, tmp = tmp, b, b_next
            np.multiply(b, sin_t, out=out)
    for x in xs:
        # The peak of |x| without an |x| temporary the length of the signal.
        peak = max(x.max(), -x.min())
        if peak > 0.0:
            x *= BENCH_AMPLITUDE / peak
    signals = [AudioBuffer(x, rate) for x in xs]
    return signals[0] if one else signals


def gen_sweep(f_start: float, f_end: float, duration_s: float, sample_rate: int) -> AudioBuffer:
    """Exponential sine sweep with continuous phase, unit amplitude.

    Instantaneous frequency is f_start * (f_end/f_start)^(t/T); the phase is
    its exact integral, so the sweep starts at f_start and ends at f_end.
    A constant-frequency request degenerates to a plain sine (phase 0).
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    for f in (f_start, f_end):
        if not 0.0 < f < sample_rate / 2.0:
            raise ValueError(f"sweep frequency {f} Hz outside (0, Nyquist)")
    n = sample_count(duration_s, sample_rate)
    t = np.arange(n) / sample_rate
    log_ratio = math.log(f_end / f_start)
    if abs(log_ratio) < 1e-12:
        phase = 2.0 * np.pi * f_start * t
    else:
        phase = (2.0 * np.pi * f_start * duration_s / log_ratio) * (
            np.exp(t * (log_ratio / duration_s)) - 1.0
        )
    return AudioBuffer(np.sin(phase), sample_rate)


def benchmark_notes() -> list[int]:
    """MIDI notes of the benchmark grid: 48 log-uniform frequencies spanning
    C4..B7 endpoints included -- which is exactly the semitone grid 60..107."""
    return list(range(_MIDI_LO, _MIDI_HI + 1))


def benchmark_specs() -> list[TestSignalSpec]:
    """The benchmark grid, sorted by (waveform order, note) ascending: the
    signals gen-bench writes, in bench.csv's order."""
    return [TestSignalSpec(waveform, note) for waveform in WAVEFORMS for note in benchmark_notes()]
