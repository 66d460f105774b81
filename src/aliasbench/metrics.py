"""Spectral analysis and the aliasing-to-harmonic ratio (AHR).

AHR = 10 log10(E_alias / E_harmonic) in dB; more negative is better. Energies
are collected from a single long Kaiser-windowed FFT in narrow bands around
the expected harmonic and alias line positions, which are computed
analytically from the test signal's fundamental (never detected from the
data). One AhrContext per signal holds them: harmonics are the k*f0 below
its input Nyquist, and aliases are its alias_freqs. One rule, alias_lines,
builds the aliases of both module families. A module fed a periodic signal at
Fs_in and writing at Fs_out = L*Fs_in can put energy only on the lattice
n*Fs_in +- (k*f0 mod Fs_in), n = 0..L; what differs is which k it carries:

* an activation (activation_context) carries every k <= K_CAP at L = 1, so
  its aliases are the folds of k*f0 at and above Nyquist;
* an upsampler (bench.image_context) is linear, so it carries only the
  partials its input holds, and its aliases are their images
  |n*Fs_in +- k*f0| (upsamplers.image_frequencies).

Every band is read through one routine, band_mask: measure_ahr,
band_energy and upsamplers.tonal_probe use it alike. Every dB level is
clamped by one, ratio_db. The band rule of measure_ahr:

* a band covers the bins within BAND_HALF_WIDTH_BINS resolution bins of its
  line, and bands are combined as a bin mask, so overlapping bands count once;
* a band within two half-widths of DC is skipped;
* an alias band that touches a harmonic band is dropped.

The measurement is therefore insensitive to output gain and (for signals
periodic in the analysis frame) to time shifts.

A spectrum is the rfft of one windowed frame. Bin powers are computed only
where the bands are, by the same per-bin operations in the same order as the
full power spectrum, so each band sum keeps its bits.

measure_ahr reads its bands through a BandPlan: one bin grid, its harmonic
and alias bins and their band counts, built on a signal's first measure and
kept on its AhrContext, which serves that one output grid. Every AHR
spectrum is read through BandPlan.read: the frame's residue classes mod
SPLIT, each one rfft of fft_size / SPLIT points, folded onto the plan's bins
and summed with per-plan twiddles (the decimation-in-time split of Cooley
and Tukey, evaluated on those bins alone). A class known to be zero is not
transformed. An AudioBuffer is read as its windowed frame; an output never
formed (upsamplers.LinearOutput) from spectra the plan keeps for its source.
estimate_spectrum takes every bin in one rfft, for the tonal probe.

The analysis, ANALYSIS, is a periodic Kaiser window at beta = 5 pi with no
zero padding. beta = pi NW is Kaiser's approximation of the NW = 5 Slepian
window: its main lobe spans about +-5.1 resolution bins, which a 6-bin band
covers, and its sidelobes stay below -119 dB, so an alias band a few bins
from a strong harmonic reads aliasing, not that harmonic's leakage.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Callable, ClassVar, Iterable

import numpy as np

from .audio import AudioBuffer, NumericError
from .configio import atomic_write_bytes

#: AHR clamp: numerically silent alias bands report this instead of -inf.
FLOOR_DB = -120.0

#: The AHR analysis, recorded as is in both table commands' manifests: the
#: window and its Kaiser beta (5 pi), the band half-width in resolution bins,
#: and the zero-padding factor (nfft is the next power of two >= zero_pad * n).
ANALYSIS = MappingProxyType({"window": "kaiser", "beta": 5.0 * math.pi, "half_width_bins": 6, "zero_pad": 1})

#: Band half-width in analysis-resolution bins: covers the Kaiser main lobe
#: (+-sqrt(1 + (beta/pi)^2) = +-5.1 bins).
BAND_HALF_WIDTH_BINS = ANALYSIS["half_width_bins"]

#: Samples discarded at each edge before any benchmark spectral analysis.
EDGE_DISCARD = 8192

#: Fewest samples a spectrum is estimated from, after edge trimming.
MIN_ANALYSIS_SAMPLES = 1024

#: Hard cap on harmonic indices considered anywhere in the bookkeeping.
K_CAP = 512

#: Residue classes mod SPLIT that BandPlan.read transforms apart, each in an
#: FFT SPLIT times shorter than the spectrum's.
SPLIT = 4


def _bin_power(spec: np.ndarray, dc: bool, nyquist: bool, fft_size: int, data_len: int) -> np.ndarray:
    """|X|^2 2 / (nfft sum(w^2)) of the bins spec of an nfft-point spectrum
    of data_len windowed samples, halved again at DC and Nyquist where spec
    starts or ends with them (nfft is even)."""
    # Finite samples near the float maximum overflow here; ratio_db turns
    # the non-finite band energies into one NumericError, so numpy need
    # not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(spec) ** 2
        power *= 2.0
        if dc:
            power[0] /= 2.0
        if nyquist:
            power[-1] /= 2.0
        power /= fft_size * kaiser_energy(data_len)
    return power


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """One-sided spectrum of the windowed frame, kept as its rfft. Its bin
    powers sum to the windowed mean power, and are computed where they are
    read: band_power(mask) equals power[mask].sum() in every bit. The bin
    grid is built when it is first read."""

    spectrum: np.ndarray
    fft_size: int
    data_len: int
    sample_rate: int

    @cached_property
    def bin_freqs(self) -> np.ndarray:
        return np.fft.rfftfreq(self.fft_size, d=1.0 / self.sample_rate)

    @property
    def resolution_hz(self) -> float:
        """Analysis resolution: rate over the *unpadded* data length."""
        return self.sample_rate / self.data_len

    @property
    def power(self) -> np.ndarray:
        """Power of every bin."""
        return _bin_power(self.spectrum, True, True, self.fft_size, self.data_len)

    def band_power(self, mask: np.ndarray) -> float:
        """Summed power of the bins of a boolean mask over the bins."""
        return float(_bin_power(self.spectrum[mask], bool(mask[0]), bool(mask[-1]),
                                self.fft_size, self.data_len).sum())

    @property
    def total_power(self) -> float:
        return float(self.power.sum())


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


@lru_cache(maxsize=16)
def hann(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of length n, read-only and cached per
    length; bit-identical to scipy.signal.windows.hann(n, sym=False),
    including its length-1 window [1.0]."""
    if n == 1:
        w = np.ones(1)
    else:
        w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])
    w.flags.writeable = False
    return w


#: Samples per block of kaiser's build: np.i0 holds about a dozen block-sized
#: temporaries, so a block costs about 1.5 MB however long the window.
KAISER_BLOCK = 16384


@lru_cache(maxsize=16)
def kaiser(n: int) -> np.ndarray:
    """Periodic (DFT-even) Kaiser window of length n at ANALYSIS's beta,
    read-only and cached per length.

    It is built in blocks of KAISER_BLOCK samples into one array, each block
    by np.kaiser's own elementwise expression in its order, so it equals
    np.kaiser(n + 1, beta)[:-1] in every bit. np.kaiser evaluates np.i0 on
    the whole window at once, and its temporaries (14.8 MiB beside a
    signal's 1.56 MiB window) would set the process's peak memory.
    """
    beta = ANALYSIS["beta"]
    alpha = n / 2.0
    scale = np.i0(beta)
    w = np.empty(n)
    for start in range(0, n, KAISER_BLOCK):
        k = np.arange(start, min(start + KAISER_BLOCK, n), dtype=np.float64)
        w[start : start + k.size] = np.i0(beta * np.sqrt(1 - ((k - alpha) / alpha) ** 2.0)) / scale
    w.flags.writeable = False
    return w


@lru_cache(maxsize=16)
def kaiser_energy(n: int) -> float:
    """sum(w^2) of kaiser(n), the spectrum's normalization, cached per length."""
    w = kaiser(n)
    return float(np.sum(w * w))


def _frame_length(length: int, edge_trim: int) -> int:
    """Samples analysed of a signal of length samples, edge_trim cut from each edge."""
    if edge_trim < 0:
        raise ValueError("edge_trim must be >= 0")
    n = max(0, length - 2 * edge_trim)
    if n < MIN_ANALYSIS_SAMPLES:
        raise ValueError(f"need at least {MIN_ANALYSIS_SAMPLES} samples after trimming, got {n}")
    return n


def estimate_spectrum(x: AudioBuffer, edge_trim: int = 0) -> SpectrumEstimate:
    """Single-frame spectrum of the edge-trimmed signal: one rfft, whose bin
    powers SpectrumEstimate computes where they are read.

    The frame is windowed with kaiser(n), zero-padded only up to the next
    power of two >= its length (ANALYSIS's zero_pad is 1), and normalized so
    the bin powers sum to the window-weighted mean signal power,
    sum((x w)^2) / sum(w^2): a unit-amplitude sine therefore integrates to
    ~0.5 regardless of padding.
    """
    n = _frame_length(len(x), edge_trim)
    nfft = _next_pow2(ANALYSIS["zero_pad"] * n)
    with np.errstate(over="ignore", invalid="ignore"):
        spec = np.fft.rfft(x.samples[edge_trim : edge_trim + n] * kaiser(n), n=nfft)
    return SpectrumEstimate(spec, nfft, n, x.sample_rate)


def ratio_db(num: float, den: float) -> float:
    """10 log10(num / den) clamped below at FLOOR_DB: the one clamp of every
    level this package reports. A silent numerator or denominator, or a
    quotient that underflows, reads FLOOR_DB. A non-finite energy means the
    spectrum overflowed, and raises NumericError rather than reading as a
    score."""
    if not (math.isfinite(num) and math.isfinite(den)):
        raise NumericError(f"non-finite band energy ({num} / {den}): the spectrum overflowed")
    if num <= 0.0 or den <= 0.0 or num / den == 0.0:
        return FLOOR_DB
    return max(FLOOR_DB, 10.0 * math.log10(num / den))


def band_mask(bin_freqs: np.ndarray, centres, half_width: float, exclude=None) -> tuple[np.ndarray, int]:
    """Mask over the bin grid bin_freqs of the bands centre +- half_width
    (clipped to the grid) and the number of bands in it. Empty bands, and
    bands touching a bin of the exclude mask, are dropped; overlapping bands
    count each bin once. The work grows with bands x band width, not with the
    spectrum length."""
    c = np.asarray(centres, dtype=float)
    lo = np.searchsorted(bin_freqs, c - half_width, side="left")
    hi = np.searchsorted(bin_freqs, c + half_width, side="right")
    bins = lo[:, None] + np.arange((hi - lo).max(initial=0))
    inside = bins < hi[:, None]
    keep = hi > lo
    if exclude is not None:
        keep &= ~(inside & exclude[np.minimum(bins, bin_freqs.size - 1)]).any(axis=1)
    mask = np.zeros(bin_freqs.size, dtype=bool)
    mask[bins[inside & keep[:, None]]] = True
    return mask, int(keep.sum())


def band_energy(s: SpectrumEstimate, center_hz: float, half_width_hz: float) -> float:
    """Sum of bin powers over [center - hw, center + hw] (clipped to the grid)."""
    if not (math.isfinite(center_hz) and center_hz >= 0):
        raise ValueError(f"band center must be finite and >= 0, got {center_hz}")
    if not half_width_hz >= 0:
        raise ValueError(f"half width must be >= 0, got {half_width_hz}")
    mask, _ = band_mask(s.bin_freqs, [center_hz], half_width_hz)
    return s.band_power(mask)


@dataclass(frozen=True)
class AhrContext:
    """AHR bookkeeping for one signal: harmonics are the k*f0 below
    input_rate / 2, and alias_freqs (in Hz, at the output rate) are the
    lines only aliasing can fill. plan is the signal's band plan (band_plan),
    so a context lives as long as its signal is measured."""

    input_rate: int
    alias_freqs: tuple[float, ...]
    plan: BandPlan | None = field(default=None, init=False, compare=False, repr=False)
    k_cap: ClassVar[int] = K_CAP

    def band_plan(self, f0: float, length: int, rate: int, edge_trim: int) -> "BandPlan":
        """The plan of an output of length samples at rate, built on the
        first call and kept. A context serves one output grid: a call for
        another f0, length, rate or edge_trim raises ValueError."""
        grid = (f0, length, rate, edge_trim)
        if self.plan is None:
            object.__setattr__(self, "plan", BandPlan.build(f0, self, length, rate, edge_trim))
        if self.plan.grid != grid:
            raise ValueError(f"a context serves one output grid (f0, length, rate, edge_trim): "
                             f"{self.plan.grid}, not {grid}")
        return self.plan


def alias_lines(f0: float, ks, input_rate: float, output_rate: float) -> tuple[float, ...]:
    """The lines only aliasing can fill when a module at output_rate, a whole
    multiple L of input_rate, carries the partials k*f0 (k in ks) of a signal
    sampled at input_rate.

    Each partial's residue r = k*f0 mod input_rate sits at every
    n*input_rate +- r, n = 0..L. The lines are the distinct ones within
    (0, output_rate / 2], in ascending order, less the partials themselves
    (n = 0 where k*f0 < input_rate / 2). A line on a harmonic is kept here;
    measure_ahr drops its band.
    """
    if input_rate <= 0 or output_rate < input_rate or output_rate % input_rate:
        raise ValueError(f"output rate {output_rate} is not a whole multiple of input rate {input_rate}")
    kf = np.asarray(ks, dtype=float) * f0
    r = np.mod(kf, input_rate)
    n_fs = np.arange(int(output_rate // input_rate) + 1)[:, None] * input_rate
    lines = np.concatenate([n_fs - r, n_fs + r])
    keep = (lines > 0.0) & (lines <= output_rate / 2.0)
    keep[n_fs.shape[0]] &= kf >= input_rate / 2.0  # row n = 0, +r: the partial itself
    return tuple(np.unique(lines[keep]).tolist())


def activation_context(f0: float, rate: int) -> AhrContext:
    """Context of a nonlinearity at rate: it carries every k <= K_CAP, so its
    aliases are the folds of the k*f0 at and above Nyquist."""
    return AhrContext(rate, alias_lines(f0, np.arange(1, K_CAP + 1), rate, rate))


@dataclass(frozen=True)
class AhrMeasurement:
    ahr_db: float
    harmonic_bands: int
    alias_bands: int
    harmonic_energy: float
    alias_energy: float


@dataclass(eq=False)
class BandPlan:
    """Where measure_ahr reads every spectrum of one grid for one signal:
    the grid (fft_size points over data_len windowed samples, edge_trim cut
    from each edge of the output), its harmonic bins and then its alias
    bins, each ascending, their band counts, and the grid (f0, length,
    rate, edge_trim) it was built for. spectra keeps the spectra its
    signal's outputs share, on its bins (shared_spectrum), and sharer the
    one (source, factor) they are of, so a key names a spectrum of it alone."""

    fft_size: int
    data_len: int
    edge_trim: int
    bins: np.ndarray
    harmonic_bins: int
    harmonic_bands: int
    alias_bands: int
    grid: tuple = ()
    spectra: dict = field(default_factory=dict, repr=False)
    sharer: tuple = field(default=(), repr=False)

    @classmethod
    def build(cls, f0: float, context: AhrContext, length: int, rate: int, edge_trim: int) -> "BandPlan":
        """The bands measure_ahr reads on an output of length samples at rate:
        a band covers the bins within BAND_HALF_WIDTH_BINS resolution bins of
        its line, a band within two half-widths of DC is skipped, and an
        alias band that touches a harmonic band is dropped."""
        n = _frame_length(length, edge_trim)
        nfft = _next_pow2(ANALYSIS["zero_pad"] * n)
        hw = BAND_HALF_WIDTH_BINS * (rate / n)

        kf = np.arange(1, K_CAP + 1) * f0
        harm = kf[kf < context.input_rate / 2.0]
        alias = np.asarray(context.alias_freqs, dtype=float)
        if harm.size == 0:
            raise ValueError(f"empty harmonic set for f0={f0} Hz")

        grid = np.fft.rfftfreq(nfft, d=1.0 / rate)
        hmask, h_count = band_mask(grid, harm[harm > 2.0 * hw], hw)
        amask, a_count = band_mask(grid, alias[alias > 2.0 * hw], hw, exclude=hmask)
        assert not np.any(hmask & amask), "harmonic and alias bands must be disjoint"
        h_bins = np.flatnonzero(hmask)
        return cls(nfft, n, edge_trim, np.concatenate([h_bins, np.flatnonzero(amask)]),
                   h_bins.size, h_count, a_count, (f0, length, rate, edge_trim))

    @cached_property
    def _folds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where read finds bin k in a class's rfft of M = fft_size / SPLIT
        points: at r = k mod M, or conjugated at M - r where r > M/2; and the
        twiddles exp(-2 pi i k p / fft_size) of the classes p = 1..SPLIT-1.
        Built on the plan's bins alone, on the first read."""
        m = self.fft_size // SPLIT
        r = self.bins % m
        mirror = r > m // 2
        turns = np.arange(1, SPLIT)[:, None] * self.bins % self.fft_size
        return np.where(mirror, m - r, r), mirror, np.exp(-2j * np.pi / self.fft_size * turns)

    def read(self, classes: Iterable[np.ndarray | None]) -> np.ndarray:
        """The plan's bins of the fft_size-point rfft of a windowed frame of
        data_len samples, given as its SPLIT residue classes: classes yields,
        for p = 0..SPLIT-1, the frame's samples p::SPLIT (zero-padded to
        fft_size / SPLIT), or None where those are all zero. Each class is one
        rfft of fft_size / SPLIT points, folded onto the bins by conjugate
        symmetry and turned by its twiddle; a None class costs nothing."""
        fold, mirror, twiddles = self._folds
        out = np.zeros(self.bins.size, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for p, samples in enumerate(classes):
                if samples is None:
                    continue
                part = np.fft.rfft(samples, n=self.fft_size // SPLIT)[fold]
                np.conjugate(part, out=part, where=mirror)
                if p:
                    part *= twiddles[p - 1]
                out += part
        return out

    def read_windowed(self, samples: np.ndarray) -> np.ndarray:
        """read of the windowed frame samples[edge_trim : edge_trim + data_len]
        * kaiser(data_len), each class windowed as it is read, so no
        data_len-sample frame is built."""
        w, start, stop = kaiser(self.data_len), self.edge_trim, self.edge_trim + self.data_len
        return self.read(samples[start + p : stop : SPLIT] * w[p::SPLIT] for p in range(SPLIT))

    def shared_spectrum(self, source: AudioBuffer, factor: int, key: int | str,
                        classes: Callable[[], Iterable[np.ndarray | None]]) -> np.ndarray:
        """read(classes()), computed on the first call for key and kept with
        the plan. The kept spectra are of the source and factor of the first
        call: a call for another source (by identity) or factor raises
        ValueError."""
        if not self.sharer:
            self.sharer = (source, factor)
        if self.sharer[0] is not source or self.sharer[1] != factor:
            raise ValueError(f"a context's shared spectra serve one source and factor: source "
                             f"{id(self.sharer[0]):#x} by {self.sharer[1]}, not source {id(source):#x} by {factor}")
        if key not in self.spectra:
            self.spectra[key] = self.read(classes())
        return self.spectra[key]

    def energy(self, spectrum: np.ndarray, harmonic: bool) -> float:
        """Summed power of the harmonic or the alias bins of a spectrum on the
        plan's bins, as SpectrumEstimate.band_power sums them."""
        nh = self.harmonic_bins
        bins, spec = (self.bins[:nh], spectrum[:nh]) if harmonic else (self.bins[nh:], spectrum[nh:])
        dc = bool(bins.size) and bins[0] == 0
        nyquist = bool(bins.size) and bins[-1] == self.fft_size // 2
        return float(_bin_power(spec, dc, nyquist, self.fft_size, self.data_len).sum())


def measure_ahr(
    output,
    f0: float,
    context: AhrContext,
    edge_trim: int = EDGE_DISCARD,
) -> AhrMeasurement:
    """AHR of a processed test signal with full band bookkeeping, read on
    the signal's band plan (context.band_plan): an AudioBuffer as its
    windowed frame, or an output with len and sample_rate that reads its
    own spectrum on the plan's bins (upsamplers.LinearOutput.band_spectrum)."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    plan = context.band_plan(f0, len(output), output.sample_rate, edge_trim)
    if isinstance(output, AudioBuffer):
        spectrum = plan.read_windowed(output.samples)
    else:
        spectrum = output.band_spectrum(plan)
    e_h = plan.energy(spectrum, harmonic=True)
    e_a = plan.energy(spectrum, harmonic=False)
    return AhrMeasurement(ratio_db(e_a, e_h), plan.harmonic_bands, plan.alias_bands, e_h, e_a)


@dataclass(frozen=True)
class SignalAhr:
    waveform: str
    f0_hz: float
    ahr_db: float


@dataclass(frozen=True)
class AhrReport:
    """Per-signal AHRs plus dB-domain aggregates for one module config."""

    module_name: str
    config_hash: str
    per_signal: tuple[SignalAhr, ...]
    per_type_mean_db: dict[str, float]
    overall_mean_db: float


def build_report(module_name: str, config_hash: str, entries: list[SignalAhr]) -> AhrReport:
    """Aggregate per-signal rows; means are taken in the dB domain."""
    if not entries:
        raise ValueError("cannot build a report from zero signals")
    types: dict[str, list[float]] = {}
    for e in entries:
        types.setdefault(e.waveform, []).append(e.ahr_db)
    per_type = {w: float(np.mean(v)) for w, v in types.items()}
    return AhrReport(
        module_name=module_name,
        config_hash=config_hash,
        per_signal=tuple(entries),
        per_type_mean_db=per_type,
        overall_mean_db=float(np.mean([e.ahr_db for e in entries])),
    )


def spectrogram(x: AudioBuffer, frame: int, hop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hann STFT magnitude: (bin_freqs, frame_times, S[frame//2+1, n_frames]).

    Frame count is ceil((len - frame)/hop) + 1; the tail frame is zero-padded.
    Frames are not zero-padded individually, so the row count is frame//2 + 1.
    """
    if hop < 1 or frame < hop:
        raise ValueError("need frame >= hop >= 1")
    n = len(x)
    if n < frame:
        raise ValueError(f"signal shorter than one frame ({n} < {frame})")
    n_frames = -(-(n - frame) // hop) + 1
    padded = np.zeros((n_frames - 1) * hop + frame)
    padded[:n] = x.samples
    w = hann(frame)
    cols = np.empty((frame // 2 + 1, n_frames))
    # Overflow is reported once, as spectrogram_export's NumericError.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_frames):
            seg = padded[i * hop : i * hop + frame]
            cols[:, i] = np.abs(np.fft.rfft(seg * w))
    freqs = np.fft.rfftfreq(frame, d=1.0 / x.sample_rate)
    times = np.arange(n_frames) * hop / x.sample_rate
    return freqs, times, cols


@lru_cache(maxsize=None)
def _db_strings() -> np.ndarray:
    """Every string "%.2f" gives for a dB value within [-100, 0]: those of
    k/100 for k = -10000..0 at index k + 10000, then "-0.00". Built on
    first use, so only sweep pays for it, and kept for the process."""
    return np.array(["%.2f" % (k / 100) for k in range(-10000, 1)] + ["-0.00"], dtype=object)


def db_cells(db: np.ndarray) -> list[str]:
    """"%.2f" % v for every v of db, a 1-D array within [-100, 0].

    Each cell is looked up at k = rint(100 v): "-0.00" where k is 0 and v
    carries a minus sign, else the string of k/100. The product 100 v is
    within 1.1e-12 of its exact value, so it rounds as "%.2f" does, except
    where it lies within 1e-6 of a half-integer (a rounding tie); those cells
    are formatted with "%.2f" one by one.
    """
    strings = _db_strings()
    scaled = db * 100.0
    k = np.rint(scaled)
    index = k.astype(np.intp) + 10000
    index[(k == 0.0) & np.signbit(db)] = strings.size - 1
    cells = strings[index].tolist()
    for i in np.flatnonzero(np.abs(scaled - k) > 0.5 - 1e-6):
        cells[i] = "%.2f" % db[i]
    return cells


def spectrogram_export(x: AudioBuffer, frame: int, hop: int, base_path: str | Path) -> tuple[Path, Path]:
    """Write the log-magnitude STFT as <base>.csv and <base>.pgm.

    dB values are relative to the global maximum, clamped to [-100, 0] and
    mapped linearly to pixel values [0, 255]; silence maps to all-zero pixels.
    The CSV holds each dB value as "%.2f" formats it; the cells are read from
    a table of the 10,002 strings that range allows (db_cells), and a cell
    within 1e-6 of a rounding tie is formatted by "%.2f" itself.
    An overflowed STFT raises NumericError before any file is written.
    PGM rows run from the highest frequency (top) down to DC.
    """
    base = Path(base_path)
    freqs, times, mags = spectrogram(x, frame, hop)
    peak = mags.max()
    if not np.isfinite(peak):
        raise NumericError("non-finite spectrogram magnitude: the spectrum overflowed")
    # The dB table, and then the pixels, are computed in place on mags, by the
    # same float operations in the same order as on fresh arrays, so the
    # bytes written do not change and no table-sized temporary is allocated.
    db = mags
    if peak > 0.0:
        np.maximum(db, peak * 1e-10, out=db)
        db /= peak
        np.log10(db, out=db)
        db *= 20.0
        np.clip(db, -100.0, 0.0, out=db)
    else:
        db.fill(-100.0)

    csv_path = base.with_suffix(".csv")
    pgm_path = base.with_suffix(".pgm")

    # Each row's cells are looked up (db_cells) and the row encoded into one
    # growing buffer. A list of row strings fragments the heap (+2.5 MB peak
    # per sweep), and the whole table's cells at once would hold every one
    # as a Python object.
    csv = io.BytesIO()
    csv.write(("time_s," + ",".join(f"{f:.3f}" for f in freqs) + "\n").encode())
    for t, col in zip(times.tolist(), db.T):
        csv.write(("%.6f,%s\n" % (t, ",".join(db_cells(col)))).encode())
    atomic_write_bytes(csv_path, csv.getvalue())

    db += 100.0
    db /= 100.0
    db *= 255.0
    pixels = np.rint(db, out=db).astype(np.uint8)
    pixels = pixels[::-1, :]  # highest frequency on top
    pgm_header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    atomic_write_bytes(pgm_path, pgm_header + pixels.tobytes())
    return csv_path, pgm_path

