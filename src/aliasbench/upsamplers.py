"""The four upsampling layers under study.

Every layer is one path: zero-interlace by L, filter with an FIR kernel, then
y * gain + bias. Only the kernel, gain and bias differ (upsampler_kernel),
and they describe the layer completely. conv_transpose: seeded random weights
and bias -- the aliasing- and tonal-artifact-prone baseline. linear/nearest:
the fixed short kernels of classic interpolation, which attenuate images only
mildly. aa_resample: a proper low-pass, which suppresses images to the
filter's stopband; with noise_prior, a seeded high-pass path fills the empty
high band, and being linear and time-invariant it is part of the same kernel.

All layers output length L * len(input) at rate L * input rate, and all
randomness is drawn from counter-based streams keyed by (seed, domain), so
results never depend on evaluation order.

Being linear, a layer's analysed spectrum superposes. With x^ the input
zero-interlaced by L, the output is y[t] = g sum_m K[m] x^[t + c - m] + b for
a kernel K centred on tap c, so the spectrum measure_ahr takes of
w y[E : E+n] (w the analysis window, E the edge trim) is, in exact
arithmetic,

    g sum_m K[m] S_{c-m} + b W,

where S_s is the spectrum of w x^[E+s : E+s+n] and W that of w. The upsampler
table measures every layer as a LinearOutput, which reads its spectrum on
the signal's band plan. A superposed one is never formed: it reads the sum
above, and the plan keeps each S_s and W for every layer of the signal.
ConvTranspose's 2L taps at centre 0 read the shifts 0..-(2L-1), and
NearestInterp's hold kernel reads a subset of them; superposed_layers says
when those shared spectra pay for themselves. LinearInterp's triangle reads
shifts above 0, and AntiAliasedResample's kernel is long, so those are
formed, in band_spectrum, and dropped once read.

Every spectrum is read as its residue classes mod SPLIT (BandPlan.read), each
an FFT a quarter as long. A shifted frame is zero off one residue class mod
L, so it fills only SPLIT / gcd(L, SPLIT) of them, and only those are built
and transformed. In floating point these sums add in another order than the
rfft of the formed buffer, so an AHR can differ in its last bits; the
tables, at 6 decimals, were equal on every grid compared, which is
measured, not guaranteed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping

import numpy as np

from .audio import AudioBuffer
from .filters import FirKernel, design_fir, interp_kernel, interpolate, scale_in_place
from .metrics import (
    BAND_HALF_WIDTH_BINS,
    EDGE_DISCARD,
    SPLIT,
    BandPlan,
    alias_lines,
    band_mask,
    estimate_spectrum,
    kaiser,
    ratio_db,
)

UPSAMPLER_KINDS = ("conv_transpose", "linear", "nearest", "aa_resample")

#: Tap count of the seeded noise-prior convolution.
_PRIOR_CONV_TAPS = 7

# Spawn-key domains for the per-layer random streams.
_DOM_CONV_WEIGHTS = 0
_DOM_PRIOR_CONV = 1
_DOM_PRIOR_GAINS = 2


@dataclass(frozen=True)
class UpsamplerSpec:
    """Which upsampling layer, its factor, and what it draws at random.

    conv_transpose has 2L seeded taps; aa_resample filters with
    design_fir(L), which depends on L alone.
    """

    kind: str
    factor: int = 2
    seed: int = 0  # conv_transpose, and aa_resample with noise_prior
    noise_prior: bool = False  # aa_resample only
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in UPSAMPLER_KINDS:
            raise ValueError(f"unknown upsampler kind {self.kind!r}, expected one of {UPSAMPLER_KINDS}")
        if self.factor < 2:
            raise ValueError("upsampling factor must be >= 2")
        # A setting the kind ignores would change config_hash but no output.
        if self.noise_prior and self.kind != "aa_resample":
            raise ValueError(f"noise_prior applies to aa_resample only, not {self.kind}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.seed and not (self.kind == "conv_transpose" or self.noise_prior):
            raise ValueError(f"seed applies to conv_transpose and to aa_resample with noise_prior only, not {self.kind}")
        if not self.name:
            object.__setattr__(self, "name", self.kind)


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based (Philox) generator split from seed by a spawn key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def conv_transpose_weights(spec: UpsamplerSpec) -> tuple[np.ndarray, float]:
    """Seeded weights (2L taps) and bias: uniform in +-1/sqrt(2L)."""
    k = 2 * spec.factor
    bound = 1.0 / math.sqrt(k)
    rng = _stream(spec.seed, _DOM_CONV_WEIGHTS)
    weights = rng.uniform(-bound, bound, size=k)
    bias = float(rng.uniform(-bound, bound))
    return weights, bias


def upsampler_kernel(spec: UpsamplerSpec) -> tuple[FirKernel, float, float]:
    """The FIR that follows zero-interlacing in this layer, its gain and bias.

    conv_transpose: the seeded weights as a causal kernel (y[m] = sum_j
    x[j] w[m - L j] + b) plus the seeded bias, which turns into the tonal
    artifact once a later stage folds it across band edges; the cyclic
    polyphase gain mismatch is what creates the spectral images.
    linear/nearest: the triangle and hold kernels of classic interpolation.
    aa_resample: the resampling low-pass h at cutoff 1/L, gain-compensated by
    L. With noise_prior, a deterministic noise-like path fills the otherwise
    empty high band: the kernel is L*h, padded by 3 zeros on each side, plus
    g_prior * conv(t7, h_hp), with t7 the 7 seeded taps centred on the middle
    one and h_hp = design_fir(L, True); the gain is g_mix. Both gains are
    seeded unit-mean draws.
    """
    if spec.kind == "conv_transpose":
        weights, bias = conv_transpose_weights(spec)
        return FirKernel(weights, 0), 1.0, bias
    if spec.kind == "linear":
        return interp_kernel("linear", spec.factor), 1.0, 0.0
    if spec.kind == "nearest":
        return interp_kernel("hold", spec.factor), 1.0, 0.0
    h = design_fir(spec.factor)
    if not spec.noise_prior:
        return h, float(spec.factor), 0.0
    bound = 1.0 / math.sqrt(_PRIOR_CONV_TAPS)
    t7 = _stream(spec.seed, _DOM_PRIOR_CONV).uniform(-bound, bound, size=_PRIOR_CONV_TAPS)
    g_mix, g_prior = _stream(spec.seed, _DOM_PRIOR_GAINS).uniform(0.5, 1.5, size=2)
    pad = _PRIOR_CONV_TAPS // 2
    taps = g_prior * np.convolve(t7, design_fir(spec.factor, True).taps)
    taps[pad : pad + len(h)] += spec.factor * h.taps
    return FirKernel(taps, pad + h.center), float(g_mix), 0.0


def apply_upsampler(x: AudioBuffer, spec: UpsamplerSpec, kernel: tuple[FirKernel, float, float] | None = None) -> AudioBuffer:
    """Zero-interlace by L, filter with the layer's kernel, then y * gain + bias.
    kernel is upsampler_kernel(spec), computed here when not given."""
    h, gain, bias = kernel or upsampler_kernel(spec)
    return scale_in_place(interpolate(x, h, spec.factor), gain, bias,
                          f"{spec.name}: output overflowed applying gain {gain} and bias {bias}")


def kernel_shifts(h: FirKernel) -> set[int]:
    """The shifts s = c - m of x^ that a kernel reads, over its taps m that are not 0."""
    return {h.center - int(m) for m in np.flatnonzero(h.taps)}


def superposed_layers(kernels: Mapping[UpsamplerSpec, tuple[FirKernel, float, float]]) -> set[UpsamplerSpec]:
    """The layers to measure off one set of shared spectra per signal, or
    none, given each layer's upsampler_kernel.

    The basis spans the shifts 0..-(2L-1), those a causal kernel of 2L taps
    reads (ConvTranspose's), and a layer fits in it when its kernel reads no
    other shift. The rule counts one spectrum per signal for each distinct
    shift its layers read, plus one for the window when one of them has a
    bias, and takes the layers that fit when they are at least as many as
    those spectra; each layer taken is not formed. The README gives the CLI
    timings on both sides of that line.

    Every spectrum is read in residue classes mod SPLIT (BandPlan.read): a
    shifted spectrum takes SPLIT / gcd(L, SPLIT) quarter-length FFTs (2 at
    L = 2, 1 at L = 4, 4 at L = 3), the window's 4, and a formed layer its
    FIR pass and 4. Those timings were taken with one full-length FFT per
    spectrum, and the rule is kept as they drew it.
    """
    fits, shifts, bias = set(), set(), False
    for spec, (h, _, b) in kernels.items():
        read = kernel_shifts(h)
        if all(-2 * spec.factor < s <= 0 for s in read):
            fits.add(spec)
            shifts |= {(spec.factor, s) for s in read}
            bias |= b != 0.0
    return fits if len(fits) >= len(shifts) + bias else set()


@dataclass(frozen=True, eq=False)
class LinearOutput:
    """apply_upsampler(source, spec), as measure_ahr reads it: it has the
    len and sample_rate of that buffer, and measure_ahr reads its spectrum
    through band_spectrum. A superposed output is never formed; any other is
    formed there, and dropped once read. kernel is upsampler_kernel(spec),
    computed when not given."""

    source: AudioBuffer
    spec: UpsamplerSpec
    superposed: bool = True
    kernel: tuple[FirKernel, float, float] | None = None

    def __len__(self) -> int:
        return self.spec.factor * len(self.source)

    @property
    def sample_rate(self) -> int:
        return self.spec.factor * self.source.sample_rate

    def band_spectrum(self, plan: BandPlan) -> np.ndarray:
        """The output's spectrum on the plan's bins. A formed output is read
        in residue classes (BandPlan.read_windowed). A superposed one is
        g sum_m K[m] S_{c-m} + b W; each S_s and W is computed on its first
        use and kept by the plan (BandPlan.shared_spectrum) for every layer
        measured on it."""
        if not self.superposed:
            return plan.read_windowed(apply_upsampler(self.source, self.spec, self.kernel).samples)
        h, gain, bias = self.kernel or upsampler_kernel(self.spec)
        out = np.zeros(plan.bins.size, dtype=complex)
        for m in np.flatnonzero(h.taps):
            s = h.center - int(m)
            out += h.taps[m] * plan.shared_spectrum(s, partial(self._shifted_classes, plan, s))
        out *= gain
        if bias:
            w = kaiser(plan.data_len)
            out += bias * plan.shared_spectrum("window", lambda: (w[p::SPLIT] for p in range(SPLIT)))
        return out

    def _shifted_classes(self, plan: BandPlan, shift: int) -> Iterator[np.ndarray | None]:
        """The residue classes mod SPLIT (BandPlan.read) of the frame
        w x^[E+shift : E+shift+n], written only where x^ holds an input
        sample: at frame index t, x^[i] with i = E + shift + t is x[i / L]
        where L divides i and 0 <= i < L len(x), and 0 elsewhere. Those t
        are t0 + L a, so class p holds none where p != t0 mod gcd(L, SPLIT),
        and it is None there: 2 classes are read at L = 2 and 1 at L = 4."""
        L, x = self.spec.factor, self.source.samples
        n, first = plan.data_len, plan.edge_trim + shift
        lo = max(0, -first)
        t0 = lo + (-(first + lo)) % L
        hi = min(n, L * x.size - first)
        step = L * SPLIT // math.gcd(L, SPLIT)  # t's period in both L and SPLIT
        w = kaiser(n)
        for p in range(SPLIT):
            t = next((t for t in range(t0, t0 + step, L) if t % SPLIT == p), hi)
            if t >= hi:
                yield None
                continue
            count = -(-(hi - t) // step)
            j = (first + t) // L
            samples = np.zeros(plan.fft_size // SPLIT)
            np.multiply(w[t:hi:step], x[j :: step // L][:count], out=samples[t // SPLIT :: step // SPLIT][:count])
            yield samples


def image_frequencies(f0: float, factor: int, input_rate: float, ks) -> tuple[float, ...]:
    """Image (alias) frequencies an upsampler by factor creates from the
    partials k*f0 (k in ks) of its input: metrics.alias_lines from
    input_rate to factor * input_rate. For partials below the input Nyquist
    these are the distinct |n * Fs_in +- k * f0|, n = 1..L-1, within
    (0, L*Fs_in/2], in ascending order. An image that lands on a harmonic
    band is kept here; measure_ahr drops it.
    """
    if not 0 < f0 < input_rate / 2.0:
        raise ValueError("f0 must lie below the input Nyquist")
    if factor < 2:
        raise ValueError("factor must be >= 2")
    return alias_lines(f0, ks, input_rate, factor * input_rate)


def tonal_probe(output: AudioBuffer, input_rate: int, edge_trim: int = EDGE_DISCARD) -> float:
    """Tonal-artifact level (dB) in a layer's output for constant input.

    Sums band energy at every multiple of the input rate up to the output
    Nyquist and reports it relative to total output power. A bias-carrying
    ConvTranspose shows strong lines; a resampling upsampler stays at floor.
    """
    s = estimate_spectrum(output, edge_trim=edge_trim)
    hw = BAND_HALF_WIDTH_BINS * s.resolution_hz
    out_nyq = output.sample_rate / 2.0
    mask, _ = band_mask(s.bin_freqs, input_rate * np.arange(1, int(out_nyq // input_rate) + 1), hw)
    return ratio_db(s.band_power(mask), s.total_power)
