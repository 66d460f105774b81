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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, NumericError
from .filters import FirKernel, design_fir, interp_kernel, interpolate
from .metrics import BAND_HALF_WIDTH_BINS, EDGE_DISCARD, band_mask, estimate_spectrum, ratio_db

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


def apply_upsampler(x: AudioBuffer, spec: UpsamplerSpec) -> AudioBuffer:
    """Zero-interlace by L, filter with the layer's kernel, then y * gain + bias."""
    h, gain, bias = upsampler_kernel(spec)
    y = interpolate(x, h, spec.factor)
    # In place: y's array is this call's own. A finite gain and bias can still
    # overflow it near the float max, so overflow raises here instead of a
    # second finite check, which a new buffer would cost with two more passes.
    out = y.samples
    try:
        with np.errstate(over="raise"):
            out *= gain
            out += bias
    except FloatingPointError as exc:
        raise NumericError(f"{spec.name}: output overflowed applying gain {gain} and bias {bias}") from exc
    return y


def image_frequencies(f0: float, factor: int, input_rate: float, ks) -> tuple[float, ...]:
    """Image (alias) frequencies an upsampler can create from k*f0 partials.

    The distinct values of |n * Fs_in +- k * f0| for n = 1..L-1 and k in ks,
    restricted to (0, L*Fs_in/2], in ascending order. An image that lands on
    a harmonic is kept here; measure_ahr drops its band.
    """
    if not 0 < f0 < input_rate / 2.0:
        raise ValueError("f0 must lie below the input Nyquist")
    if factor < 2:
        raise ValueError("factor must be >= 2")
    n_fs = np.arange(1, factor)[:, None] * input_rate
    kf = np.asarray(ks, dtype=float) * f0
    f = np.abs(np.concatenate([n_fs - kf, n_fs + kf]).ravel())
    return tuple(np.unique(f[(f > 0.0) & (f <= factor * input_rate / 2.0)]).tolist())


def tonal_probe(output: AudioBuffer, input_rate: int, edge_trim: int = EDGE_DISCARD) -> float:
    """Tonal-artifact level (dB) in a layer's output for constant input.

    Sums band energy at every multiple of the input rate up to the output
    Nyquist and reports it relative to total output power. A bias-carrying
    ConvTranspose shows strong lines; a resampling upsampler stays at floor.
    """
    s = estimate_spectrum(output, edge_trim=edge_trim)
    hw = BAND_HALF_WIDTH_BINS * s.resolution_hz
    out_nyq = output.sample_rate / 2.0
    mask, _ = band_mask(s, input_rate * np.arange(1, int(out_nyq // input_rate) + 1), hw)
    return ratio_db(float(s.power[mask].sum()), s.total_power)
