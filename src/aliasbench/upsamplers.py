"""The four upsampling layers under study.

conv_transpose: stride-L transposed convolution with seeded random weights
and bias -- the aliasing- and tonal-artifact-prone baseline. linear/nearest:
classic interpolators, equivalent to zero-interlacing plus a fixed short
kernel, which attenuates images only mildly. aa_resample: zero-interlacing
plus a proper low-pass (optionally with a deterministic noise prior filling
the empty high band), which suppresses images to the filter's stopband.

All layers output length L * len(input) at rate L * input rate, and all
randomness is drawn from counter-based streams keyed by (seed, domain), so
results never depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .filters import (
    DEFAULT_STOPBAND_DB,
    DEFAULT_TRANSITION,
    FirKernel,
    convolve,
    design_fir,
    interp_kernel,
    resample_filter_spec,
    upsample_filtered,
    zero_interlace,
)
from .metrics import FLOOR_DB, BAND_HALF_WIDTH_BINS, band_mask, estimate_spectrum

UPSAMPLER_KINDS = ("conv_transpose", "linear", "nearest", "aa_resample")

#: Tap count of the seeded noise-prior convolution.
_PRIOR_CONV_TAPS = 7

# Spawn-key domains for the per-layer random streams.
_DOM_CONV_WEIGHTS = 0
_DOM_PRIOR_CONV = 1
_DOM_PRIOR_GAINS = 2


@dataclass(frozen=True)
class UpsamplerSpec:
    """Which upsampling layer, its factor, seed, and filter parameters."""

    kind: str
    factor: int = 2
    kernel_size: int = 0  # conv_transpose only; 0 means 2 * factor
    seed: int = 0
    noise_prior: bool = False
    stopband_atten_db: float = DEFAULT_STOPBAND_DB
    base_transition: float = DEFAULT_TRANSITION
    name: str = ""
    table_row: bool = False

    def __post_init__(self) -> None:
        if self.kind not in UPSAMPLER_KINDS:
            raise ValueError(f"unknown upsampler kind {self.kind!r}, expected one of {UPSAMPLER_KINDS}")
        if self.factor < 2:
            raise ValueError("upsampling factor must be >= 2")
        if self.kind == "conv_transpose" and self.effective_kernel_size < self.factor:
            raise ValueError(
                f"kernel_size {self.effective_kernel_size} must be >= factor {self.factor}"
            )
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    @property
    def effective_kernel_size(self) -> int:
        return self.kernel_size if self.kernel_size else 2 * self.factor


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based (Philox) generator split from seed by a spawn key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def conv_transpose_weights(spec: UpsamplerSpec) -> tuple[np.ndarray, float]:
    """Seeded weights and bias: uniform in +-1/sqrt(kernel_size)."""
    k = spec.effective_kernel_size
    bound = 1.0 / math.sqrt(k)
    rng = _stream(spec.seed, _DOM_CONV_WEIGHTS)
    weights = rng.uniform(-bound, bound, size=k)
    bias = float(rng.uniform(-bound, bound))
    return weights, bias


def conv_transpose_1d(
    x: AudioBuffer,
    spec: UpsamplerSpec,
    weights: np.ndarray | None = None,
    bias: float | None = None,
) -> AudioBuffer:
    """Mono stride-L transposed convolution, truncated to L * len(x) samples.

    y[m] = sum_j x[j] w[m - L j] + b. The constant bias is what turns into
    the tonal artifact once a later stage folds it across band edges; the
    cyclic polyphase gain mismatch is what creates the spectral images.
    Explicit weights/bias override the seeded draw (for controlled tests).
    """
    if spec.kind != "conv_transpose":
        raise ValueError(f"spec kind is {spec.kind!r}, not conv_transpose")
    if weights is None:
        drawn_w, drawn_b = conv_transpose_weights(spec)
        weights = drawn_w
        if bias is None:
            bias = drawn_b
    elif bias is None:
        bias = 0.0
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size < spec.factor:
        raise ValueError("kernel must cover the stride (kernel_size >= factor)")
    interlaced = zero_interlace(x, spec.factor)
    full = np.convolve(interlaced.samples, weights, mode="full")
    return AudioBuffer(full[: len(x) * spec.factor] + bias, x.sample_rate * spec.factor)


def interp_upsample(x: AudioBuffer, kind: str, factor: int) -> AudioBuffer:
    """Linear or nearest-neighbor upsampling via zero-interlace + fixed kernel."""
    if factor < 2:
        raise ValueError("upsampling factor must be >= 2")
    if kind == "linear":
        kernel = interp_kernel("linear", factor)
    elif kind == "nearest":
        kernel = interp_kernel("hold", factor)
    else:
        raise ValueError(f"interp kind must be linear or nearest, got {kind!r}")
    return convolve(zero_interlace(x, factor), kernel)


def aa_resample_upsample(
    x: AudioBuffer, spec: UpsamplerSpec, prior_source: AudioBuffer | None = None
) -> AudioBuffer:
    """Anti-aliased upsampling: zero-interlace + low-pass at cutoff 1/L.

    With noise_prior on, a deterministic noise-like path fills the otherwise
    empty high band: zero-interlace the prior source, run it through a seeded
    7-tap convolution, high-pass it at the complementary cutoff, and mix with
    a seeded unit-mean scalar gain pair.
    """
    if spec.kind != "aa_resample":
        raise ValueError(f"spec kind is {spec.kind!r}, not aa_resample")
    lp = resample_filter_spec(spec.factor, spec.stopband_atten_db, spec.base_transition)
    main = upsample_filtered(x, spec.factor, lp)
    if not spec.noise_prior:
        return main
    src = x if prior_source is None else prior_source
    if len(src) != len(x) or src.sample_rate != x.sample_rate:
        raise ValueError("prior_source must match the input's length and rate")
    bound = 1.0 / math.sqrt(_PRIOR_CONV_TAPS)
    taps = _stream(spec.seed, _DOM_PRIOR_CONV).uniform(-bound, bound, size=_PRIOR_CONV_TAPS)
    prior = convolve(zero_interlace(src, spec.factor), FirKernel(taps, _PRIOR_CONV_TAPS // 2))
    hp = resample_filter_spec(spec.factor, spec.stopband_atten_db, spec.base_transition, kind="highpass")
    prior = convolve(prior, design_fir(hp))
    g_mix, g_prior = _stream(spec.seed, _DOM_PRIOR_GAINS).uniform(0.5, 1.5, size=2)
    return main.with_samples(g_mix * (main.samples + g_prior * prior.samples))


def apply_upsampler(
    x: AudioBuffer, spec: UpsamplerSpec, prior_source: AudioBuffer | None = None
) -> AudioBuffer:
    """Dispatch to the configured layer."""
    if spec.kind == "conv_transpose":
        return conv_transpose_1d(x, spec)
    if spec.kind in ("linear", "nearest"):
        return interp_upsample(x, spec.kind, spec.factor)
    return aa_resample_upsample(x, spec, prior_source)


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


def tonal_probe(
    output: AudioBuffer,
    input_rate: int,
    edge_trim: int = 8192,
    floor_db: float = FLOOR_DB,
) -> float:
    """Tonal-artifact level (dB) in a layer's output for constant input.

    Sums band energy at every multiple of the input rate up to the output
    Nyquist and reports it relative to total output power. A bias-carrying
    ConvTranspose shows strong lines; a resampling upsampler stays at floor.
    """
    s = estimate_spectrum(output, edge_trim=edge_trim)
    hw = BAND_HALF_WIDTH_BINS * s.resolution_hz
    out_nyq = output.sample_rate / 2.0
    mask, _ = band_mask(s, input_rate * np.arange(1, int(out_nyq // input_rate) + 1), hw)
    e_lines = float(s.power[mask].sum())
    total = s.total_power
    if e_lines <= 0.0 or total <= 0.0:
        return floor_db
    return max(floor_db, 10.0 * math.log10(e_lines / total))
