"""Tests for the four upsampling layers and their artifact bookkeeping."""

import numpy as np
import pytest
from conftest import zero_interlace
from numpy.testing import assert_allclose

from aliasbench import upsamplers
from aliasbench.audio import AudioBuffer, NumericError
from aliasbench.bench import derive_seeds
from aliasbench.filters import (
    design_fir,
    interp_kernel,
    interpolate,
    upsample_filtered,
)
from aliasbench.metrics import band_energy, estimate_spectrum
from aliasbench.upsamplers import (
    UpsamplerSpec,
    apply_upsampler,
    conv_transpose_weights,
    image_frequencies,
    tonal_probe,
    upsampler_kernel,
)

RATE = 22050


def sine_buffer(freq, duration_s=1.0, rate=RATE):
    t = np.arange(int(rate * duration_s)) / rate
    return AudioBuffer(np.sin(2 * np.pi * freq * t), rate)


class TestUpsamplerSpec:
    def test_conv_transpose_has_twice_the_factor_taps(self):
        for factor in (2, 3, 5):
            w, _ = conv_transpose_weights(UpsamplerSpec("conv_transpose", factor=factor, seed=1))
            assert w.shape == (2 * factor,)

    def test_name_defaults_to_kind(self):
        assert UpsamplerSpec("linear").name == "linear"
        assert UpsamplerSpec("linear", name="Lin").name == "Lin"

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            UpsamplerSpec("sinc")
        with pytest.raises(ValueError):
            UpsamplerSpec("linear", factor=1)


class TestUpsamplerKernel:
    def test_each_kind_names_its_kernel_gain_and_bias(self):
        conv = UpsamplerSpec("conv_transpose", factor=3, seed=2)
        h, gain, bias = upsampler_kernel(conv)
        w, b = conv_transpose_weights(conv)
        assert np.array_equal(h.taps, w) and h.center == 0 and (gain, bias) == (1.0, b)
        for kind, shape in (("linear", "linear"), ("nearest", "hold")):
            h, gain, bias = upsampler_kernel(UpsamplerSpec(kind, factor=3))
            ref = interp_kernel(shape, 3)
            assert np.array_equal(h.taps, ref.taps) and h.center == ref.center
            assert (gain, bias) == (1.0, 0.0)
        h, gain, bias = upsampler_kernel(UpsamplerSpec("aa_resample", factor=3))
        assert h is design_fir(3)
        assert (gain, bias) == (3.0, 0.0)
        k, gain, bias = upsampler_kernel(UpsamplerSpec("aa_resample", factor=3, seed=5, noise_prior=True))
        assert len(k) == len(h) + 6 and k.center == h.center + 3
        assert 0.5 <= gain < 1.5 and bias == 0.0


def fixed_weights(monkeypatch, weights, bias):
    """Make every conv_transpose layer use these weights and this bias."""
    monkeypatch.setattr(upsamplers, "conv_transpose_weights", lambda spec: (np.asarray(weights), bias))


class TestConvTranspose:
    def test_unit_kernel_reproduces_zero_interlace(self, monkeypatch):
        """weights [1, 0], zero bias: exactly the zero-stuffed input."""
        fixed_weights(monkeypatch, [1.0, 0.0], 0.0)
        x = sine_buffer(440.0, duration_s=0.01)
        y = apply_upsampler(x, UpsamplerSpec("conv_transpose", factor=2))
        assert np.array_equal(y.samples, zero_interlace(x, 2).samples)
        assert y.sample_rate == 2 * RATE

    def test_bias_is_a_constant_offset(self, monkeypatch):
        fixed_weights(monkeypatch, [1.0, 0.0], 0.25)
        x = sine_buffer(440.0, duration_s=0.01)
        y = apply_upsampler(x, UpsamplerSpec("conv_transpose", factor=2))
        assert np.array_equal(y.samples, zero_interlace(x, 2).samples + 0.25)

    def test_output_length_is_factor_times_input(self):
        x = sine_buffer(440.0, duration_s=0.013)
        for factor in (2, 3, 5):
            y = apply_upsampler(x, UpsamplerSpec("conv_transpose", factor=factor))
            assert len(y) == factor * len(x)
            assert y.sample_rate == factor * RATE

    def test_seeded_weights_respect_bounds(self):
        spec = UpsamplerSpec("conv_transpose", factor=4, seed=7)
        w, b = conv_transpose_weights(spec)
        bound = 1.0 / np.sqrt(8)
        assert w.shape == (8,)
        assert np.max(np.abs(w)) <= bound and abs(b) <= bound

    def test_same_seed_is_bit_identical_and_seeds_differ(self):
        x = sine_buffer(440.0, duration_s=0.05)
        a = apply_upsampler(x, UpsamplerSpec("conv_transpose", seed=3))
        b = apply_upsampler(x, UpsamplerSpec("conv_transpose", seed=3))
        c = apply_upsampler(x, UpsamplerSpec("conv_transpose", seed=4))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_weights_do_not_depend_on_other_spec_fields(self):
        """The weight stream is keyed by (seed, domain) only, so unrelated
        options cannot silently change the draw."""
        w1, b1 = conv_transpose_weights(UpsamplerSpec("conv_transpose", seed=5))
        w2, b2 = conv_transpose_weights(UpsamplerSpec("conv_transpose", seed=5, name="C"))
        assert np.array_equal(w1, w2) and b1 == b2

    def test_wrong_kind_rejected(self):
        """The spec is the only input that picks the layer, so a bad kind is
        rejected before any sample is touched."""
        x = sine_buffer(440.0, duration_s=0.01)
        with pytest.raises(ValueError):
            apply_upsampler(x, UpsamplerSpec("transpose"))


class TestInterpUpsample:
    def test_nearest_is_sample_and_hold(self):
        x = sine_buffer(440.0, duration_s=0.02)
        for factor in (2, 3, 4):
            y = apply_upsampler(x, UpsamplerSpec("nearest", factor=factor))
            assert np.array_equal(y.samples, np.repeat(x.samples, factor))

    def test_linear_matches_np_interp(self):
        x = sine_buffer(440.0, duration_s=0.02)
        n, factor = len(x), 4
        y = apply_upsampler(x, UpsamplerSpec("linear", factor=factor))
        ref = np.interp(np.arange(n * factor) / factor, np.arange(n), x.samples)
        interior = slice(0, (n - 1) * factor)
        assert_allclose(y.samples[interior], ref[interior], atol=1e-15)

    def test_on_grid_samples_pass_through(self):
        x = sine_buffer(440.0, duration_s=0.02)
        y = apply_upsampler(x, UpsamplerSpec("linear", factor=3))
        assert_allclose(y.samples[::3], x.samples, atol=1e-15)

    def test_invalid_arguments_rejected(self):
        x = sine_buffer(440.0, duration_s=0.01)
        with pytest.raises(ValueError):
            apply_upsampler(x, UpsamplerSpec("cubic", factor=2))
        with pytest.raises(ValueError):
            apply_upsampler(x, UpsamplerSpec("linear", factor=1))


class TestAaResample:
    def test_reconstructs_the_analytic_sine(self):
        x = sine_buffer(1000.0)
        y = apply_upsampler(x, UpsamplerSpec("aa_resample", factor=2))
        t = np.arange(len(y)) / y.sample_rate
        ref = np.sin(2 * np.pi * 1000.0 * t)
        mid = slice(4000, len(y) - 4000)
        a, b = y.samples[mid], ref[mid]
        xcorr = np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b))
        assert xcorr >= 0.9999
        assert abs(np.max(np.abs(a)) - 1.0) <= 0.01

    def test_high_band_is_empty_without_prior(self):
        y = apply_upsampler(sine_buffer(1000.0), UpsamplerSpec("aa_resample", factor=2))
        s = estimate_spectrum(y, edge_trim=2048)
        assert band_energy(s, 17000.0, 5000.0) <= 1e-9

    def test_noise_prior_fills_only_the_high_band(self):
        """Prior on: the low band is the same signal up to the mix gain, the
        high band gains many orders of magnitude of energy."""
        x = sine_buffer(1000.0)
        off = apply_upsampler(x, UpsamplerSpec("aa_resample", factor=2))
        on = apply_upsampler(x, UpsamplerSpec("aa_resample", factor=2, noise_prior=True, seed=3))
        s_off = estimate_spectrum(off, edge_trim=2048)
        s_on = estimate_spectrum(on, edge_trim=2048)
        hi_off = band_energy(s_off, 17000.0, 5000.0)
        hi_on = band_energy(s_on, 17000.0, 5000.0)
        assert hi_on >= 1e6 * max(hi_off, 1e-300)

        lp = design_fir(2)
        low_off = interpolate(off, lp, 1).samples[4000:-4000]
        low_on = interpolate(on, lp, 1).samples[4000:-4000]
        xcorr = np.dot(low_on, low_off) / np.sqrt(np.dot(low_on, low_on) * np.dot(low_off, low_off))
        assert xcorr >= 0.999

    def test_prior_is_deterministic(self):
        x = sine_buffer(500.0, duration_s=0.2)
        spec = UpsamplerSpec("aa_resample", factor=2, noise_prior=True, seed=9)
        assert np.array_equal(apply_upsampler(x, spec).samples, apply_upsampler(x, spec).samples)

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_prior_kernel_equals_the_two_stage_form(self, factor):
        """The prior layer's one kernel gives, away from the edges, what the
        two-stage form gives: the low-pass path, plus the input zero-interlaced
        through the seeded 7 taps and cut to length, then high-passed and cut
        to length again, mixed by g_mix. Only the first and last
        3 + h.center samples may differ, where the cut drops a tail."""
        seed = 9
        x = sine_buffer(500.0, duration_s=0.2)
        y = apply_upsampler(x, UpsamplerSpec("aa_resample", factor=factor, seed=seed, noise_prior=True)).samples
        bound = 1.0 / np.sqrt(7)
        t7 = upsamplers._stream(seed, upsamplers._DOM_PRIOR_CONV).uniform(-bound, bound, size=7)
        g_mix, g_prior = upsamplers._stream(seed, upsamplers._DOM_PRIOR_GAINS).uniform(0.5, 1.5, size=2)
        h, hp = design_fir(factor), design_fir(factor, True)
        up = zero_interlace(x, factor).samples
        n = up.size
        low = factor * np.convolve(up, h.taps)[h.center : h.center + n]
        prior = np.convolve(up, t7)[3 : 3 + n]
        prior = np.convolve(prior, hp.taps)[hp.center : hp.center + n]
        ref = g_mix * (low + g_prior * prior)
        edge = 3 + h.center
        assert np.max(np.abs(y - ref)[edge:-edge]) <= 1e-12 * np.max(np.abs(ref))

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_upsampler(sine_buffer(500.0, duration_s=0.1), UpsamplerSpec("resample"))


class TestApplyUpsampler:
    def test_dispatch_matches_direct_calls(self):
        """Each kind equals zero-interlace, its kernel, then gain and bias,
        computed here by direct calls. Every layer of the upsampler table,
        the noise prior included, is the full-rate convolution of the
        zero-interlaced input with upsampler_kernel's kernel, cut on its
        centre, times gain plus bias. The polyphase sums of the resampling
        kernels skip interlaced zeros and may differ in the last bits: 1e-12
        of the peak."""
        x = sine_buffer(700.0, duration_s=0.1)
        conv = UpsamplerSpec("conv_transpose", seed=2)
        w, b = conv_transpose_weights(conv)
        direct = np.convolve(zero_interlace(x, 2).samples, w)[: 2 * len(x)] + b
        assert np.array_equal(apply_upsampler(x, conv).samples, direct)
        lin = UpsamplerSpec("linear", factor=3)
        h = interp_kernel("linear", 3)
        direct = np.convolve(zero_interlace(x, 3).samples, h.taps)[h.center : h.center + 3 * len(x)]
        assert np.array_equal(apply_upsampler(x, lin).samples, direct)
        near = UpsamplerSpec("nearest", factor=2)
        assert np.array_equal(apply_upsampler(x, near).samples, np.repeat(x.samples, 2))
        aa = UpsamplerSpec("aa_resample", factor=2)
        assert np.array_equal(apply_upsampler(x, aa).samples, upsample_filtered(x, 2).samples)

        conv_seed, prior_seed = derive_seeds(0, 2)
        for factor in (2, 3, 4):
            up = zero_interlace(x, factor).samples
            for spec, bit_exact in (
                (UpsamplerSpec("conv_transpose", factor=factor, seed=conv_seed), True),
                (UpsamplerSpec("linear", factor=factor), True),
                (UpsamplerSpec("nearest", factor=factor), True),
                (UpsamplerSpec("aa_resample", factor=factor), False),
                (UpsamplerSpec("aa_resample", factor=factor, seed=prior_seed, noise_prior=True), False),
            ):
                h, gain, bias = upsampler_kernel(spec)
                direct = np.convolve(up, h.taps)[h.center : h.center + up.size] * gain + bias
                got = apply_upsampler(x, spec).samples
                if bit_exact:
                    assert np.array_equal(got, direct), spec
                else:
                    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct)), spec

    def test_settings_the_kind_ignores_are_rejected(self):
        """A field that cannot change a layer's output may not be set on it,
        so two specs with different config hashes never give the same layer."""
        for kind in ("conv_transpose", "linear", "nearest"):
            with pytest.raises(ValueError, match="noise_prior"):
                UpsamplerSpec(kind, seed=4, noise_prior=True)
        for kind in ("linear", "nearest", "aa_resample"):
            with pytest.raises(ValueError, match="seed"):
                UpsamplerSpec(kind, seed=4)
        UpsamplerSpec("conv_transpose", seed=4)
        UpsamplerSpec("aa_resample", seed=4, noise_prior=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gain_is_a_numeric_error(self):
        """A finite input near the float max overflows under aa_resample's
        gain L: NumericError, never an output holding inf."""
        x = AudioBuffer(np.full(4096, 1.7e308), 100)
        with pytest.raises(NumericError, match="overflowed"):
            apply_upsampler(x, UpsamplerSpec("aa_resample"))

    @pytest.mark.parametrize("kind", ["conv_transpose", "aa_resample"])
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            UpsamplerSpec(kind, seed=-1, noise_prior=kind == "aa_resample")


class TestImageFrequencies:
    def test_factor_two_single_partial(self):
        assert image_frequencies(1000.0, 2, 22050, (1,)) == (21050.0,)

    def test_factor_four_single_partial(self):
        assert image_frequencies(1000.0, 4, 22050, (1,)) == (21050.0, 23050.0, 43100.0)

    def test_iterable_k_values(self):
        assert image_frequencies(1000.0, 2, 22050, (2,)) == (20050.0,)
        assert image_frequencies(1000.0, 2, 22050, range(1, 3)) == (20050.0, 21050.0)

    def test_matches_brute_force_enumeration(self):
        """Partials below the input Nyquist image at |n*Fs_in +- k*f0|,
        n = 1..L-1."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            rate = float(rng.integers(8000, 48001))
            factor = int(rng.integers(2, 6))
            k_max = int(rng.integers(1, 40))
            f0 = float(rng.uniform(20.0, rate / 2 - 1.0))
            ks = [k for k in range(1, k_max + 1) if k * f0 < rate / 2]
            got = image_frequencies(f0, factor, rate, ks)
            want = set()
            for n in range(1, factor):
                for k in ks:
                    for cand in (abs(n * rate - k * f0), n * rate + k * f0):
                        if 0.0 < cand <= factor * rate / 2:
                            want.add(cand)
            assert got == tuple(sorted(want))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            image_frequencies(12000.0, 2, 22050, (1,))  # above input Nyquist
        with pytest.raises(ValueError):
            image_frequencies(1000.0, 1, 22050, (1,))


class TestTonalProbe:
    def constant(self, value=0.5):
        return AudioBuffer(np.full(RATE, value), RATE)

    def test_conv_transpose_shows_stride_lines(self):
        """A bias-carrying transposed convolution leaks strong lines at
        multiples of the input rate for constant input."""
        y = apply_upsampler(self.constant(), UpsamplerSpec("conv_transpose", seed=0))
        assert tonal_probe(y, RATE, edge_trim=2048) >= -40.0

    def test_resampling_layers_stay_at_floor(self):
        for spec in (UpsamplerSpec("aa_resample"), UpsamplerSpec("linear"), UpsamplerSpec("nearest")):
            y = apply_upsampler(self.constant(), spec)
            assert tonal_probe(y, RATE, edge_trim=2048) <= -100.0
