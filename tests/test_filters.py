"""Tests for FIR design and integer-factor resampling."""

import numpy as np
import pytest
from conftest import zero_interlace
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aliasbench.audio import AudioBuffer
from aliasbench.filters import (
    STOPBAND_DB,
    TRANSITION,
    FirKernel,
    convolve,
    decimate,
    design_fir,
    downsample_filtered,
    frequency_response,
    interp_kernel,
    interpolate,
    upsample_filtered,
)


def response_db(kernel, n_points=4096):
    omegas, h = frequency_response(kernel, n_points)
    with np.errstate(divide="ignore"):
        return omegas, 20 * np.log10(np.maximum(np.abs(h), 1e-300))


class TestFirKernel:
    def test_taps_are_read_only(self):
        k = FirKernel(np.array([1.0, 2.0, 1.0]), 1)
        with pytest.raises(ValueError):
            k.taps[0] = 5.0

    def test_center_bounds_checked(self):
        with pytest.raises(ValueError):
            FirKernel(np.ones(3), 3)

    def test_symmetry_detection(self):
        assert FirKernel(np.array([0.25, 0.5, 0.25]), 1).is_symmetric
        assert not FirKernel(np.array([0.25, 0.5, 0.3]), 1).is_symmetric

    def test_dc_gain_is_tap_sum(self):
        assert FirKernel(np.array([0.25, 0.5, 0.25]), 1).dc_gain == 1.0


class TestDesignFir:
    def test_benchmark_lowpass_meets_100db(self):
        """The factor-2 resampling filter holds 100 dB everywhere past the
        transition band edge (0.5 + 0.025)."""
        k = design_fir(2)
        omegas, db = response_db(k, 8192)
        stop = omegas / np.pi >= 0.5 + 0.025 + 1e-9
        assert np.max(db[stop]) <= -97.0

    def test_unity_dc_gain(self):
        for factor in (2, 4):
            k = design_fir(factor)
            assert abs(20 * np.log10(k.dc_gain)) <= 0.1

    def test_odd_length_symmetric(self):
        k = design_fir(2)
        assert len(k) % 2 == 1
        assert k.center == len(k) // 2
        assert k.is_symmetric

    def test_highpass_is_exact_complement(self):
        """Spectral inversion makes H_hp(w) = 1 - H_lp(w) exactly (in the
        zero-phase frame), so the pair sums to one at every frequency."""
        lp = design_fir(2)
        hp = design_fir(2, True)
        _, h_lp = frequency_response(lp, 1024)
        _, h_hp = frequency_response(hp, 1024)
        assert_allclose(h_lp + h_hp, np.ones(1024), atol=1e-9)

    def test_resample_spec_requires_factor_2(self):
        with pytest.raises(ValueError):
            design_fir(1)

    @pytest.mark.parametrize("kind", ["lowpass", "highpass"])
    @pytest.mark.parametrize("atten", [STOPBAND_DB])  # the one attenuation designed for
    @pytest.mark.parametrize("factor", [2, 3, 4, 8])
    def test_matches_scipy_firwin(self, factor, atten, kind):
        from scipy.signal import firwin, kaiserord

        numtaps, beta = kaiserord(atten, TRANSITION * 2.0 / factor)
        numtaps |= 1
        want = firwin(numtaps, 1.0 / factor, window=("kaiser", beta), scale=True)
        if kind == "highpass":
            want = -want
            want[numtaps // 2] += 1.0
        k = design_fir(factor, kind == "highpass")
        assert len(k) == numtaps and k.center == numtaps // 2
        assert_allclose(k.taps, want, rtol=0, atol=1e-15)

    def test_cache_returns_equal_taps(self):
        a = design_fir(2)
        b = design_fir(2, False)
        assert np.array_equal(a.taps, b.taps)
        assert design_fir(3) is design_fir(3)


class TestConvolve:
    def test_zero_delay_alignment(self):
        """A passband sine comes back in phase: convolution is aligned on the
        kernel center."""
        fs = 44100
        t = np.arange(8192) / fs
        x = np.sin(2 * np.pi * 1000 * t)
        y = convolve(AudioBuffer(x, fs), design_fir(2))
        mid = slice(3000, 5000)
        assert_allclose(y.samples[mid], x[mid], atol=1e-4)

    def test_length_preserved(self):
        y = convolve(AudioBuffer(np.ones(100), 8000), FirKernel(np.array([0.5, 0.5]), 0))
        assert len(y) == 100

    def test_impulse_recovers_taps(self):
        k = FirKernel(np.array([0.25, 0.5, 0.25]), 1)
        x = np.zeros(9)
        x[4] = 1.0
        y = convolve(AudioBuffer(x, 8000), k)
        assert_allclose(y.samples[3:6], k.taps)


class TestZeroInterlace:
    def test_structure(self):
        x = AudioBuffer(np.array([1.0, 2.0, 3.0]), 8000)
        y = zero_interlace(x, 3)
        assert y.sample_rate == 24000
        assert_allclose(y.samples, [1, 0, 0, 2, 0, 0, 3, 0, 0])

    def test_factor_one_is_identity(self):
        x = AudioBuffer(np.arange(5.0), 8000)
        assert zero_interlace(x, 1) is x

    def test_images_mirror_about_input_nyquist(self):
        """Zero-stuffing a sine at f makes equal-magnitude lines at f and
        Fs_in - f (the spectral image)."""
        fs = 8000
        n = 4096
        t = np.arange(n) / fs
        x = AudioBuffer(np.sin(2 * np.pi * 1000 * t), fs)
        y = zero_interlace(x, 2)
        spectrum = np.abs(np.fft.rfft(y.samples * np.hanning(len(y))))
        freqs = np.fft.rfftfreq(len(y), 1 / y.sample_rate)
        peak_at = lambda f: spectrum[np.argmin(np.abs(freqs - f))]
        assert_allclose(peak_at(1000.0), peak_at(7000.0), rtol=1e-6)


class TestResampling:
    def test_upsample_matches_analytic_sine(self):
        """Upsampling a band-limited sine reproduces the analytically
        resampled sine (sinc interpolation): correlation >= 0.9999 and
        amplitude preserved within 1%."""
        fs, f = 22050, 3000.0
        n = 16384
        x = AudioBuffer(np.sin(2 * np.pi * f * np.arange(n) / fs), fs)
        y = upsample_filtered(x, 2)
        t_hi = np.arange(2 * n) / (2 * fs)
        ref = np.sin(2 * np.pi * f * t_hi)
        mid = slice(4000, 2 * n - 4000)
        a, b = y.samples[mid], ref[mid]
        corr = np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b))
        assert corr >= 0.9999
        assert_allclose(np.max(np.abs(a)), 1.0, rtol=0.01)

    def test_round_trip_is_transparent(self):
        """Up by 4 then down by 4 returns the signal (SNR >= 80 dB interior)."""
        fs = 11025
        rng = np.random.default_rng(42)
        # band-limited noise: white noise through the factor-3 low-pass (cutoff 1/3 of Nyquist)
        white = AudioBuffer(rng.standard_normal(8192), fs)
        x = convolve(white, design_fir(3))
        y = downsample_filtered(upsample_filtered(x, 4), 4)
        assert y.sample_rate == fs
        mid = slice(2000, 6000)
        err = y.samples[mid] - x.samples[mid]
        snr = 10 * np.log10(np.sum(x.samples[mid] ** 2) / np.sum(err**2))
        assert snr >= 80.0

    def test_upsample_length_and_rate(self):
        x = AudioBuffer(np.zeros(100), 8000)
        y = upsample_filtered(x, 3)
        assert len(y) == 300 and y.sample_rate == 24000

    def test_downsample_requires_divisible_rate(self):
        with pytest.raises(ValueError):
            downsample_filtered(AudioBuffer(np.zeros(100), 44100), 8)

    def test_factor_one_identities(self):
        x = AudioBuffer(np.arange(10.0), 8000)
        assert upsample_filtered(x, 1) is x
        assert downsample_filtered(x, 1) is x


#: A rate every factor 2..8 divides.
POLYPHASE_RATE = 40320


@st.composite
def interpolation_cases(draw):
    """A factor, a random kernel with any centre, and an input shorter or
    longer than the kernel."""
    factor = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = rng.uniform(-1.0, 1.0, draw(st.integers(1, 40)))
    center = draw(st.integers(0, taps.size - 1))
    x = rng.uniform(-1.0, 1.0, draw(st.integers(1, 60)))
    return factor, FirKernel(taps, center), AudioBuffer(x, POLYPHASE_RATE)


class TestPolyphase:
    """The polyphase resamplers equal the full-rate convolution they replace."""

    @settings(deadline=None)
    @given(interpolation_cases())
    def test_interpolate_matches_interlaced_convolution(self, case):
        factor, h, x = case
        up = np.zeros(factor * len(x))
        up[::factor] = x.samples
        want = np.convolve(up, h.taps)[h.center : h.center + up.size]
        y = interpolate(x, h, factor)
        assert y.sample_rate == factor * x.sample_rate
        assert_allclose(y.samples, want, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(interpolation_cases())
    def test_decimate_matches_decimated_convolution(self, case):
        factor, h, x = case
        x = AudioBuffer(np.resize(x.samples, max(len(x), factor)), x.sample_rate)
        want = np.convolve(x.samples, h.taps)[h.center : h.center + len(x)][::factor]
        y = decimate(x, h, factor)
        assert y.sample_rate == POLYPHASE_RATE // factor
        assert_allclose(y.samples, want, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans())
    def test_downsample_matches_decimated_convolution(self, factor, seed, longer):
        """The resampling low-pass itself, on inputs shorter and longer than it."""
        h = design_fir(factor)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(len(h) + 1, 3 * len(h))) if longer else int(rng.integers(factor, len(h)))
        x = AudioBuffer(rng.uniform(-1.0, 1.0, n), POLYPHASE_RATE)
        want = np.convolve(x.samples, h.taps)[h.center : h.center + n][::factor]
        assert_allclose(downsample_filtered(x, factor).samples, want, rtol=0, atol=1e-12)


class TestInterpKernels:
    def test_linear_taps(self):
        k = interp_kernel("linear", 2)
        assert_allclose(k.taps, [0.0, 0.5, 1.0, 0.5, 0.0])
        assert k.center == 2

    def test_nearest_taps(self):
        k = interp_kernel("nearest", 1)
        assert_allclose(k.taps, [1.0, 1.0, 1.0])
        assert k.center == 1

    def test_hold_taps_are_causal_box(self):
        k = interp_kernel("hold", 4)
        assert_allclose(k.taps, np.ones(4))
        assert k.center == 0

    def test_polyphase_branches_sum_to_one(self):
        """Each polyphase branch of the linear and hold kernels sums to 1, so
        interpolating a constant yields the same constant."""
        for kind in ("linear", "hold"):
            for n in (2, 3, 8):
                k = interp_kernel(kind, n)
                phases = [k.taps[p::n].sum() for p in range(n)]
                assert_allclose(phases, np.ones(n), atol=1e-15)

    def test_nearest_response_ratio_at_pi(self):
        """[1,1,1] evaluated at 0 and pi gives 3 and 1."""
        k = interp_kernel("nearest", 1)
        omegas, h = frequency_response(k, 4096)
        assert_allclose(abs(h[0]), 3.0, rtol=1e-12)
        assert_allclose(abs(h[-1]), 1.0, rtol=1e-9)

    def test_dirichlet_closed_form_for_nearest(self):
        """The symmetric box transforms to the Dirichlet kernel
        sin((2N+1)w/2)/sin(w/2)."""
        n = 3
        k = interp_kernel("nearest", n)
        omegas, h = frequency_response(k, 2048)
        with np.errstate(divide="ignore", invalid="ignore"):
            closed = np.where(
                omegas == 0, 2 * n + 1.0, np.sin((2 * n + 1) * omegas / 2) / np.sin(omegas / 2)
            )
        assert_allclose(h.real, closed, atol=1e-9)
        assert np.max(np.abs(h.imag)) <= 1e-9


class TestFrequencyResponse:
    def test_symmetric_kernel_evaluates_real(self):
        k = design_fir(2)
        _, h = frequency_response(k, 512)
        assert np.max(np.abs(h.imag)) <= 1e-9

    def test_grid_spans_zero_to_pi(self):
        omegas, _ = frequency_response(interp_kernel("linear", 2), 101)
        assert omegas[0] == 0.0
        assert_allclose(omegas[-1], np.pi)
