"""Tests for FIR design and integer-factor resampling."""

import contextlib
import math

import numpy as np
import pytest
from conftest import convolve_decimate, convolve_interpolate, zero_interlace
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aliasbench import filters
from aliasbench.audio import AudioBuffer, NumericError
from aliasbench.filters import (
    BLOCK,
    BLOCKED_MIN_TAPS,
    STOPBAND_DB,
    TRANSITION,
    FirKernel,
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

    @pytest.mark.parametrize("highpass", [False, True])
    def test_taps_match_the_scipy_i0_design(self, highpass):
        """Every tap, for every factor 2..64, is within 2 eps of the peak tap
        of the design written with scipy.special.i0 for the Kaiser window,
        with the sinc's zeros at m = jL (j != 0) set exactly before
        normalising. np.i0 differs from scipy.special.i0 in the last bits;
        the largest gap, at L = 18, is 1.7 eps of the peak tap."""
        from scipy.special import i0

        for factor in range(2, 65):
            width = TRANSITION * 2.0 / factor
            numtaps = math.ceil((STOPBAND_DB - 7.95) / 2.285 / (np.pi * width) + 1) | 1
            center = numtaps // 2
            m = np.arange(numtaps, dtype=np.float64) - center
            beta = 0.1102 * (STOPBAND_DB - 8.7)
            window = i0(beta * np.sqrt(1 - (m / center) ** 2.0)) / i0(beta)
            want = 1.0 / factor * np.sinc(1.0 / factor * m) * window
            want[(m % factor == 0) & (m != 0)] = 0.0
            want /= np.sum(want)
            if highpass:
                want = -want
                want[center] += 1.0
            k = design_fir(factor, highpass)
            assert k.center == center, factor
            assert np.max(np.abs(k.taps - want)) <= 2 * np.finfo(float).eps * np.max(np.abs(want)), factor

    @pytest.mark.parametrize("highpass", [False, True])
    @pytest.mark.parametrize("factor", range(2, 9))
    def test_taps_are_exactly_zero_at_every_lth_offset(self, factor, highpass):
        """Nyquist(L): the taps at center +- jL, j != 0, are exactly 0.0, so
        the phase holding the center has that one nonzero tap."""
        k = design_fir(factor, highpass)
        zeros = np.r_[k.center % factor : len(k) : factor]
        zeros = zeros[zeros != k.center]
        assert zeros.size and np.all(k.taps[zeros] == 0.0)
        assert k.taps[k.center] != 0.0
        assert np.count_nonzero(k.taps) == len(k) - zeros.size

    @pytest.mark.parametrize("factor", range(2, 9))
    def test_upsampled_on_grid_samples_are_a_scaled_copy(self, factor):
        """Output samples L*q of upsample_filtered are the input times the
        center tap times L, in every bit."""
        x = np.random.default_rng(factor).uniform(-1.0, 1.0, 1000)
        k = design_fir(factor)
        y = upsample_filtered(AudioBuffer(x, POLYPHASE_RATE), factor).samples
        assert y[::factor].tobytes() == ((x * k.taps[k.center]) * factor).tobytes()

    def test_cache_returns_equal_taps(self):
        a = design_fir(2)
        b = design_fir(2, False)
        assert np.array_equal(a.taps, b.taps)
        assert design_fir(3) is design_fir(3)


class TestConvolve:
    """interpolate at factor 1 is plain zero-delay filtering."""

    def test_zero_delay_alignment(self):
        """A passband sine comes back in phase: convolution is aligned on the
        kernel center."""
        fs = 44100
        t = np.arange(8192) / fs
        x = np.sin(2 * np.pi * 1000 * t)
        y = interpolate(AudioBuffer(x, fs), design_fir(2), 1)
        mid = slice(3000, 5000)
        assert_allclose(y.samples[mid], x[mid], atol=1e-4)

    def test_length_preserved(self):
        y = interpolate(AudioBuffer(np.ones(100), 8000), FirKernel(np.array([0.5, 0.5]), 0), 1)
        assert len(y) == 100

    def test_impulse_recovers_taps(self):
        k = FirKernel(np.array([0.25, 0.5, 0.25]), 1)
        x = np.zeros(9)
        x[4] = 1.0
        y = interpolate(AudioBuffer(x, 8000), k, 1)
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
        x = interpolate(white, design_fir(3), 1)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gain_is_a_numeric_error(self):
        """A finite input near the float max overflows under the gain L:
        NumericError naming the factor, never a warning or an inf."""
        x = AudioBuffer(np.full(4096, 1.7e308), 100)
        with pytest.raises(NumericError, match="upsampling by 2 overflowed"):
            upsample_filtered(x, 2)


#: A rate every factor 2..8 divides.
POLYPHASE_RATE = 40320


@st.composite
def interpolation_cases(draw):
    """A factor, a random kernel with any centre, and an input shorter or
    longer than the kernel's phases, rarely a multiple of BLOCK. The
    kernel's phases are short (np.convolve), long (the blocked product, up
    to 160 taps, past the resampling filter's 130) or straddle
    BLOCKED_MIN_TAPS, so one kernel can run both. Some kernels have one
    phase cut to a single nonzero tap, as the resampling filter's centre
    phase is, or to no nonzero tap at all."""
    factor = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_taps = draw(st.sampled_from([
        st.integers(1, 40),
        st.integers(factor * (BLOCKED_MIN_TAPS - 1), factor * (BLOCKED_MIN_TAPS + 1)),
        st.integers(factor * BLOCKED_MIN_TAPS, factor * 160),
    ]))
    taps = rng.uniform(-1.0, 1.0, draw(n_taps))
    phase_taps = draw(st.sampled_from(["all", "one", "none"]))
    if phase_taps != "all":
        branch = taps[draw(st.integers(0, min(factor, taps.size) - 1)) :: factor]  # a view
        j = draw(st.integers(0, branch.size - 1))
        kept = branch[j]
        branch[:] = 0.0
        if phase_taps == "one":
            branch[j] = kept
    center = draw(st.integers(0, taps.size - 1))
    n = draw(st.one_of(st.integers(1, 60), st.integers(1, 100 * BLOCK)))
    x = rng.uniform(-1.0, 1.0, n)
    return factor, FirKernel(taps, center), AudioBuffer(x, POLYPHASE_RATE)


#: Multiply-adds per np.matmul call that give one row per call, a few rows,
#: and the module's own, so that the inputs span one call or many.
product_sizes = st.sampled_from([1, 50_000, filters.PRODUCT_MACS])


@contextlib.contextmanager
def product_macs_of(macs):
    """filters.PRODUCT_MACS set to macs for the block, then restored."""
    kept = filters.PRODUCT_MACS
    filters.PRODUCT_MACS = macs
    try:
        yield
    finally:
        filters.PRODUCT_MACS = kept


def assert_matches_reference(y, reference, h, factor):
    """The blocked products equal the full-rate convolution within 1e-12 of
    its peak, and a kernel with no phase of BLOCKED_MIN_TAPS taps gives the
    per-phase np.convolve reference's bits."""
    if -(-len(h) // factor) < BLOCKED_MIN_TAPS:
        assert np.array_equal(y, reference)
    else:
        assert_allclose(y, reference, rtol=0, atol=1e-12 * np.abs(reference).max())


class TestPolyphase:
    """The polyphase resamplers equal the full-rate convolution they replace."""

    @settings(deadline=None)
    @given(interpolation_cases(), product_sizes)
    def test_interpolate_matches_interlaced_convolution(self, case, product_macs):
        factor, h, x = case
        up = np.zeros(factor * len(x))
        up[::factor] = x.samples
        want = np.convolve(up, h.taps)[h.center : h.center + up.size]
        with product_macs_of(product_macs):
            y = interpolate(x, h, factor)
        assert y.sample_rate == factor * x.sample_rate
        assert_allclose(y.samples, want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert_matches_reference(y.samples, convolve_interpolate(x, h, factor).samples, h, factor)

    @settings(deadline=None)
    @given(interpolation_cases(), product_sizes)
    # A single-tap phase whose tap lies past every kept output.
    @example(
        (2, FirKernel(np.array([0, 1, 0, 0, 0, 0, 0, 0, 0.5, 0, 0, 0]), 0), AudioBuffer(np.arange(1.0, 7.0), POLYPHASE_RATE)),
        filters.PRODUCT_MACS,
    )
    def test_decimate_matches_decimated_convolution(self, case, product_macs):
        factor, h, x = case
        x = AudioBuffer(np.resize(x.samples, max(len(x), factor)), x.sample_rate)
        want = np.convolve(x.samples, h.taps)[h.center : h.center + len(x)][::factor]
        with product_macs_of(product_macs):
            y = decimate(x, h, factor)
        assert y.sample_rate == POLYPHASE_RATE // factor
        assert_allclose(y.samples, want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert_matches_reference(y.samples, convolve_decimate(x, h, factor).samples, h, factor)

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

    def test_equals_scipy_freqz_in_every_bit(self):
        """Every kernel filter-response accepts, at its 4,096 points: the
        real and imaginary parts equal freqz's, signs of zero included
        (array_equal alone treats -0.0 as 0.0)."""
        from scipy.signal import freqz

        kernels = [design_fir(n) for n in range(2, 65)]
        kernels += [interp_kernel(kind, n) for kind in ("linear", "nearest") for n in range(1, 65)]
        assert len(kernels) == 191
        for k in kernels:
            omegas, got = frequency_response(k, 4096)
            _, want = freqz(k.taps, worN=omegas)
            want = want * np.exp(1j * omegas * k.center)
            for g, w in ((got.real, want.real), (got.imag, want.imag)):
                assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w)), (len(k), k.center)
