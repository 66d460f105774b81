"""Tests for spectral estimation and the aliasing-to-harmonic ratio.

The end-to-end AHR oracle (perfbench/oracles.py) is fully independent of
the pipeline: the exact output partials of a memoryless nonlinearity driven
by a sine are computed from a dense one-period FFT, assigned to harmonic or
alias bands by the documented band rules, and the predicted ratio is
compared against the measured one. The vectorized band bookkeeping
(band_mask) is checked against the per-band loops it replaced, kept here as
the reference.
"""

import math
import tracemalloc
from dataclasses import replace

import checks
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aliasbench import metrics
from aliasbench.activations import ActivationSpec, apply_activation
from aliasbench.audio import AudioBuffer, NumericError
from aliasbench.bench import DEFAULT_ACTIVATIONS, evaluate, image_context, input_signals, load_bench_csv
from aliasbench.configio import config_hash
from aliasbench.metrics import (
    ANALYSIS,
    BAND_HALF_WIDTH_BINS,
    FLOOR_DB,
    K_CAP,
    KAISER_BLOCK,
    AhrContext,
    AhrMeasurement,
    SignalAhr,
    SpectrumEstimate,
    activation_context,
    alias_lines,
    band_energy,
    band_mask,
    build_report,
    db_cells,
    estimate_spectrum,
    hann,
    kaiser,
    measure_ahr,
    ratio_db,
    spectrogram,
    spectrogram_export,
)
from aliasbench.signals import (
    BENCH_AMPLITUDE,
    TestSignalSpec,
    benchmark_notes,
    benchmark_specs,
    gen_bandlimited,
    gen_sweep,
    midi_to_freq,
    partials,
)
from aliasbench.upsamplers import UpsamplerSpec, apply_upsampler, image_frequencies

RATE = 44100


def sine_buffer(freq, duration_s=1.0, amplitude=1.0, rate=RATE, phase=0.0):
    t = np.arange(int(rate * duration_s)) / rate
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq * t + phase), rate)


class TestHann:
    @pytest.mark.parametrize("n", [1, 2, 1024, 4097, 27716, 204116])
    def test_matches_scipy_periodic_hann_bit_for_bit(self, n):
        from scipy.signal import windows

        assert np.array_equal(hann(n), windows.hann(n, sym=False))

    def test_cached_window_is_read_only(self):
        w = hann(4096)
        assert hann(4096) is w
        with pytest.raises(ValueError):
            w[0] = 1.0


class TestKaiser:
    @pytest.mark.parametrize("n", [1024, 4097, 204116])
    def test_is_the_periodic_kaiser_window_at_the_analysis_beta(self, n):
        """kaiser(n) is the first n points of the symmetric (n + 1)-point
        window: w[k] = I0(beta sqrt(1 - (2k/n - 1)^2)) / I0(beta)."""
        k = np.arange(n)
        expect = np.i0(ANALYSIS["beta"] * np.sqrt(1.0 - (2.0 * k / n - 1.0) ** 2)) / np.i0(ANALYSIS["beta"])
        assert_allclose(kaiser(n), expect, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("n", [1, 2, 1024, KAISER_BLOCK - 1, KAISER_BLOCK, KAISER_BLOCK + 1, 27716, 204116])
    def test_equals_numpys_window_in_every_bit(self, n):
        """The blocked build is np.kaiser's window, at the block edges, the
        tonal probe's analysed length (27,716) and a signal's (204,116)."""
        assert np.array_equal(kaiser(n), np.kaiser(n + 1, ANALYSIS["beta"])[:-1])

    def test_build_holds_little_more_than_the_window(self):
        """A cold kaiser(204116) allocates its 1.56 MiB window and at most
        2 MiB more at its peak (np.kaiser's whole-window build: 14.8 MiB)."""
        kaiser.cache_clear()
        tracemalloc.start()
        try:
            w = kaiser(204116)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - w.nbytes <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_cached_window_is_read_only(self):
        w = kaiser(4096)
        assert kaiser(4096) is w
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_band_holds_the_main_lobe(self):
        """A band of BAND_HALF_WIDTH_BINS holds all but 1e-12 of an off-grid
        sine's power, and a band 8 bins away reads below -119 dB."""
        x = sine_buffer(1000.3)
        s = estimate_spectrum(x)
        hw = BAND_HALF_WIDTH_BINS * s.resolution_hz
        assert_allclose(band_energy(s, 1000.3, hw), s.total_power, rtol=1e-12)
        assert band_energy(s, 1000.3 + 8 * s.resolution_hz, s.resolution_hz) < 10 ** -11.9 * s.total_power


class TestEstimateSpectrum:
    def test_unit_sine_total_power(self):
        """Bins sum to the window-weighted mean power: 0.5 for a unit sine."""
        s = estimate_spectrum(sine_buffer(441.0))
        assert_allclose(s.total_power, 0.5, rtol=1e-12)

    def test_normalization_independent_of_bin_alignment(self):
        s = estimate_spectrum(sine_buffer(400.3))
        assert_allclose(s.total_power, 0.5, rtol=1e-12)

    def test_silence_is_zero(self):
        s = estimate_spectrum(AudioBuffer(np.zeros(4096), RATE))
        assert np.all(s.power <= 1e-30)

    def test_bins_sum_to_the_windowed_power(self):
        """Parseval through the analysis window: the bins sum to sum((x w)^2) / sum(w^2)."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal(5000)
        w = kaiser(v.size)
        s = estimate_spectrum(AudioBuffer(v, 8000))
        assert_allclose(s.total_power, np.sum((v * w) ** 2) / np.sum(w * w), rtol=1e-12)

    def test_zero_padding_and_resolution(self):
        """nfft is the next power of two >= the trimmed length: no zero padding beyond it."""
        s = estimate_spectrum(AudioBuffer(np.zeros(10000), RATE), edge_trim=500)
        assert s.data_len == 9000
        assert s.fft_size == 16384
        assert_allclose(s.resolution_hz, RATE / 9000)
        assert len(s.bin_freqs) == len(s.power) == 16384 // 2 + 1

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            estimate_spectrum(AudioBuffer(np.zeros(1023), RATE))
        with pytest.raises(ValueError):
            estimate_spectrum(AudioBuffer(np.zeros(2000), RATE), edge_trim=600)

    def test_bad_arguments_rejected(self):
        x = AudioBuffer(np.zeros(4096), RATE)
        with pytest.raises(ValueError):
            estimate_spectrum(x, edge_trim=-1)


class TestBandEnergy:
    def test_two_tone_bands_are_additive(self):
        x = sine_buffer(441.0)
        y = AudioBuffer(x.samples + 0.6 * sine_buffer(5000.0).samples, RATE)
        s = estimate_spectrum(y)
        hw = 4 * s.resolution_hz
        assert_allclose(band_energy(s, 441.0, hw), 0.5, rtol=1e-4)
        assert_allclose(band_energy(s, 5000.0, hw), 0.5 * 0.36, rtol=1e-4)

    def test_far_band_is_empty(self):
        s = estimate_spectrum(sine_buffer(441.0))
        assert band_energy(s, 15000.0, 4 * s.resolution_hz) <= 1e-10 * 0.5

    def test_band_wider_than_spectrum_gives_total(self):
        s = estimate_spectrum(sine_buffer(441.0))
        assert band_energy(s, 0.0, 1e9) == s.total_power

    def test_invalid_bands_rejected(self):
        s = estimate_spectrum(sine_buffer(441.0))
        with pytest.raises(ValueError):
            band_energy(s, -1.0, 10.0)
        with pytest.raises(ValueError):
            band_energy(s, 100.0, -1.0)


def _band_slice(s, center_hz, half_width_hz):
    """Reference: the bin range of one band, found with two scalar searches."""
    lo = int(np.searchsorted(s.bin_freqs, center_hz - half_width_hz, side="left"))
    hi = int(np.searchsorted(s.bin_freqs, center_hz + half_width_hz, side="right"))
    return lo, hi


def reference_band_mask(s, centres, half_width, exclude=None):
    """Reference: one band at a time, as the bookkeeping was written before
    band_mask. Empty bands and bands touching exclude are skipped."""
    mask = np.zeros(s.power.size, dtype=bool)
    count = 0
    for f in centres:
        lo, hi = _band_slice(s, f, half_width)
        if hi <= lo or (exclude is not None and exclude[lo:hi].any()):
            continue
        mask[lo:hi] = True
        count += 1
    return mask, count


def _reference_fold(freq_hz, sample_rate):
    nyq = sample_rate / 2.0
    r = math.fmod(freq_hz, sample_rate)
    if r < 0:
        r += sample_rate
    return sample_rate - r if r > nyq else r


def reference_measure_ahr(output, f0, context, edge_trim):
    """Reference: measure_ahr with its per-band hmask/amask loops."""
    s = estimate_spectrum(output, edge_trim=edge_trim)
    hw = BAND_HALF_WIDTH_BINS * s.resolution_hz
    ks = np.arange(1, K_CAP + 1)
    harm = [k * f0 for k in ks if k * f0 < context.input_rate / 2.0]
    alias = list(context.alias_freqs)

    hmask = np.zeros(s.power.size, dtype=bool)
    h_count = 0
    for f in harm:
        if f <= 2.0 * hw:
            continue
        lo, hi = _band_slice(s, f, hw)
        if hi > lo:
            hmask[lo:hi] = True
            h_count += 1

    amask = np.zeros(s.power.size, dtype=bool)
    a_count = 0
    for f in alias:
        if f <= 2.0 * hw:
            continue
        lo, hi = _band_slice(s, f, hw)
        if hi <= lo or hmask[lo:hi].any():
            continue
        amask[lo:hi] = True
        a_count += 1

    e_h = float(s.power[hmask].sum())
    e_a = float(s.power[amask].sum())
    if e_h <= 0.0 or e_a <= 0.0:
        ahr_db = FLOOR_DB
    else:
        ahr_db = max(FLOOR_DB, 10.0 * math.log10(e_a / e_h))
    return AhrMeasurement(ahr_db, h_count, a_count, e_h, e_a)


@st.composite
def band_cases(draw):
    """A small spectrum grid, a half width (zero included), centres that
    overlap, sit on bins, lie within two half widths of DC or past the last
    bin, and an optional random exclude mask."""
    nfft = draw(st.sampled_from([64, 256, 1024]))
    rate = draw(st.sampled_from([1000, 44100]))
    freqs = np.fft.rfftfreq(nfft, d=1.0 / rate)
    s = SpectrumEstimate(freqs, np.ones(freqs.size), nfft, nfft, rate)
    hw = draw(st.just(0.0) | st.floats(0.0, 20.0 * rate / nfft))
    on_bin = st.integers(0, freqs.size - 1).map(lambda i: float(freqs[i]))
    anywhere = st.floats(0.0, 0.6 * rate)
    near_dc = st.floats(0.0, 2.0 * hw)
    centres = draw(st.lists(on_bin | anywhere | near_dc, max_size=40))
    exclude = draw(
        st.none() | st.lists(st.booleans(), min_size=freqs.size, max_size=freqs.size).map(np.array)
    )
    return s, centres, hw, exclude


class TestBandMask:
    @settings(deadline=None)
    @given(band_cases())
    def test_matches_per_band_loop(self, case):
        s, centres, hw, exclude = case
        mask, count = band_mask(s, centres, hw, exclude=exclude)
        want_mask, want_count = reference_band_mask(s, centres, hw, exclude)
        assert np.array_equal(mask, want_mask)
        assert count == want_count



@st.composite
def ahr_cases(draw):
    """A noisy tone at a random f0 under an activation or upsampler context
    whose alias lines include ones near DC, on a harmonic, and beyond the grid."""
    rate = draw(st.sampled_from([8000, 44100]))
    n = draw(st.integers(2048, 6000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f0 = draw(st.floats(20.0, rate / 2.0 - 1.0))
    t = np.arange(n) / rate
    x = AudioBuffer(np.sin(2 * np.pi * f0 * t) + 1e-3 * rng.standard_normal(n), rate)
    if draw(st.booleans()):
        return x, f0, activation_context(f0, rate)
    input_rate = rate // 2
    if f0 >= input_rate / 2.0:
        f0 = f0 / 2.0
    line = st.floats(0.0, 0.6 * rate) | st.floats(0.0, 10.0) | st.integers(1, 40).map(lambda k: k * f0)
    alias = tuple(draw(st.lists(line, max_size=30)))
    return x, f0, AhrContext(input_rate, alias)


class TestMeasureAhrBookkeeping:
    @settings(deadline=None, max_examples=60)
    @given(ahr_cases(), st.sampled_from([0, 256]))
    def test_matches_per_band_loops(self, case, edge_trim):
        """Same band counts, energies and AHR as the per-band loops."""
        x, f0, context = case
        assert measure_ahr(x, f0, context, edge_trim=edge_trim) == reference_measure_ahr(
            x, f0, context, edge_trim
        )


def reference_activation_lines(f0, rate):
    """The activation lines as they were built before alias_lines: the
    folds of the k*f0 at and above Nyquist, k = 1..K_CAP, in k order."""
    kf = np.arange(1, K_CAP + 1) * f0
    r = np.mod(kf[kf >= rate / 2.0], rate)
    return np.minimum(r, rate - r)


def reference_image_lines(f0, factor, input_rate, ks):
    """The upsampler lines as they were built before alias_lines: the
    distinct |n*Fs_in +- k*f0| for n = 1..L-1 within (0, L*Fs_in/2]."""
    n_fs = np.arange(1, factor)[:, None] * input_rate
    kf = np.asarray(ks, dtype=float) * f0
    f = np.abs(np.concatenate([n_fs - kf, n_fs + kf]).ravel())
    return np.unique(f[(f > 0.0) & (f <= factor * input_rate / 2.0)])


class TestAliasLines:
    """One lattice, n*Fs_in +- (k*f0 mod Fs_in) for n = 0..L, less the
    partials themselves, within (0, Fs_out/2]."""

    def test_at_one_rate_a_line_is_the_fold_of_its_partial(self):
        assert alias_lines(1.0, [24000.0], 44100, 44100) == (20100.0,)
        assert alias_lines(1.0, [22050.0], 44100, 44100) == (22050.0,)
        assert alias_lines(1.0, [44100.0 + 300.0], 44100, 44100) == (300.0,)
        assert alias_lines(1.0, [2 * 44100.0 - 300.0], 44100, 44100) == (300.0,)

    def test_partials_below_nyquist_are_not_lines(self):
        assert alias_lines(1000.0, [1, 2, 3], 44100, 44100) == ()

    def test_multiples_of_the_rate_fold_to_dc_and_are_dropped(self):
        assert alias_lines(44100.0, [1, 2], 44100, 44100) == ()

    def test_lines_are_distinct_and_ascending(self):
        """69100 Hz and 25000 Hz fold onto one line, 19100 Hz, and 24000 Hz
        onto 20100 Hz."""
        assert alias_lines(100.0, [691, 250, 240], 44100, 44100) == (19100.0, 20100.0)

    def test_a_partial_images_at_every_multiple_of_the_input_rate(self):
        assert alias_lines(1000.0, [1], 22050, 88200) == (21050.0, 23050.0, 43100.0)

    def test_a_partial_above_the_input_nyquist_images_from_its_fold(self):
        """12000 Hz at 22050 Hz is the fold 10050 Hz: both are lines."""
        assert alias_lines(1000.0, [12], 22050, 44100) == (10050.0, 12000.0)

    @pytest.mark.parametrize("input_rate,output_rate", [(22050, 44000), (44100, 22050), (0, 44100)])
    def test_output_rate_must_be_a_whole_multiple(self, input_rate, output_rate):
        with pytest.raises(ValueError, match="whole multiple"):
            alias_lines(1000.0, [1], input_rate, output_rate)

    def test_activation_lines_on_the_grid_are_the_old_folds(self):
        """For every note of the benchmark grid, the lines equal the folds
        of the k*f0 at and above Nyquist as a distinct set, float for float:
        the same residue and the same subtraction."""
        for note in benchmark_notes():
            f0 = midi_to_freq(note)
            want = reference_activation_lines(f0, RATE)
            assert activation_context(f0, RATE).alias_freqs == tuple(np.unique(want).tolist())
            assert np.unique(want).size == want.size  # no line counted twice before either

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_image_lines_of_the_present_partials_are_the_old_images(self, factor):
        """For every signal of the grid at L = 2, 3 and 4, the images of the
        partials its input holds equal |n*Fs_in +- k*f0| float for float,
        with the same count."""
        for signal in input_signals(benchmark_specs(), factor):
            ks, _ = partials(signal)
            got = image_context(signal, factor).alias_freqs
            want = reference_image_lines(signal.f0_hz, factor, signal.sample_rate, ks)
            assert got == tuple(want.tolist()), (signal, factor)


class TestActivationContext:
    @settings(deadline=None)
    @given(st.sampled_from([8000, 22050, 44100]), st.floats(1.0, 30000.0))
    def test_aliases_are_the_per_k_folds(self, rate, f0):
        """A nonlinearity's context: its input rate is the output rate, and
        its alias lines are the distinct nonzero folds of k*f0 at and above
        Nyquist, in ascending order."""
        context = activation_context(f0, rate)
        want = {_reference_fold(k * f0, rate) for k in range(1, K_CAP + 1) if k * f0 >= rate / 2.0}
        assert context.input_rate == rate
        assert context.alias_freqs == tuple(sorted(want - {0.0}))
        assert context.k_cap == K_CAP


class TestRatioDb:
    def test_ordinary_ratio(self):
        assert ratio_db(1.0, 1000.0) == 10.0 * math.log10(1e-3)
        assert ratio_db(5.0, 2.0) == 10.0 * math.log10(2.5)

    @pytest.mark.parametrize("num,den", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-1.0, 1.0), (1e-300, 1e300), (1.0, 1e130)])
    def test_silence_underflow_and_clamp_read_the_floor(self, num, den):
        assert ratio_db(num, den) == FLOOR_DB

    @pytest.mark.parametrize("num,den", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_non_finite_energy_is_a_numeric_error(self, num, den):
        """An overflowed spectrum never reads as a score: inf / inf would
        clamp nan to the floor, and x / inf would take log10(0)."""
        with pytest.raises(NumericError, match="non-finite band energy"):
            ratio_db(num, den)

    def test_overflowed_output_is_a_numeric_error(self):
        """Samples near the float maximum are finite, but their spectrum is not."""
        x = sine_buffer(1000.0, duration_s=1.0, amplitude=1e300)
        with pytest.raises(NumericError):
            measure_ahr(x, 1000.0, activation_context(1000.0, RATE), edge_trim=1024)


class TestMeasureAhr:
    def test_clean_sine_reads_below_minus_100(self):
        """A band-limited sine carries no alias lines; the only energy the
        alias bands collect is the fundamental's leakage skirt, far below
        anything a real nonlinearity produces."""
        x = gen_bandlimited(TestSignalSpec("sine", 60, duration_s=2.0))
        m = measure_ahr(x, midi_to_freq(60), activation_context(midi_to_freq(60), RATE), edge_trim=4096)
        assert m.ahr_db <= -100.0
        assert m.harmonic_bands == 84
        assert m.alias_bands == 428

    def test_custom_floor(self):
        """There is one clamp, FLOOR_DB: a planted image 200 dB below the
        fundamental carries energy but reads as the floor."""
        x = sine_buffer(1000.0, duration_s=2.0)
        y = AudioBuffer(x.samples + 1e-10 * sine_buffer(21050.0, duration_s=2.0).samples, RATE)
        ctx = AhrContext(22050, (21050.0,))
        m = measure_ahr(y, 1000.0, ctx, edge_trim=4096)
        assert m.alias_bands == 1 and m.alias_energy > 0.0
        assert m.ahr_db == FLOOR_DB

    def test_gain_invariance(self):
        """Scaling the output does not move the ratio."""
        f0 = midi_to_freq(107)
        x = gen_bandlimited(TestSignalSpec("sine", 107, duration_s=2.0))
        y = apply_activation(x, ActivationSpec("snakebeta"))
        a = measure_ahr(y, f0, activation_context(f0, RATE), edge_trim=4096).ahr_db
        b = measure_ahr(y.with_samples(y.samples * 3.7), f0, activation_context(f0, RATE), edge_trim=4096).ahr_db
        assert abs(a - b) <= 1e-9

    def test_phase_invariance(self):
        """Input phase only re-aligns leakage against the bin grid; the
        measured ratio moves by far less than a microdecibel."""
        f0 = midi_to_freq(107)
        vals = []
        for phase in (0.0, 0.37, 1.9):
            x = sine_buffer(f0, duration_s=2.0, amplitude=BENCH_AMPLITUDE, phase=phase)
            y = apply_activation(x, ActivationSpec("snakebeta"))
            vals.append(measure_ahr(y, f0, activation_context(f0, RATE), edge_trim=4096).ahr_db)
        assert max(vals) - min(vals) <= 1e-6

    def test_upsampler_context_measures_planted_image(self):
        """A -40 dB line at a declared image frequency reads as -40 dB."""
        x = sine_buffer(1000.0, duration_s=2.0)
        y = AudioBuffer(x.samples + 0.01 * sine_buffer(21050.0, duration_s=2.0).samples, RATE)
        ctx = AhrContext(22050, (21050.0,))
        m = measure_ahr(y, 1000.0, ctx, edge_trim=4096)
        assert m.harmonic_bands == 11  # k*1000 below the 11025 Hz input Nyquist
        assert m.alias_bands == 1
        assert abs(m.ahr_db - (-40.0)) <= 0.1

    def test_alias_band_near_dc_is_dropped(self):
        x = sine_buffer(1000.0, duration_s=2.0)
        ctx = AhrContext(22050, (0.5,))
        m = measure_ahr(x, 1000.0, ctx, edge_trim=4096)
        assert m.alias_bands == 0
        assert m.ahr_db == -120.0

    def test_alias_band_colliding_with_harmonic_is_dropped(self):
        x = sine_buffer(1000.0, duration_s=2.0)
        ctx = AhrContext(22050, (3000.2,))
        m = measure_ahr(x, 1000.0, ctx, edge_trim=4096)
        assert m.alias_bands == 0

    def test_image_touching_a_harmonic_band_is_dropped(self):
        """image_frequencies keeps an image 5 Hz from a harmonic, the image
        22050 - 11022.5 of the tenth harmonic of 1102.25 Hz; measure_ahr
        drops its band, which overlaps the harmonic's (+-3.3 Hz each)."""
        images = image_frequencies(1102.25, 2, 22050, (10,))
        assert images == (11027.5,)
        x = sine_buffer(1102.25, duration_s=2.0)
        m = measure_ahr(x, 1102.25, AhrContext(22050, images), edge_trim=4096)
        assert m.alias_bands == 0
        assert m.ahr_db == FLOOR_DB

    def test_added_noise_raises_ahr(self):
        f0 = midi_to_freq(60)
        x = gen_bandlimited(TestSignalSpec("sine", 60, duration_s=2.0))
        y = apply_activation(x, ActivationSpec("snakebeta"))
        clean = measure_ahr(y, f0, activation_context(f0, RATE), edge_trim=4096).ahr_db
        rng = np.random.default_rng(42)
        noisy = y.with_samples(y.samples + 1e-5 * rng.standard_normal(len(y)))
        assert measure_ahr(noisy, f0, activation_context(f0, RATE), edge_trim=4096).ahr_db > clean

    def test_empty_harmonic_set_rejected(self):
        x = sine_buffer(1000.0, duration_s=1.0)
        with pytest.raises(ValueError):
            measure_ahr(x, 30000.0, activation_context(30000.0, RATE), edge_trim=0)

    def test_nonpositive_f0_rejected(self):
        x = sine_buffer(1000.0, duration_s=1.0)
        with pytest.raises(ValueError):
            measure_ahr(x, 0.0, activation_context(0.0, RATE))


class TestAhrOracle:
    """Measured AHR vs the exact line-power prediction of perfbench/oracles.py."""

    @pytest.mark.parametrize(
        "spec,name",
        [(ActivationSpec("snakebeta"), "SnakeBeta"), (ActivationSpec("elu"), "ELU")],
        ids=["snakebeta", "elu"],
    )
    def test_pipeline_matches_analytic_prediction(self, spec, name):
        sig = TestSignalSpec("sine", 107)
        y = apply_activation(gen_bandlimited(sig), spec)
        measured = measure_ahr(y, sig.f0_hz, activation_context(sig.f0_hz, sig.sample_rate)).ahr_db
        _, scale = oracles.reference_signal("sine", 107)
        exact = oracles.activation_ahr(oracles.MEMORYLESS[name], "sine", 107, scale)
        assert abs(measured - exact) <= 0.05

    def test_memoryless_grid_matches_the_oracle(self, full_grid_run):
        """Every LeakyReLU, ELU and SnakeBeta (c=1) cell of the 144-signal
        benchmark, as run-activations computes it, is within 0.5 dB of the
        exact line powers, or within 0.5 dB of the floor where the exact
        value clamps (perfbench's rule). A Hann analysis with 4-bin bands and
        4x padding left 27 of these 432 cells off, by up to 65.7 dB: alias
        bands a few bins from a strong harmonic collected its sidelobes."""
        reports = [full_grid_run.reports[name] for name in oracles.MEMORYLESS]
        scales = {}
        off = []
        for report in reports:
            for row in report.per_signal:
                note = oracles.freq_note(row.f0_hz)
                if (row.waveform, note) not in scales:
                    scales[row.waveform, note] = oracles.reference_signal(row.waveform, note)[1]
                exact = oracles.activation_ahr(
                    oracles.MEMORYLESS[report.module_name], row.waveform, note, scales[row.waveform, note])
                floored = exact <= FLOOR_DB and row.ahr_db <= FLOOR_DB + 0.5
                if abs(row.ahr_db - exact) > 0.5 and not floored:
                    off.append(f"{report.module_name} {row.waveform} {note}: {row.ahr_db:.2f} vs {exact:.2f} dB")
        assert sum(len(r.per_signal) for r in reports) == 432
        assert not off, off

    def test_upsampler_grid_matches_the_oracle(self, upsampler_grid_run):
        """Every cell of the upsampler table's 14 layers at L = 2 (10
        ConvTranspose seeds, LinearInterp, NearestInterp, and
        AntiAliasedResample without and with its noise prior) on the
        144-signal benchmark, as upsampler_table computes it, is within
        0.01 dB of the exact image-line powers, taken from each layer's
        impulse response."""
        factor, rate_in = 2, RATE // 2
        layers = [UpsamplerSpec(**kw, name=name) for name, kw in checks.upsampler_layers(factor, 10, 0)]
        reports = upsampler_grid_run.reports
        assert [r.config_hash for r in reports] == [config_hash(layer) for layer in layers]
        off = []
        for layer, report in zip(layers, reports):
            h, _ = oracles.impulse_response(lambda x: apply_upsampler(AudioBuffer(x, rate_in), layer).samples, rate_in)
            for row in report.per_signal:
                note = oracles.freq_note(row.f0_hz)
                exact = oracles.upsampler_ahr(h, factor, row.waveform, note, rate_in, round(5.0 * rate_in))
                if abs(row.ahr_db - exact) > 0.01:
                    off.append(f"{layer.name} {row.waveform} {note}: {row.ahr_db:.4f} vs {exact:.4f} dB")
        assert sum(len(r.per_signal) for r in reports) == 2016
        assert not off, off


def unclamped_db(m: AhrMeasurement) -> float:
    """10 log10(alias / harmonic energy) without the FLOOR_DB clamp."""
    return 10.0 * math.log10(m.alias_energy / m.harmonic_energy) if m.alias_energy > 0.0 else -math.inf


class TestInstrumentFloor:
    """The analysis itself reads at least 10 dB below FLOOR_DB, so every
    FLOOR_DB cell of a table is a real "at least 120 dB down": a module
    that aliases nothing reads below FLOOR_DB - 10 dB on every signal of
    the grid, unclamped."""

    def test_identity_activation(self):
        high = []
        for signal in benchmark_specs():
            m = measure_ahr(gen_bandlimited(signal), signal.f0_hz,
                            activation_context(signal.f0_hz, signal.sample_rate))
            if not unclamped_db(m) < FLOOR_DB - 10.0:
                high.append(f"{signal.waveform} {signal.midi_note}: {unclamped_db(m):.1f} dB")
        assert not high, high

    def test_ideal_upsampler(self):
        """The ideal L = 2 upsampler's output is its input's partials
        synthesized directly at the output rate (perfbench's partial sum),
        measured against the images of those partials."""
        high = []
        for signal in input_signals(benchmark_specs(), 2):
            ks, amps = partials(signal)
            rate = 2 * signal.sample_rate
            y = oracles.raw_partial_sum(ks, amps, signal.f0_hz, rate, 2 * round(signal.duration_s * signal.sample_rate))
            m = measure_ahr(AudioBuffer(y, rate), signal.f0_hz, image_context(signal, 2))
            if not unclamped_db(m) < FLOOR_DB - 10.0:
                high.append(f"{signal.waveform} {signal.midi_note}: {unclamped_db(m):.1f} dB")
        assert not high, high


def stride_signals(bench):
    """Every 8th grid note from 60 (60, 68, ..., 100), all three waveforms,
    as bench.csv holds them: a fixed stride, chosen without regard to outcome."""
    return [s for s in load_bench_csv(bench / "bench.csv") if (s.midi_note - 60) % 8 == 0]


def activation_cells(reports):
    """Each per-signal AHR of the reports, keyed (module, waveform, f0)."""
    return {(r.module_name, row.waveform, row.f0_hz): row.ahr_db for r in reports for row in r.per_signal}


def worst_activation_move(signals, full_grid_run):
    """The built-in activation cell on signals that moves furthest from
    full_grid_run's (6 bins, 5 s), and its |move| in dB."""
    reference = activation_cells(full_grid_run.reports.values())
    reports = evaluate(signals, DEFAULT_ACTIVATIONS, apply_activation,
                       lambda s: activation_context(s.f0_hz, s.sample_rate))
    moves = {key: abs(db - reference[key]) for key, db in activation_cells(reports).items()}
    worst = max(moves, key=moves.get)
    return worst, moves[worst]


class TestMetricInvariance:
    """The AHR measures the module, not the instrument: on the stride of the
    grid, neither a wider band nor a shorter signal moves an activation
    cell by more than the bound."""

    def test_band_width(self, full_grid_run, monkeypatch):
        """8 bins in place of 6 move no cell by more than 0.01 dB."""
        monkeypatch.setattr(metrics, "BAND_HALF_WIDTH_BINS", 8)
        cell, move = worst_activation_move(stride_signals(full_grid_run.bench), full_grid_run)
        assert move <= 0.01, f"{cell}: {move:.4f} dB"

    def test_duration(self, full_grid_run):
        """Signals of 2.5 s move no cell by more than 0.25 dB from the 5 s ones."""
        signals = [replace(s, duration_s=2.5) for s in stride_signals(full_grid_run.bench)]
        cell, move = worst_activation_move(signals, full_grid_run)
        assert move <= 0.25, f"{cell}: {move:.4f} dB"


class TestBuildReport:
    def entries(self):
        return [
            SignalAhr("sine", 261.6, -100.0),
            SignalAhr("sine", 523.3, -80.0),
            SignalAhr("sawtooth", 261.6, -30.0),
            SignalAhr("triangle", 261.6, -60.0),
        ]

    def test_means_are_taken_in_db(self):
        r = build_report("M", "abc", self.entries())
        assert r.per_type_mean_db["sine"] == -90.0
        assert r.per_type_mean_db["sawtooth"] == -30.0
        assert_allclose(r.overall_mean_db, np.mean([-100.0, -80.0, -30.0, -60.0]))

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            build_report("M", "abc", [])


class TestSpectrogram:
    def test_shape_for_benchmark_settings(self):
        """4 s at 44.1 kHz with frame 1024, hop 256 gives 513 x 687."""
        x = AudioBuffer(np.zeros(4 * RATE), RATE)
        freqs, times, mags = spectrogram(x, 1024, 256)
        assert mags.shape == (513, 687)
        assert len(freqs) == 513 and len(times) == 687
        assert_allclose(times[1] - times[0], 256 / RATE)
        assert freqs[0] == 0.0 and freqs[-1] == RATE / 2

    def test_pure_tone_concentrates_on_one_row(self):
        x = sine_buffer(RATE / 1024 * 100, duration_s=0.5)  # exactly bin 100
        _, _, mags = spectrogram(x, 1024, 256)
        assert np.all(np.argmax(mags[:, 2:-2], axis=0) == 100)

    def test_sweep_ridge_rises_monotonically(self):
        """The peak row of an exponential sweep never steps downward by more
        than one bin of measurement jitter."""
        y = gen_sweep(20.0, 20000.0, 4.0, RATE)
        _, _, mags = spectrogram(y, 1024, 256)
        ridge = np.argmax(mags, axis=0)
        interior = ridge[5:-5]
        assert np.all(np.diff(interior) >= -1)
        assert interior[-1] > interior[0] + 300

    def test_bad_arguments_rejected(self):
        x = AudioBuffer(np.zeros(4096), RATE)
        with pytest.raises(ValueError):
            spectrogram(x, 256, 512)  # hop > frame
        with pytest.raises(ValueError):
            spectrogram(AudioBuffer(np.zeros(100), RATE), 1024, 256)


class TestSpectrogramExport:
    def test_file_pair_and_pgm_header(self, tmp_path):
        x = sine_buffer(1000.0, duration_s=4.0)
        csv_path, pgm_path = spectrogram_export(x, 1024, 256, tmp_path / "panel")
        assert csv_path.name == "panel.csv" and pgm_path.name == "panel.pgm"
        blob = pgm_path.read_bytes()
        header, rest = blob.split(b"255\n", 1)
        assert header == b"P5\n687 513\n"
        assert len(rest) == 687 * 513
        assert max(rest) == 255  # the ridge saturates the scale

    def test_silence_renders_black(self, tmp_path):
        x = AudioBuffer(np.zeros(2 * RATE), RATE)
        _, pgm_path = spectrogram_export(x, 1024, 256, tmp_path / "quiet")
        body = pgm_path.read_bytes().split(b"255\n", 1)[1]
        assert set(body) == {0}

    def test_csv_layout(self, tmp_path):
        x = sine_buffer(1000.0, duration_s=1.0)
        csv_path, _ = spectrogram_export(x, 1024, 256, tmp_path / "panel")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert header[0] == "time_s"
        assert len(header) == 1 + 513
        assert len(lines) == 1 + (len(x) - 1024) // 256 + 2
        assert float(lines[1].split(",")[0]) == 0.0

    def test_csv_matches_per_value_format(self, tmp_path):
        """The CSV bytes equal one f-string per value: 6 decimals for time,
        2 for dB, including cells that print as -0.00 and the -100.00 clamp."""
        x = sine_buffer(RATE / 1024 * 100, duration_s=0.5)  # exactly bin 100
        csv_path, _ = spectrogram_export(x, 1024, 256, tmp_path / "panel")
        freqs, times, mags = spectrogram(x, 1024, 256)
        db = np.clip(20.0 * np.log10(np.maximum(mags, mags.max() * 1e-10) / mags.max()), -100.0, 0.0)
        lines = ["time_s," + ",".join(f"{f:.3f}" for f in freqs)]
        for i, t in enumerate(times):
            lines.append(f"{t:.6f}," + ",".join(f"{v:.2f}" for v in db[:, i]))
        expected = "\n".join(lines) + "\n"
        assert ",-0.00," in expected and ",-100.00," in expected
        assert csv_path.read_bytes() == expected.encode()

    def test_db_cells_match_the_per_value_format(self):
        """The lookup gives "%.2f" % v string for string: at every rounding
        tie (k + 0.5)/100 and its 3 float neighbours on each side, at every
        m/800, at signed zeros and tiny negatives, at the neighbours of the
        end ties -0.005 and -99.995, at the -100 clamp and at 1 M uniform
        draws over [-100, 0]."""
        ties = (np.arange(-10000, 0) + 0.5) / 100
        values = [ties, np.arange(-80000, 1) / 800, [0.0, -0.0, -1e-300, -5e-324, -100.0],
                  np.random.default_rng(23).uniform(-100.0, 0.0, 1_000_000)]
        for direction in (-np.inf, np.inf):
            x = ties
            for _ in range(3):
                x = np.nextafter(x, direction)
                values.append(x)
        for end in (-0.005, -99.995):
            values.append([np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf)])
        v = np.concatenate(values)
        assert v.min() >= -100.0 and v.max() <= 0.0
        want = ["%.2f" % x for x in v.tolist()]
        got = db_cells(v)
        assert len(got) == len(want)
        assert [(x, g, w) for x, g, w in zip(v.tolist(), got, want) if g != w] == []

    def test_no_temp_files_left(self, tmp_path):
        spectrogram_export(sine_buffer(500.0), 1024, 256, tmp_path / "p")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "p.pgm"]
