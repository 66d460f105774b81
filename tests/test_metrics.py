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

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aliasbench.activations import ActivationSpec, apply_activation
from aliasbench.audio import AudioBuffer
from aliasbench.metrics import (
    BAND_HALF_WIDTH_BINS,
    FLOOR_DB,
    K_CAP,
    ActivationContext,
    AhrMeasurement,
    SignalAhr,
    SpectrumEstimate,
    UpsamplerContext,
    band_energy,
    band_mask,
    build_report,
    estimate_spectrum,
    fold_frequency,
    hann,
    measure_ahr,
    spectrogram,
    spectrogram_export,
)
from aliasbench.signals import (
    BENCH_AMPLITUDE,
    TestSignalSpec,
    gen_bandlimited,
    gen_sweep,
    midi_to_freq,
)
from aliasbench.upsamplers import image_frequencies

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

    def test_rect_window_satisfies_parseval(self):
        rng = np.random.default_rng(42)
        v = rng.standard_normal(5000)
        s = estimate_spectrum(AudioBuffer(v, 8000), window="rect")
        assert_allclose(s.total_power, np.mean(v**2), rtol=1e-12)

    def test_zero_padding_and_resolution(self):
        """nfft is the next power of two >= 4x the trimmed length."""
        s = estimate_spectrum(AudioBuffer(np.zeros(10000), RATE), edge_trim=500)
        assert s.data_len == 9000
        assert s.fft_size == 65536
        assert_allclose(s.resolution_hz, RATE / 9000)
        assert_allclose(s.bin_hz, RATE / 65536)
        assert len(s.bin_freqs) == len(s.power) == 65536 // 2 + 1

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            estimate_spectrum(AudioBuffer(np.zeros(1023), RATE))
        with pytest.raises(ValueError):
            estimate_spectrum(AudioBuffer(np.zeros(2000), RATE), edge_trim=600)

    def test_bad_arguments_rejected(self):
        x = AudioBuffer(np.zeros(4096), RATE)
        with pytest.raises(ValueError):
            estimate_spectrum(x, window="blackman")
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
    if isinstance(context, ActivationContext):
        nyq = output.sample_rate / 2.0
        harm = [k * f0 for k in ks if k * f0 < nyq]
        alias = [_reference_fold(k * f0, output.sample_rate) for k in ks if k * f0 >= nyq]
    else:
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
    s = SpectrumEstimate(freqs, np.ones(freqs.size), "rect", nfft, nfft, rate)
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
        return x, f0, ActivationContext()
    input_rate = rate // 2
    if f0 >= input_rate / 2.0:
        f0 = f0 / 2.0
    line = st.floats(0.0, 0.6 * rate) | st.floats(0.0, 10.0) | st.integers(1, 40).map(lambda k: k * f0)
    alias = tuple(draw(st.lists(line, max_size=30)))
    return x, f0, UpsamplerContext(input_rate=input_rate, alias_freqs=alias)


class TestMeasureAhrBookkeeping:
    @settings(deadline=None, max_examples=60)
    @given(ahr_cases(), st.sampled_from([0, 256]))
    def test_matches_per_band_loops(self, case, edge_trim):
        """Same band counts, energies and AHR as the per-band loops."""
        x, f0, context = case
        assert measure_ahr(x, f0, context, edge_trim=edge_trim) == reference_measure_ahr(
            x, f0, context, edge_trim
        )


class TestFoldFrequency:
    def test_reflection_about_nyquist(self):
        assert fold_frequency(24000.0, 44100) == pytest.approx(20100.0)

    def test_below_nyquist_unchanged(self):
        assert fold_frequency(1000.0, 44100) == 1000.0
        assert fold_frequency(22050.0, 44100) == 22050.0

    def test_multiples_of_rate_fold_to_dc(self):
        assert fold_frequency(44100.0, 44100) == 0.0
        assert fold_frequency(88200.0, 44100) == 0.0

    def test_second_zone(self):
        assert fold_frequency(44100.0 + 300.0, 44100) == pytest.approx(300.0)
        assert fold_frequency(2 * 44100.0 - 300.0, 44100) == pytest.approx(300.0)

    def test_negative_frequency(self):
        assert fold_frequency(-100.0, 44100) == pytest.approx(100.0)

    def test_array_folds_elementwise(self):
        freqs = np.array([-100.0, 1000.0, 22050.0, 24000.0, 44100.0, 88200.0 - 300.0])
        assert np.array_equal(fold_frequency(freqs, 44100), [_reference_fold(f, 44100) for f in freqs])


class TestMeasureAhr:
    def test_clean_sine_reads_below_minus_100(self):
        """A band-limited sine carries no alias lines; the only energy the
        alias bands collect is the fundamental's leakage skirt, far below
        anything a real nonlinearity produces."""
        x = gen_bandlimited(TestSignalSpec("sine", 60, duration_s=2.0))
        m = measure_ahr(x, midi_to_freq(60), ActivationContext(), edge_trim=4096)
        assert m.ahr_db <= -100.0
        assert m.harmonic_bands == 84
        assert m.alias_bands == 428

    def test_custom_floor(self):
        """There is one clamp, FLOOR_DB: a planted image 200 dB below the
        fundamental carries energy but reads as the floor."""
        x = sine_buffer(1000.0, duration_s=2.0)
        y = AudioBuffer(x.samples + 1e-10 * sine_buffer(21050.0, duration_s=2.0).samples, RATE)
        ctx = UpsamplerContext(input_rate=22050, alias_freqs=(21050.0,))
        m = measure_ahr(y, 1000.0, ctx, edge_trim=4096)
        assert m.alias_bands == 1 and m.alias_energy > 0.0
        assert m.ahr_db == FLOOR_DB

    def test_gain_invariance(self):
        """Scaling the output does not move the ratio."""
        f0 = midi_to_freq(107)
        x = gen_bandlimited(TestSignalSpec("sine", 107, duration_s=2.0))
        y = apply_activation(x, ActivationSpec("snakebeta"))
        a = measure_ahr(y, f0, ActivationContext(), edge_trim=4096).ahr_db
        b = measure_ahr(y.with_samples(y.samples * 3.7), f0, ActivationContext(), edge_trim=4096).ahr_db
        assert abs(a - b) <= 1e-9

    def test_phase_invariance(self):
        """Input phase only re-aligns leakage against the bin grid; the
        measured ratio moves by far less than a microdecibel."""
        f0 = midi_to_freq(107)
        vals = []
        for phase in (0.0, 0.37, 1.9):
            x = sine_buffer(f0, duration_s=2.0, amplitude=BENCH_AMPLITUDE, phase=phase)
            y = apply_activation(x, ActivationSpec("snakebeta"))
            vals.append(measure_ahr(y, f0, ActivationContext(), edge_trim=4096).ahr_db)
        assert max(vals) - min(vals) <= 1e-6

    def test_upsampler_context_measures_planted_image(self):
        """A -40 dB line at a declared image frequency reads as -40 dB."""
        x = sine_buffer(1000.0, duration_s=2.0)
        y = AudioBuffer(x.samples + 0.01 * sine_buffer(21050.0, duration_s=2.0).samples, RATE)
        ctx = UpsamplerContext(input_rate=22050, alias_freqs=(21050.0,))
        m = measure_ahr(y, 1000.0, ctx, edge_trim=4096)
        assert m.harmonic_bands == 11  # k*1000 below the 11025 Hz input Nyquist
        assert m.alias_bands == 1
        assert abs(m.ahr_db - (-40.0)) <= 0.1

    def test_alias_band_near_dc_is_dropped(self):
        x = sine_buffer(1000.0, duration_s=2.0)
        ctx = UpsamplerContext(input_rate=22050, alias_freqs=(0.5,))
        m = measure_ahr(x, 1000.0, ctx, edge_trim=4096)
        assert m.alias_bands == 0
        assert m.ahr_db == -120.0

    def test_alias_band_colliding_with_harmonic_is_dropped(self):
        x = sine_buffer(1000.0, duration_s=2.0)
        ctx = UpsamplerContext(input_rate=22050, alias_freqs=(3000.2,))
        m = measure_ahr(x, 1000.0, ctx, edge_trim=4096)
        assert m.alias_bands == 0

    def test_image_on_a_harmonic_is_dropped(self):
        """image_frequencies keeps an image that lands exactly on a harmonic
        (22050 - 12 * 1050 = 9 * 1050); measure_ahr drops its band."""
        images = image_frequencies(1050.0, 2, 22050, (12,))
        assert images == (9450.0,)
        x = sine_buffer(1050.0, duration_s=2.0)
        m = measure_ahr(x, 1050.0, UpsamplerContext(input_rate=22050, alias_freqs=images), edge_trim=4096)
        assert m.alias_bands == 0
        assert m.ahr_db == FLOOR_DB

    def test_added_noise_raises_ahr(self):
        f0 = midi_to_freq(60)
        x = gen_bandlimited(TestSignalSpec("sine", 60, duration_s=2.0))
        y = apply_activation(x, ActivationSpec("snakebeta"))
        clean = measure_ahr(y, f0, ActivationContext(), edge_trim=4096).ahr_db
        rng = np.random.default_rng(42)
        noisy = y.with_samples(y.samples + 1e-5 * rng.standard_normal(len(y)))
        assert measure_ahr(noisy, f0, ActivationContext(), edge_trim=4096).ahr_db > clean

    def test_empty_harmonic_set_rejected(self):
        x = sine_buffer(1000.0, duration_s=1.0)
        with pytest.raises(ValueError):
            measure_ahr(x, 30000.0, ActivationContext(), edge_trim=0)

    def test_nonpositive_f0_rejected(self):
        x = sine_buffer(1000.0, duration_s=1.0)
        with pytest.raises(ValueError):
            measure_ahr(x, 0.0, ActivationContext())


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
        measured = measure_ahr(y, sig.f0_hz, ActivationContext()).ahr_db
        _, scale = oracles.reference_signal("sine", 107)
        exact = oracles.activation_ahr(oracles.MEMORYLESS[name], "sine", 107, scale)
        assert abs(measured - exact) <= 0.05


class TestBuildReport:
    def entries(self):
        return [
            SignalAhr("sine", 261.6, -100.0, 1, 10),
            SignalAhr("sine", 523.3, -80.0, 1, 12),
            SignalAhr("sawtooth", 261.6, -30.0, 84, 20),
            SignalAhr("triangle", 261.6, -60.0, 42, 20),
        ]

    def test_means_are_taken_in_db(self):
        r = build_report("M", "abc", self.entries())
        assert r.per_type_mean_db["sine"] == -90.0
        assert r.per_type_mean_db["sawtooth"] == -30.0
        assert_allclose(r.overall_mean_db, np.mean([-100.0, -80.0, -30.0, -60.0]))

    def test_band_counts_accumulate(self):
        r = build_report("M", "abc", self.entries())
        assert r.harmonic_band_count == 128
        assert r.alias_band_count == 62

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

    def test_no_temp_files_left(self, tmp_path):
        spectrogram_export(sine_buffer(500.0), 1024, 256, tmp_path / "p")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "p.pgm"]
