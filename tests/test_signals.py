"""Tests for test-signal synthesis: pitch mapping, band-limited waveforms,
the exponential sweep, and the benchmark grid."""

import numpy as np
import oracles
import pytest
from numpy.testing import assert_allclose
from scipy.signal import hilbert

from aliasbench.metrics import K_CAP
from aliasbench.signals import (
    BENCH_AMPLITUDE,
    MAX_SIGNAL_SAMPLES,
    TestSignalSpec,
    WAVEFORMS,
    benchmark_notes,
    benchmark_specs,
    gen_bandlimited,
    gen_sweep,
    harmonic_cap_hz,
    harmonic_numbers,
    midi_to_freq,
    partial_series,
    partials,
    sample_count,
)


def projected_amplitude(samples, sample_rate, freq):
    """Amplitude of the partial at `freq`, via a Hann-weighted projection.

    Independent of the synthesis code: correlate against a complex
    exponential and normalize by the window sum.
    """
    n = len(samples)
    t = np.arange(n) / sample_rate
    w = np.hanning(n)
    z = np.sum(w * samples * np.exp(-2j * np.pi * freq * t))
    return 2.0 * np.abs(z) / np.sum(w)


class TestMidiToFreq:
    def test_concert_a(self):
        """MIDI 69 is A4 = 440 Hz by definition."""
        assert midi_to_freq(69) == 440.0

    def test_c4(self):
        """MIDI 60 (C4) is 261.6256 Hz under 12-TET."""
        assert_allclose(midi_to_freq(60), 261.6255653005986, rtol=1e-12)

    def test_b7(self):
        """MIDI 107 (B7) is 3951.07 Hz, the top of the benchmark range."""
        assert_allclose(midi_to_freq(107), 3951.066410048992, rtol=1e-12)

    def test_octave_doubles(self):
        """Adding 12 semitones doubles the frequency."""
        for note in (60, 69, 83):
            assert_allclose(midi_to_freq(note + 12), 2 * midi_to_freq(note), rtol=1e-12)


class TestSpecValidation:
    def test_rejects_unknown_waveform(self):
        with pytest.raises(ValueError):
            TestSignalSpec("square", 60)

    def test_rejects_out_of_range_note(self):
        with pytest.raises(ValueError):
            TestSignalSpec("sine", 59)
        with pytest.raises(ValueError):
            TestSignalSpec("sine", 108)

    def test_f0_matches_midi(self):
        spec = TestSignalSpec("sine", 69)
        assert spec.f0_hz == 440.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            TestSignalSpec("sine", 60, duration_s=0.0)

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf"), 1e308])
    def test_rejects_duration_without_a_finite_sample_count(self, duration_s):
        """nan and inf, and 1e308 s whose sample count overflows a float."""
        with pytest.raises(ValueError, match="duration_s"):
            TestSignalSpec("sine", 60, duration_s=duration_s)

    @pytest.mark.parametrize("sample_rate", [0, -44100])
    def test_rejects_nonpositive_sample_rate(self, sample_rate):
        with pytest.raises(ValueError, match="sample_rate"):
            TestSignalSpec("sine", 60, sample_rate=sample_rate)

    @pytest.mark.parametrize("duration_s,sample_rate,field", [
        (1e300, 44100, "duration_s"),
        ((MAX_SIGNAL_SAMPLES + 1) / 44100, 44100, "duration_s"),
        (1.0, 10**18, "sample_rate"),
        (0.5, MAX_SIGNAL_SAMPLES + 1, "sample_rate"),
    ])
    def test_rejects_a_signal_above_the_size_bound(self, duration_s, sample_rate, field):
        """More than MAX_SIGNAL_SAMPLES samples, or a higher rate, is refused
        before anything is allocated."""
        with pytest.raises(ValueError, match=f"{field} .* above {MAX_SIGNAL_SAMPLES}"):
            TestSignalSpec("sine", 60, duration_s=duration_s, sample_rate=sample_rate)

    def test_the_size_bound_itself_is_allowed(self):
        TestSignalSpec("sine", 60, duration_s=MAX_SIGNAL_SAMPLES / 44100)
        TestSignalSpec("sine", 60, duration_s=1.0, sample_rate=MAX_SIGNAL_SAMPLES)


class TestHarmonicCap:
    def test_long_signal_uses_50hz_guard(self):
        """For benchmark-length signals the cap sits 50 Hz below Nyquist."""
        assert harmonic_cap_hz(44100, 220500) == 22000.0

    def test_short_signal_uses_resolution_guard(self):
        """Short signals back the cap off by four analysis bins instead."""
        assert harmonic_cap_hz(44100, 441) == 22050.0 - 400.0


class TestPartialSeries:
    def test_sine_is_single_partial(self):
        ks, amps = partial_series("sine", 1000.0, 22000.0)
        assert list(ks) == [1]
        assert_allclose(amps, [1.0])

    def test_sawtooth_follows_inverse_k_law(self):
        """Sawtooth partial k has amplitude (2/pi)(-1)^(k+1)/k."""
        ks, amps = partial_series("sawtooth", 1000.0, 22000.0)
        assert list(ks) == list(range(1, 22))
        expected = (2 / np.pi) * (-1.0) ** (ks + 1) / ks
        assert_allclose(amps, expected, rtol=1e-12)

    def test_partial_exactly_at_cap_is_excluded(self):
        """The cap is strict; A4's 50th partial sits exactly on the benchmark
        cap (50 * 440 = 22000 Hz) and must not be synthesized."""
        ks, _ = partial_series("sawtooth", 440.0, 22000.0)
        assert ks[-1] == 49
        ks, _ = partial_series("sawtooth", 440.0, 22000.0 + 1e-6)
        assert ks[-1] == 50

    def test_triangle_has_odd_partials_with_inverse_k2_law(self):
        ks, amps = partial_series("triangle", 1000.0, 22000.0)
        assert all(k % 2 == 1 for k in ks)
        expected = (8 / np.pi**2) * np.where(ks % 4 == 1, 1.0, -1.0) / ks.astype(float) ** 2
        assert_allclose(amps, expected, rtol=1e-12)

    def test_no_partial_above_cap(self):
        ks, _ = partial_series("sawtooth", 999.0, 5000.0)
        assert max(ks) * 999.0 < 5000.0


class TestHarmonicNumbersToTheCap:
    """The waveform law's harmonic numbers, of which partial_series keeps
    those below the cap."""

    def test_sine(self):
        assert harmonic_numbers("sine", K_CAP).tolist() == [1]

    def test_sawtooth_runs_to_cap(self):
        ks = harmonic_numbers("sawtooth", K_CAP)
        assert ks[0] == 1 and ks[-1] == 512 and len(ks) == 512

    def test_triangle_odd_only_to_cap(self):
        ks = harmonic_numbers("triangle", K_CAP)
        assert ks.tolist() == list(range(1, 512, 2))


class TestGenBandlimited:
    def test_peak_is_minus_one_dbfs(self):
        """Every signal is peak-normalized to 10^(-1/20)."""
        for waveform in WAVEFORMS:
            buf = gen_bandlimited(TestSignalSpec(waveform, 72, duration_s=0.5))
            assert_allclose(np.max(np.abs(buf.samples)), BENCH_AMPLITUDE, rtol=1e-12)

    def test_sine_matches_reference(self):
        """Over several synthesis blocks, a sine is sin(2 pi f0 t) scaled to
        the peak, bit for bit, so sine WAVs never depend on the evaluation."""
        spec = TestSignalSpec("sine", 69, duration_s=1.0)
        buf = gen_bandlimited(spec)
        t = np.arange(len(buf)) / 44100
        ref = np.sin(2 * np.pi * 440.0 * t)
        ref *= BENCH_AMPLITUDE / np.max(np.abs(ref))
        assert np.array_equal(buf.samples, ref)

    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_matches_oracle_partial_sum(self, waveform):
        """Every signal of the benchmark stride (notes 67, 75, ..., 107) is
        within 1e-9 of the oracle's partial sum, which evaluates the same law
        by Horner's rule on exp(i theta) with the phase reduced mod 2 pi."""
        for note in range(67, 108, 8):
            ref, _ = oracles.reference_signal(waveform, note)
            got = gen_bandlimited(TestSignalSpec(waveform, note)).samples
            assert np.max(np.abs(got - ref)) <= 1e-9, (waveform, note)

    def test_fundamental_between_the_cap_and_nyquist_is_refused(self):
        """B7 at 8 kHz for 0.5 s sits below Nyquist (4000 Hz) but above the
        cap (3950 Hz), so it would have no partial: synthesized, it would be
        silence, and silence reads as a perfect score. The spec is refused."""
        assert partial_series("sawtooth", midi_to_freq(107), harmonic_cap_hz(8000, 4000))[0].size == 0
        with pytest.raises(ValueError, match="not below the partial cap 3950.00 Hz"):
            TestSignalSpec("sawtooth", 107, sample_rate=8000, duration_s=0.5)

    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_partials_are_those_below_the_specs_cap(self, waveform):
        """partials(spec) is the set gen_bandlimited sums and image_context
        images: the law's partials below the cap at the spec's rate and
        length, never empty."""
        for spec in (TestSignalSpec(waveform, 107, sample_rate=8820), TestSignalSpec(waveform, 60, duration_s=0.05)):
            ks, amps = partials(spec)
            cap = harmonic_cap_hz(spec.sample_rate, len(gen_bandlimited(spec)))
            want_ks, want_amps = partial_series(waveform, spec.f0_hz, cap)
            assert ks.size > 0
            assert np.array_equal(ks, want_ks) and np.array_equal(amps, want_amps)

    def test_sawtooth_partial_ratios(self):
        """Projected partial amplitudes follow the 1/k law (gain-invariant)."""
        spec = TestSignalSpec("sawtooth", 60, duration_s=1.0)
        buf = gen_bandlimited(spec)
        a1 = projected_amplitude(buf.samples, 44100, spec.f0_hz)
        for k in (2, 3, 5, 10):
            ak = projected_amplitude(buf.samples, 44100, k * spec.f0_hz)
            assert_allclose(ak / a1, 1.0 / k, rtol=5e-3)

    def test_triangle_partial_ratios(self):
        spec = TestSignalSpec("triangle", 60, duration_s=1.0)
        buf = gen_bandlimited(spec)
        a1 = projected_amplitude(buf.samples, 44100, spec.f0_hz)
        for k in (3, 5, 9):
            ak = projected_amplitude(buf.samples, 44100, k * spec.f0_hz)
            assert_allclose(ak / a1, 1.0 / k**2, rtol=5e-3)
        # even partials are absent
        a2 = projected_amplitude(buf.samples, 44100, 2 * spec.f0_hz)
        assert a2 < 1e-4 * a1

    def test_band_limited_no_content_above_cap(self):
        """Partials stop below the harmonic cap, so a projection just above
        Nyquist-minus-guard sees only leakage."""
        spec = TestSignalSpec("sawtooth", 107, duration_s=1.0)
        buf = gen_bandlimited(spec)
        cap = harmonic_cap_hz(44100, len(buf))
        ks, _ = partial_series("sawtooth", spec.f0_hz, cap)
        top = ks[-1] * spec.f0_hz
        assert top < cap
        above = projected_amplitude(buf.samples, 44100, (ks[-1] + 1) * spec.f0_hz)
        a1 = projected_amplitude(buf.samples, 44100, spec.f0_hz)
        assert above < 1e-5 * a1

    def test_rejects_fundamental_at_or_above_nyquist(self):
        """The spec itself is refused, so no signal above Nyquist can be asked for."""
        with pytest.raises(ValueError, match="not below the partial cap"):
            TestSignalSpec("sine", 96, sample_rate=4000, duration_s=0.5)

    def test_deterministic(self):
        spec = TestSignalSpec("triangle", 80, duration_s=0.5)
        a = gen_bandlimited(spec)
        b = gen_bandlimited(spec)
        assert np.array_equal(a.samples, b.samples)


class TestGenSweep:
    def test_constant_sweep_is_a_sine(self):
        """f_start == f_end degenerates to a plain sine at that frequency."""
        buf = gen_sweep(1000.0, 1000.0, 0.5, 44100)
        t = np.arange(len(buf)) / 44100
        assert_allclose(buf.samples, np.sin(2 * np.pi * 1000.0 * t), atol=1e-9)

    def test_instantaneous_frequency_tracks_exponential(self):
        """The analytic-signal instantaneous frequency follows
        f(t) = f0 * (f1/f0)^(t/T) within 0.1% away from the edges."""
        f0, f1, T, fs = 20.0, 20000.0, 4.0, 44100
        buf = gen_sweep(f0, f1, T, fs)
        phase = np.unwrap(np.angle(hilbert(buf.samples)))
        inst = np.diff(phase) * fs / (2 * np.pi)
        t = (np.arange(len(inst)) + 0.5) / fs
        expected = f0 * (f1 / f0) ** (t / T)
        for t_probe in (0.05, 0.5, 2.0, 3.5):
            sl = slice(int(t_probe * fs), int(t_probe * fs) + 4096)
            assert_allclose(np.mean(inst[sl]), np.mean(expected[sl]), rtol=1e-3)

    def test_samples_follow_exact_phase_integral(self):
        """The sweep is sin of the exact integral of f0*(f1/f0)^(t/T); comparing
        against that closed form checks both endpoints and everything between
        (the Hilbert estimate above is too edge-biased to probe the ends)."""
        f0, f1, T, fs = 100.0, 5000.0, 2.0, 44100
        buf = gen_sweep(f0, f1, T, fs)
        t = np.arange(len(buf.samples)) / fs
        r = f1 / f0
        phi = 2 * np.pi * f0 * T / np.log(r) * (r ** (t / T) - 1.0)
        assert_allclose(buf.samples, np.sin(phi), atol=1e-9)

    def test_unit_amplitude(self):
        buf = gen_sweep(100.0, 1000.0, 0.5, 44100)
        assert np.max(np.abs(buf.samples)) <= 1.0 + 1e-12


class TestBenchmarkGrid:
    def test_loguniform48_is_the_chromatic_c4_to_b7_grid(self):
        """48 log-uniform notes over [C4, B7] coincide with MIDI 60..107."""
        assert benchmark_notes() == list(range(60, 108))

    def test_benchmark_specs_counts_and_order(self):
        """144 signals, every waveform at every grid note, grouped by
        waveform in declaration order then by ascending note, every signal
        5 s at 44.1 kHz."""
        specs = benchmark_specs()
        assert len(specs) == 144
        keys = [(WAVEFORMS.index(s.waveform), s.midi_note) for s in specs]
        assert keys == sorted(keys)
        assert set(keys) == {(w, n) for w in range(3) for n in benchmark_notes()}
        assert {sample_count(s.duration_s, s.sample_rate) for s in specs} == {220500}
        assert {s.sample_rate for s in specs} == {44100}
