"""Acceptance suite: eleven release gates, one test each.

Every test computes its measurement, registers a PASS/FAIL line for the
terminal summary (so a full run always prints the complete scorecard), and
then asserts. The activation criteria read one run-activations run over the
full grid (conftest.full_grid_run), which the whole session shares; criterion
11 repeats it at another thread count. The upsampler fixture hands evaluate
the signal specs, as run-upsamplers does, so a signal exists only while its
layers run, and only the small result tables stay resident.

Criterion 4 ranks the activation table. On overall means (dB) AdaaSnakeBeta
(-90.38) is below ELU (-61.49) and SnakeBeta (-69.11), both of which are
below LeakyReLU (-40.36) by at least 10 dB. ELU and SnakeBeta are ranked per
waveform (measured / exact line-power oracle): ELU wins on sawtooth
(-32.54 / -32.54 against -22.99 / -22.99) and triangle (-71.50 / -71.50
against -68.73 / -68.73); SnakeBeta wins on sine (-115.60 / -115.60 against
-80.44 / -80.44), and the measured sine order must match the oracle's. At
alpha = beta = 1, SnakeBeta's harmonics on a sine are Bessel values
J_2m(1.78) that fall faster than any power of k, while ELU's jump in second
derivative at 0 leaves a k^-3 tail.
"""

import json
import os
import time

import numpy as np
import oracles
import pytest
from conftest import record_criterion
from numpy.polynomial.legendre import leggauss

from aliasbench.activations import (
    adaa_grad_bounds,
    adaa_snakebeta,
    adaa_snakebeta_grad,
    oversampled_apply,
    relu_sine_fourier,
    snakebeta,
)
from aliasbench.audio import AudioBuffer
from aliasbench.bench import upsampler_table
from aliasbench.cli import EXIT_OK, main
from aliasbench.filters import frequency_response, interp_kernel
from aliasbench.metrics import band_energy, estimate_spectrum
from aliasbench.signals import benchmark_notes, benchmark_specs

TABLE_ACTIVATIONS = ("LeakyReLU", "ELU", "SnakeBeta", "AdaaSnakeBeta")
WAVEFORM_ORDER = ("sine", "sawtooth", "triangle")


@pytest.fixture(scope="module")
def upsampler_run():
    """The four upsampler modules at L=2 over the regenerated benchmark."""
    t0 = time.perf_counter()
    rows, _ = upsampler_table(benchmark_specs(), factor=2, n_seeds=10, base_seed=0, threads=1)
    elapsed = time.perf_counter() - t0
    return {row.module: row for row in rows}, elapsed


class TestCriterion1:
    def test_relu_fourier_through_64x_pipeline(self):
        """DC, fundamental, and the first four even harmonics of relu(sine)
        match the closed-form series through the 64x oversampled pipeline."""
        t0 = time.perf_counter()
        rate, f0 = 44100, 100.0
        t = np.arange(rate) / rate
        x = AudioBuffer(np.sin(2 * np.pi * f0 * t), rate)
        y = oversampled_apply(x, lambda b: b.with_samples(np.maximum(b.samples, 0.0)), 64)
        s = estimate_spectrum(y, edge_trim=8192)
        hw = 4 * s.resolution_hz

        targets = [(0.0, relu_sine_fourier(0)), (f0, relu_sine_fourier(1))]
        targets += [(2 * k * f0, relu_sine_fourier(2 * k)) for k in range(1, 5)]
        rel_errs = []
        for freq, expected in targets:
            e = band_energy(s, freq, hw)
            measured = np.sqrt(e) if freq == 0.0 else np.sqrt(2.0 * e)
            rel_errs.append(abs(measured - expected) / expected)
        worst = max(rel_errs)
        elapsed = time.perf_counter() - t0

        passed = worst <= 0.01 and elapsed < 5.0
        record_criterion(
            1, passed, f"relu Fourier amplitudes: worst rel err {worst:.2e} (<= 1e-2), {elapsed:.2f} s"
        )
        assert worst <= 0.01
        assert elapsed < 5.0


class TestCriterion2:
    def test_adaa_matches_quadrature_on_1e4_pairs(self):
        """Closed-form ADAA vs 256-node Gauss-Legendre segment averages."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        n = 10**4
        x_t = rng.uniform(-3.0, 3.0, n)
        x_prev = rng.uniform(-3.0, 3.0, n)
        alpha = rng.uniform(0.1, 10.0, n)
        beta = rng.uniform(0.1, 10.0, n)

        nodes, weights = leggauss(256)
        u = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        seg = x_prev[:, None] + u[None, :] * (x_t - x_prev)[:, None]
        quadrature = (snakebeta(seg, alpha[:, None], beta[:, None]) * w[None, :]).sum(axis=1)
        got = adaa_snakebeta(x_t, x_prev, alpha, beta)
        worst = float(np.max(np.abs(got - quadrature)))
        elapsed = time.perf_counter() - t0

        passed = worst <= 1e-8 and elapsed < 10.0
        record_criterion(
            2, passed, f"ADAA vs quadrature on 1e4 pairs: max abs err {worst:.2e} (<= 1e-8), {elapsed:.2f} s"
        )
        assert worst <= 1e-8
        assert elapsed < 10.0


class TestCriterion3:
    def test_gradients_match_fd_and_stay_in_bounds(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        n = 10**5
        x_t = rng.uniform(-3.0, 3.0, n)
        x_prev = np.where(rng.uniform(size=n) < 0.05, x_t, rng.uniform(-3.0, 3.0, n))
        alpha = rng.uniform(0.1, 10.0, n)
        beta = rng.uniform(0.1, 10.0, n)
        h = 1e-6

        g_t, g_p = adaa_snakebeta_grad(x_t, x_prev, alpha, beta)
        fd_t = (
            adaa_snakebeta(x_t + h, x_prev, alpha, beta)
            - adaa_snakebeta(x_t - h, x_prev, alpha, beta)
        ) / (2 * h)
        fd_p = (
            adaa_snakebeta(x_t, x_prev + h, alpha, beta)
            - adaa_snakebeta(x_t, x_prev - h, alpha, beta)
        ) / (2 * h)
        worst_fd = float(max(np.max(np.abs(g_t - fd_t)), np.max(np.abs(g_p - fd_p))))

        lo, hi = adaa_grad_bounds(alpha, beta)
        in_bounds = bool(
            np.all(g_t >= lo) and np.all(g_t <= hi) and np.all(g_p >= lo) and np.all(g_p <= hi)
        )
        elapsed = time.perf_counter() - t0

        passed = worst_fd <= 1e-6 and in_bounds and elapsed < 10.0
        record_criterion(
            3,
            passed,
            f"gradients on 1e5 pairs: max FD err {worst_fd:.2e} (<= 1e-6), "
            f"bounds {'exact' if in_bounds else 'VIOLATED'}, {elapsed:.2f} s",
        )
        assert worst_fd <= 1e-6
        assert in_bounds
        assert elapsed < 10.0


class TestCriterion4:
    def test_activation_table_ordering(self, full_grid_run):
        """Activation-table ranking, leg by leg (measured / oracle, dB).

        Overall means: AdaaSnakeBeta (-90.38) below both ELU (-61.49 /
        -61.49) and SnakeBeta (-69.11 / -69.11), both of those below
        LeakyReLU (-40.36), and LeakyReLU at least 10 dB worse than every
        other row.

        ELU against SnakeBeta is ranked per waveform, because the exact line
        powers rank the two differently per waveform:

        * sawtooth: ELU (-32.54 / -32.54) < SnakeBeta (-22.99 / -22.99);
        * triangle: ELU (-71.50 / -71.50) < SnakeBeta (-68.73 / -68.73);
        * sine: SnakeBeta (-115.60 / -115.60) < ELU (-80.44 / -80.44), and
          the measured order must equal the order of the oracle means.

        The sine leg is physics. At alpha = beta = 1, SnakeBeta on
        A sin(theta) is A sin(theta) + (1 - cos(2A sin(theta)))/2, whose
        harmonics are the Bessel values J_2m(2A), 2A = 1.78, which fall
        faster than any power of k. ELU's second derivative jumps at 0, so
        its harmonics fall only as k^-3. The sine gap (35.2 dB) outweighs
        ELU's sawtooth and triangle wins, so SnakeBeta has the lower overall
        mean.

        The sine oracle means are computed here with perfbench/oracles.py's
        dense single-period FFT. The sawtooth and triangle oracle values come
        from the same bookkeeping fed the partials of partial_series with
        gen_bandlimited's peak normalization.
        """
        reports, elapsed = full_grid_run.reports, full_grid_run.elapsed
        means = {name: reports[name].overall_mean_db for name in TABLE_ACTIVATIONS}
        adaa, elu_db = means["AdaaSnakeBeta"], means["ELU"]
        snake, leaky = means["SnakeBeta"], means["LeakyReLU"]
        elu_col = reports["ELU"].per_type_mean_db
        snake_col = reports["SnakeBeta"].per_type_mean_db
        scales = {note: oracles.reference_signal("sine", note)[1] for note in benchmark_notes()}
        oracle_sine = {
            name: float(np.mean([
                oracles.activation_ahr(oracles.MEMORYLESS[name], "sine", note, scale)
                for note, scale in scales.items()
            ]))
            for name in ("SnakeBeta", "ELU")
        }
        oracle_snake_first = oracle_sine["SnakeBeta"] < oracle_sine["ELU"]

        legs = {
            "Adaa < ELU": adaa < elu_db,
            "Adaa < SnakeBeta": adaa < snake,
            "ELU < LeakyReLU": elu_db < leaky,
            "SnakeBeta < LeakyReLU": snake < leaky,
            "sawtooth ELU < SnakeBeta": elu_col["sawtooth"] < snake_col["sawtooth"],
            "triangle ELU < SnakeBeta": elu_col["triangle"] < snake_col["triangle"],
            "sine SnakeBeta < ELU": snake_col["sine"] < elu_col["sine"],
            "sine order as oracle": (snake_col["sine"] < elu_col["sine"]) == oracle_snake_first,
        }
        failed = [leg for leg, ok in legs.items() if not ok]
        gap = leaky - max(adaa, elu_db, snake)
        gap_ok = gap >= 10.0
        time_ok = elapsed < 300.0

        detail = (
            f"overall Adaa {adaa:.2f} < {{ELU {elu_db:.2f}, Snake {snake:.2f}}} < Leaky {leaky:.2f} dB; "
            f"sawtooth ELU {elu_col['sawtooth']:.2f} < Snake {snake_col['sawtooth']:.2f}; "
            f"triangle ELU {elu_col['triangle']:.2f} < Snake {snake_col['triangle']:.2f}; "
            f"sine Snake {snake_col['sine']:.2f} < ELU {elu_col['sine']:.2f} "
            f"(oracle {oracle_sine['SnakeBeta']:.2f} < {oracle_sine['ELU']:.2f}); "
            f"legs {'all ok' if not failed else 'FAILED: ' + ', '.join(failed)}; "
            f"gap {gap:.1f} dB (>= 10); {elapsed:.1f} s"
        )
        record_criterion(4, not failed and gap_ok and time_ok, detail)
        assert gap_ok, detail
        assert time_ok, detail
        assert not failed, detail


class TestCriterion5:
    def test_upsampler_table_ordering(self, upsampler_run):
        rows, elapsed = upsampler_run
        aa = rows["AntiAliasedResample"].average_db
        lin = rows["LinearInterp"].average_db
        near = rows["NearestInterp"].average_db
        conv = rows["ConvTranspose"].average_db

        ordering = aa < lin < near
        rank_worst_first = sorted([aa, lin, near, conv], reverse=True)
        conv_rank_ok = conv in rank_worst_first[:2]
        time_ok = elapsed < 300.0

        detail = (
            f"means AA {aa:.2f} < Linear {lin:.2f} < Nearest {near:.2f}, Conv {conv:.2f} "
            f"(rank {'worst/second-worst ok' if conv_rank_ok else 'BAD'}); {elapsed:.1f} s"
        )
        record_criterion(5, ordering and conv_rank_ok and time_ok, detail)
        assert ordering, detail
        assert conv_rank_ok, detail
        assert time_ok, detail


class TestCriterion6:
    def test_per_waveform_dominance(self, full_grid_run, upsampler_run):
        reports = full_grid_run.reports
        rows, _ = upsampler_run
        failures = []
        for waveform in WAVEFORM_ORDER:
            aa = rows["AntiAliasedResample"].per_type_db[waveform]
            near = rows["NearestInterp"].per_type_db[waveform]
            if not aa < near:
                failures.append(f"AA {aa:.2f} !< Nearest {near:.2f} on {waveform}")
            adaa = reports["AdaaSnakeBeta"].per_type_mean_db[waveform]
            snake = reports["SnakeBeta"].per_type_mean_db[waveform]
            if not adaa < snake:
                failures.append(f"Adaa {adaa:.2f} !< Snake {snake:.2f} on {waveform}")
        detail = "; ".join(failures) if failures else "AA < Nearest and Adaa < Snake on all three waveforms"
        record_criterion(6, not failures, detail)
        assert not failures, detail


class TestCriterion7:
    def test_adaa_c2_rivals_snakebeta_c4(self, full_grid_run):
        reports = full_grid_run.reports
        adaa_c2 = reports["AdaaSnakeBeta"].overall_mean_db
        snake_c4 = reports["SnakeBeta_c4"].overall_mean_db
        passed = adaa_c2 <= snake_c4 + 3.0
        detail = f"AdaaSnakeBeta(c2) {adaa_c2:.2f} dB vs SnakeBeta(c4) {snake_c4:.2f} dB (+3 dB allowance)"
        record_criterion(7, passed, detail)
        assert passed, detail


class TestCriterion8:
    def test_tonal_probe_separation(self, upsampler_run):
        rows, _ = upsampler_run
        conv = rows["ConvTranspose"].tonal_line_db
        aa = rows["AntiAliasedResample"].tonal_line_db
        diff = conv - aa
        passed = diff >= 40.0
        detail = f"tonal lines: Conv {conv:.2f} dB vs AA {aa:.2f} dB, separation {diff:.1f} dB (>= 40)"
        record_criterion(8, passed, detail)
        assert passed, detail


class TestCriterion9:
    def test_equal_sample_identity_on_1e6_grid(self):
        x = np.linspace(-40.0, 40.0, 10**6)
        worst = float(np.max(np.abs(adaa_snakebeta(x, x) - snakebeta(x))))
        passed = worst <= 1e-12
        record_criterion(9, passed, f"adaa(x,x) vs snakebeta(x): max abs err {worst:.2e} (<= 1e-12)")
        assert worst <= 1e-12


class TestCriterion10:
    def test_linear_kernel_matches_fejer_closed_form(self):
        worst = 0.0
        for n in (2, 4, 8):
            omegas, response = frequency_response(interp_kernel("linear", n), 4096)
            mag = np.abs(response)
            with np.errstate(divide="ignore", invalid="ignore"):
                fejer = (np.sin(n * omegas / 2) / np.sin(omegas / 2)) ** 2 / n
            fejer[omegas == 0.0] = float(n)
            worst = max(worst, float(np.max(np.abs(mag - fejer))))
        passed = worst <= 1e-9
        record_criterion(
            10, passed, f"|H(linear,N)| vs squared Dirichlet, N in {{2,4,8}}: max err {worst:.2e} (<= 1e-9)"
        )
        assert worst <= 1e-9


class TestCriterion11:
    def test_repeat_runs_are_byte_identical(self, full_grid_run, tmp_path, monkeypatch):
        """Second runs of both commands on 2 threads write the session's
        files (1 thread) byte for byte: gen-bench, whose pool is the CPU
        count (set to 2 here), every WAV, bench.csv and the manifest, and
        run-activations at --threads 2, from the second bench, its CSVs."""
        bench = tmp_path / "bench"
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["gen-bench", "--out", str(bench)]) == EXIT_OK
        names = sorted(p.name for p in full_grid_run.bench.iterdir())
        man_a = json.loads((full_grid_run.bench / "manifest.json").read_text(encoding="utf-8"))
        gen_same = (
            sorted(p.name for p in bench.iterdir()) == names
            and len(names) == len(man_a["files"]) + 2
            and all((full_grid_run.bench / n).read_bytes() == (bench / n).read_bytes() for n in names)
        )

        out = tmp_path / "run" / "act.csv"
        assert main(["run-activations", "--bench", str(bench), "--out", str(out), "--threads", "2"]) == EXIT_OK
        run_same = all(
            (full_grid_run.out.with_name("act" + suffix).read_bytes()
             == out.with_name("act" + suffix).read_bytes())
            for suffix in (".csv", "_per_signal.csv", "_full.csv")
        )

        passed = gen_same and run_same
        detail = (
            f"gen-bench files at 1 and 2 threads {'byte-identical' if gen_same else 'DIFFER'} "
            f"({len(man_a['files'])} signals); run-activations CSVs at 1 and 2 threads "
            f"{'byte-identical' if run_same else 'DIFFER'}"
        )
        record_criterion(11, passed, detail)
        assert gen_same, detail
        assert run_same, detail
