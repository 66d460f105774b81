"""Shared fixtures: a small on-disk benchmark for CLI tests, one full-grid
run-activations run and one full-grid upsampler table for the tests that read
a whole table, and a terminal summary that prints one line per acceptance
criterion.

perfbench/ goes on the import path, so tests use its exact oracles
(`import oracles`), written apart from the package they check, and read the
tracer's layer list (`import tracer`). zero_interlace is the direct-form
reference of the polyphase upsampling paths, and convolve_interpolate and
convolve_decimate the per-phase np.convolve references of the resampling
filters' blocked products.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from aliasbench import cli
from aliasbench.audio import AudioBuffer
from aliasbench.bench import UpsamplerSummaryRow, evaluate, upsampler_table, wav_name, write_bench_csv
from aliasbench.filters import FirKernel
from aliasbench.metrics import AhrReport
from aliasbench.signals import TestSignalSpec, benchmark_specs, gen_bandlimited
from aliasbench.wavio import wav_write

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

#: (criterion number, passed, detail) tuples registered by test_acceptance.
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number:2d}: {status} — {detail}")


def zero_interlace(x: AudioBuffer, factor: int) -> AudioBuffer:
    """Insert factor-1 zeros after each sample; output rate is factor * input
    rate. The direct form that the polyphase filters.interpolate and
    upsamplers.apply_upsampler are checked against."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x
    y = np.zeros(len(x) * factor)
    y[::factor] = x.samples
    return AudioBuffer(y, x.sample_rate * factor)


def convolve_interpolate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """filters.interpolate with each tap phase on its own np.convolve: the
    reference of its blocked products. They agree up to the order of the
    sums, and bit for bit where no phase reaches BLOCKED_MIN_TAPS."""
    full = np.zeros(factor * (len(x) + -(-len(h) // factor)))
    for p in range(min(factor, len(h))):
        taps = h.taps[p::factor]
        nonzero = np.flatnonzero(taps)
        if nonzero.size == 1:
            j = nonzero[0]
            np.multiply(x.samples, taps[j], out=full[p::factor][j : j + len(x)])
        elif nonzero.size:
            branch = np.convolve(x.samples, taps)
            full[p::factor][: branch.size] = branch
    return AudioBuffer(full[h.center : h.center + factor * len(x)], x.sample_rate * factor)


def convolve_decimate(x: AudioBuffer, h: FirKernel, factor: int) -> AudioBuffer:
    """filters.decimate with each tap phase on its own np.convolve, summed
    into the kept outputs phase by phase: the reference of its blocked
    products, as convolve_interpolate is of interpolate's."""
    y = np.zeros(-(-len(x) // factor))
    for p in range(min(factor, len(h))):
        shift, phase = divmod(h.center - p, factor)
        taps, xs = h.taps[p::factor], x.samples[phase::factor]
        nonzero = np.flatnonzero(taps)
        if nonzero.size == 1:
            j = nonzero[0]
            lo, hi = max(0, j - shift), min(y.size, xs.size + j - shift)
            if lo < hi:
                y[lo:hi] += taps[j] * xs[lo + shift - j : hi + shift - j]
        elif nonzero.size:
            branch = np.convolve(xs, taps)
            lo, hi = max(0, -shift), min(y.size, branch.size - shift)
            y[lo:hi] += branch[lo + shift : hi + shift]
    return AudioBuffer(y, x.sample_rate // factor)


def make_bench_dir(root, notes=(60, 107), duration_s=1.0, sample_rate=44100):
    """Write a small but spectrally honest benchmark: WAVs + bench.csv.
    Returns the signals in bench.csv's order."""
    root.mkdir(parents=True, exist_ok=True)
    specs = []
    for waveform in ("sine", "sawtooth", "triangle"):
        for note in notes:
            spec = TestSignalSpec(waveform, note, duration_s=duration_s, sample_rate=sample_rate)
            wav_write(gen_bandlimited(spec), root / wav_name(spec))
            specs.append(spec)
    write_bench_csv(root / "bench.csv", specs)
    return specs


@pytest.fixture(scope="session")
def tiny_bench(tmp_path_factory):
    """Six one-second signals (three waveforms x two notes) with bench.csv."""
    root = tmp_path_factory.mktemp("tinybench")
    specs = make_bench_dir(root)
    return root, specs


class FullGridRun(NamedTuple):
    """gen-bench's directory, run-activations' summary path, the reports the
    command computed by module name, and the command's wall time (s)."""

    bench: Path
    out: Path
    reports: dict[str, AhrReport]
    elapsed: float


@pytest.fixture(scope="session")
def full_grid_run(tmp_path_factory):
    """gen-bench on a 1-thread pool (os.cpu_count() set to 1), then
    run-activations with the built-in configs at --threads 1, over the full
    144-signal grid, once per session. The reports are read off the
    command's own evaluate call, so the tests that rank or check them read
    the numbers the written files hold."""
    root = tmp_path_factory.mktemp("full_grid")
    bench, out = root / "bench", root / "act" / "act.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 1)
        assert cli.main(["gen-bench", "--out", str(bench)]) == cli.EXIT_OK
    computed = []

    def recording_evaluate(*args, **kwargs):
        computed.append(evaluate(*args, **kwargs))
        return computed[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "evaluate", recording_evaluate)
        t0 = time.perf_counter()
        rc = cli.main(["run-activations", "--bench", str(bench), "--out", str(out), "--threads", "1"])
        elapsed = time.perf_counter() - t0
    assert rc == cli.EXIT_OK
    (reports,) = computed
    return FullGridRun(bench, out, {r.module_name: r for r in reports}, elapsed)


class UpsamplerGridRun(NamedTuple):
    """The upsampler table's rows by module name, the report of each of its
    layers in evaluation order, and the table's wall time (s)."""

    rows: dict[str, UpsamplerSummaryRow]
    reports: list[AhrReport]
    elapsed: float


@pytest.fixture(scope="session")
def upsampler_grid_run():
    """The upsampler table at L = 2 with 10 ConvTranspose seeds (run-upsamplers'
    defaults) over the full 144-signal grid, on one thread, once per session:
    its 14 layers are 10 ConvTranspose seeds, LinearInterp, NearestInterp,
    AntiAliasedResample and AntiAliasedResample with its noise prior."""
    t0 = time.perf_counter()
    rows, reports = upsampler_table(benchmark_specs(), factor=2, n_seeds=10, base_seed=0, threads=1)
    elapsed = time.perf_counter() - t0
    return UpsamplerGridRun({row.module: row for row in rows}, reports, elapsed)
