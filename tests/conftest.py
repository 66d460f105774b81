"""Shared fixtures: a small on-disk benchmark for CLI tests, one full-grid
run-activations run for the tests that read the whole table, and a terminal
summary that prints one line per acceptance criterion.

perfbench/ goes on the import path, so tests use its exact oracles
(`import oracles`), written apart from the package they check, and read the
tracer's layer list (`import tracer`). zero_interlace is the direct-form
reference of the polyphase upsampling paths.
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
from aliasbench.bench import evaluate, wav_name, write_bench_csv
from aliasbench.metrics import AhrReport
from aliasbench.signals import TestSignalSpec, gen_bandlimited
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
