"""Shared fixtures: a small on-disk benchmark for CLI tests and a terminal
summary that prints one line per acceptance criterion.

perfbench/ goes on the import path, so tests use its exact oracles
(`import oracles`), written apart from the package they check, and read the
tracer's layer list (`import tracer`). zero_interlace is the direct-form
reference of the polyphase upsampling paths.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from aliasbench.audio import AudioBuffer
from aliasbench.bench import BenchEntryMeta, write_bench_csv
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
    """Write a small but spectrally honest benchmark: WAVs + bench.csv."""
    root.mkdir(parents=True, exist_ok=True)
    metas = []
    for waveform in ("sine", "sawtooth", "triangle"):
        for note in notes:
            spec = TestSignalSpec(waveform, note, duration_s=duration_s, sample_rate=sample_rate)
            name = f"{waveform}_{note:03d}.wav"
            wav_write(gen_bandlimited(spec), root / name)
            metas.append(BenchEntryMeta(spec, name))
    write_bench_csv(root / "bench.csv", metas)
    return metas


@pytest.fixture(scope="session")
def tiny_bench(tmp_path_factory):
    """Six one-second signals (three waveforms x two notes) with bench.csv."""
    root = tmp_path_factory.mktemp("tinybench")
    metas = make_bench_dir(root)
    return root, metas
