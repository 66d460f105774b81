"""Benchmark orchestration: run module configs over the test-signal set,
aggregate AHR reports, and write the table-style CSV outputs."""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .activations import ActivationSpec, apply_activation
from .audio import AudioBuffer
from .configio import ConfigError, Spec, config_hash, write_csv
from .metrics import (
    EDGE_DISCARD,
    MIN_ANALYSIS_SAMPLES,
    ActivationContext,
    AhrMeasurement,
    AhrReport,
    SignalAhr,
    UpsamplerContext,
    build_report,
    measure_ahr,
)
from .signals import WAVEFORMS, TestSignalSpec, gen_bandlimited, law_k_values, sample_count
from .upsamplers import UpsamplerSpec, apply_upsampler, image_frequencies, tonal_probe

#: Activation configs evaluated by default. The four table_row entries mirror
#: the activation comparison table; the rest are the oversampling sweep.
DEFAULT_ACTIVATIONS: tuple[ActivationSpec, ...] = (
    ActivationSpec("leaky_relu", slope=0.1, name="LeakyReLU", table_row=True),
    ActivationSpec("elu", elu_a=1.0, name="ELU", table_row=True),
    ActivationSpec("snakebeta", name="SnakeBeta", table_row=True),
    ActivationSpec("adaa_snakebeta", oversample=2, name="AdaaSnakeBeta", table_row=True),
    ActivationSpec("snakebeta", oversample=2, name="SnakeBeta_c2"),
    ActivationSpec("snakebeta", oversample=4, name="SnakeBeta_c4"),
    ActivationSpec("adaa_snakebeta", oversample=1, name="AdaaSnakeBeta_c1"),
)

#: Constant level fed to each upsampler for its tonal-line column.
TONAL_PROBE_VALUE = 0.5

#: Largest |f0_hz - midi_to_freq(index)| a bench.csv row may show: the
#: rounding of the column's %.6f format.
F0_TOLERANCE_HZ = 5e-7

#: One benchmark entry: waveform name, fundamental, signal.
SignalEntry = tuple[str, float, AudioBuffer]
#: One benchmark signal before it exists: waveform name, fundamental, and a
#: zero-argument producer of the signal (a WAV read, or a synthesis).
SignalSource = tuple[str, float, Callable[[], AudioBuffer]]


def check_analysable(n_samples: int, what: str) -> None:
    """Reject a measured signal of n_samples that leaves fewer than
    MIN_ANALYSIS_SAMPLES once EDGE_DISCARD is cut from each edge."""
    need = 2 * EDGE_DISCARD + MIN_ANALYSIS_SAMPLES
    if n_samples < need:
        raise ConfigError(
            f"{what}: {n_samples} samples to analyse, fewer than {need} "
            f"({MIN_ANALYSIS_SAMPLES} once {EDGE_DISCARD} are cut from each edge)"
        )


def derive_seeds(base_seed: int, count: int) -> list[int]:
    """Independent integer seeds split deterministically from one base seed."""
    ss = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(count)]


def measure_activation(spec: ActivationSpec, entry: SignalEntry) -> AhrMeasurement:
    """AHR of one signal through an activation: aliases are folded harmonics."""
    _, f0, x = entry
    return measure_ahr(apply_activation(x, spec), f0, ActivationContext())


def measure_upsampler(spec: UpsamplerSpec, entry: SignalEntry) -> AhrMeasurement:
    """AHR of one (low-rate) signal through an upsampler: aliases are the
    images of the waveform's partials."""
    waveform, f0, x = entry
    y = apply_upsampler(x, spec)
    context = UpsamplerContext(
        input_rate=x.sample_rate,
        alias_freqs=image_frequencies(f0, spec.factor, x.sample_rate, law_k_values(waveform)),
    )
    return measure_ahr(y, f0, context)


def evaluate(
    sources: Sequence[SignalSource],
    specs: Iterable[Spec],
    measure: Callable[[Spec, SignalEntry], AhrMeasurement],
    threads: int = 1,
) -> list[AhrReport]:
    """One report per spec over all signals.

    Each signal is one pool task: it calls the source's producer once, runs
    every spec on the signal in spec order, returns that signal's rows and
    drops the buffer. So at most min(threads, signals) signals are alive at
    once, and rows keep the source order whatever the thread count. When a
    task raises, the tasks not yet started are cancelled and the error is
    re-raised.
    """
    specs = list(specs)

    def signal_rows(source: SignalSource) -> list[SignalAhr]:
        waveform, f0, produce = source
        entry = (waveform, f0, produce())
        rows = []
        for spec in specs:
            m = measure(spec, entry)
            rows.append(SignalAhr(waveform, f0, m.ahr_db, m.harmonic_bands, m.alias_bands))
        return rows

    with ThreadPoolExecutor(max_workers=min(threads, len(sources)) or 1) as pool:
        futures = [pool.submit(signal_rows, source) for source in sources]
        try:
            per_signal = [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [
        build_report(spec.name, config_hash(spec), [rows[i] for rows in per_signal])
        for i, spec in enumerate(specs)
    ]


def regenerate_entries(specs: Iterable[TestSignalSpec], factor: int) -> list[SignalSource]:
    """Sources that re-synthesize benchmark signals additively at rate/factor
    (exact band-limited inputs for the upsampler benchmark, no decimation
    filter).

    Every spec is checked against the factor, at its low rate by
    TestSignalSpec's own rules and its upsampled length against the
    analysis, before any source is returned; a signal is synthesized only
    when its producer is called.
    """
    lows = []
    for s in specs:
        if s.sample_rate % factor:
            raise ConfigError(
                f"sample rate {s.sample_rate} is not divisible by factor {factor}"
            )
        try:
            low = replace(s, sample_rate=s.sample_rate // factor)
        except ValueError as exc:
            raise ConfigError(f"{s.waveform} note {s.midi_note} at factor {factor}: {exc}") from exc
        check_analysable(
            factor * sample_count(low.duration_s, low.sample_rate),
            f"{s.waveform} note {s.midi_note} upsampled from {low.sample_rate} Hz by {factor}",
        )
        lows.append(low)
    return [(low.waveform, low.f0_hz, partial(gen_bandlimited, low)) for low in lows]


def tonal_probe_for(spec: UpsamplerSpec, input_rate: int) -> float:
    """Stride-line level (dB) of this layer driven by one second of constant input."""
    x = AudioBuffer(np.full(input_rate, TONAL_PROBE_VALUE), input_rate)
    return tonal_probe(apply_upsampler(x, spec), input_rate)


@dataclass(frozen=True)
class UpsamplerSummaryRow:
    module: str
    per_type_db: dict[str, float]
    average_db: float
    prior_on_average_db: float | None
    tonal_line_db: float
    seed_std_db: float | None


def upsampler_table(
    signals: Sequence[TestSignalSpec],
    factor: int,
    n_seeds: int,
    base_seed: int,
    threads: int = 1,
) -> tuple[list[UpsamplerSummaryRow], list[AhrReport]]:
    """The four-row upsampler comparison: ConvTranspose (seed-averaged),
    LinearInterp, NearestInterp, AntiAliasedResample (+ prior-on column).

    signals are the benchmark's signals at their own rate; each is
    re-synthesized at rate/factor (regenerate_entries). Each row is the mean
    over its group of layer specs: ConvTranspose's n_seeds seeded layers, or
    the one spec of any other layer.
    """
    if n_seeds < 1:
        raise ConfigError("need at least one ConvTranspose seed")
    sources = regenerate_entries(signals, factor)
    rate = signals[0].sample_rate // factor
    check_analysable(factor * rate, f"tonal probe: 1 s at {rate} Hz upsampled by {factor}")
    seeds = derive_seeds(base_seed, n_seeds + 1)
    groups = [
        [UpsamplerSpec("conv_transpose", factor=factor, seed=s, name="ConvTranspose")
         for s in seeds[:n_seeds]],
        [UpsamplerSpec("linear", factor=factor, name="LinearInterp")],
        [UpsamplerSpec("nearest", factor=factor, name="NearestInterp")],
        [UpsamplerSpec("aa_resample", factor=factor, name="AntiAliasedResample")],
    ]
    aa_prior = UpsamplerSpec(
        "aa_resample", factor=factor, seed=seeds[n_seeds], noise_prior=True,
        name="AntiAliasedResample_prior",
    )

    all_reports = evaluate(sources, [s for g in groups for s in g] + [aa_prior], measure_upsampler, threads)
    reports = iter(all_reports)
    rows = []
    for group in groups:
        reps = [next(reports) for _ in group]
        overall = [r.overall_mean_db for r in reps]
        kind = group[0].kind
        rows.append(
            UpsamplerSummaryRow(
                module=group[0].name,
                per_type_db={w: float(np.mean([r.per_type_mean_db[w] for r in reps])) for w in WAVEFORMS},
                average_db=float(np.mean(overall)),
                prior_on_average_db=all_reports[-1].overall_mean_db if kind == "aa_resample" else None,
                tonal_line_db=float(np.mean([tonal_probe_for(s, rate) for s in group])),
                seed_std_db=float(np.std(overall)) if kind == "conv_transpose" else None,
            )
        )
    return rows, all_reports


def write_per_signal_csv(path: str | Path, reports: Iterable[AhrReport]) -> None:
    header = ["module_name", "config_hash", "waveform", "f0_hz", "ahr_db"]
    rows = []
    for rep in reports:
        for e in rep.per_signal:
            rows.append([rep.module_name, rep.config_hash, e.waveform, f"{e.f0_hz:.6f}", f"{e.ahr_db:.6f}"])
    write_csv(path, header, rows)


def write_activation_summary_csv(path: str | Path, reports: Sequence[AhrReport], configs: Sequence[ActivationSpec]) -> None:
    """Table-style summary: one row per module, columns per waveform type.

    configs are the reports' specs, in the same order. When any of them is
    flagged table_row, only the flagged ones get a row.
    """
    header = ["module", "sine_db", "sawtooth_db", "triangle_db", "average_db"]
    table_only = any(c.table_row for c in configs)
    rows = []
    for rep, spec in zip(reports, configs):
        if table_only and not spec.table_row:
            continue
        rows.append(
            [rep.module_name]
            + [f"{rep.per_type_mean_db[w]:.2f}" for w in WAVEFORMS]
            + [f"{rep.overall_mean_db:.2f}"]
        )
    write_csv(path, header, rows)


def write_activation_full_csv(path: str | Path, reports: Sequence[AhrReport], configs: Sequence[ActivationSpec]) -> None:
    header = ["module", "config_hash", "oversample", "sine_db", "sawtooth_db", "triangle_db", "average_db"]
    rows = []
    for rep, spec in zip(reports, configs):
        rows.append(
            [rep.module_name, rep.config_hash, str(spec.oversample)]
            + [f"{rep.per_type_mean_db[w]:.6f}" for w in WAVEFORMS]
            + [f"{rep.overall_mean_db:.6f}"]
        )
    write_csv(path, header, rows)


def write_upsampler_summary_csv(path: str | Path, rows: Sequence[UpsamplerSummaryRow]) -> None:
    header = [
        "module", "sine_db", "sawtooth_db", "triangle_db", "average_db",
        "prior_on_average_db", "tonal_line_db", "seed_std_db",
    ]
    out = []
    for r in rows:
        out.append(
            [r.module]
            + [f"{r.per_type_db[w]:.2f}" for w in WAVEFORMS]
            + [
                f"{r.average_db:.2f}",
                "" if r.prior_on_average_db is None else f"{r.prior_on_average_db:.2f}",
                f"{r.tonal_line_db:.2f}",
                "" if r.seed_std_db is None else f"{r.seed_std_db:.4f}",
            ]
        )
    write_csv(path, header, out)


@dataclass(frozen=True)
class BenchEntryMeta:
    """One row of the benchmark metadata CSV: the signal (index = MIDI
    note), the f0_hz column that run-activations measures at, and the WAV's
    path relative to the CSV."""

    spec: TestSignalSpec
    f0_hz: float
    path: str


#: The columns of bench.csv, in the order gen-bench writes them.
BENCH_COLUMNS = ("type", "index", "f0_hz", "duration_s", "sample_rate", "path")


def write_bench_csv(path: str | Path, metas: Sequence[BenchEntryMeta]) -> None:
    rows = [
        [m.spec.waveform, str(m.spec.midi_note), f"{m.f0_hz:.6f}", f"{m.spec.duration_s:.3f}",
         str(m.spec.sample_rate), m.path]
        for m in metas
    ]
    write_csv(path, list(BENCH_COLUMNS), rows)


def load_bench_csv(path: str | Path) -> list[BenchEntryMeta]:
    """Every row of bench.csv as a record whose spec has passed
    TestSignalSpec's rules. A header that does not name each column once, a
    row without one cell per column, a cell that does not parse, a signal
    off the grid and an f0_hz that is not its note's are ConfigErrors."""
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or sorted(reader.fieldnames) != sorted(BENCH_COLUMNS):
        raise ConfigError(f"{path}: unexpected benchmark CSV header {reader.fieldnames}")
    metas = []
    try:
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"expected {len(BENCH_COLUMNS)} cells")
            spec = TestSignalSpec(
                row["type"], int(row["index"]), float(row["duration_s"]), int(row["sample_rate"])
            )
            metas.append(BenchEntryMeta(spec, float(row["f0_hz"]), row["path"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not metas:
        raise ConfigError(f"{path}: empty benchmark metadata")
    for m in metas:
        # run-activations measures at this column and run-upsamplers at the
        # note's frequency, so the two must agree.
        if not abs(m.f0_hz - m.spec.f0_hz) <= F0_TOLERANCE_HZ:  # also rejects nan
            raise ConfigError(
                f"{path}: {m.spec.waveform} note {m.spec.midi_note}: f0_hz {m.f0_hz} is not the note's "
                f"frequency {m.spec.f0_hz:.6f} Hz"
            )
    present = {m.spec.waveform for m in metas}
    missing = [w for w in WAVEFORMS if w not in present]
    if missing:
        raise ConfigError(f"{path}: benchmark has no {', '.join(missing)} signals")
    return metas
