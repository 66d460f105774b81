"""Benchmark orchestration: synthesize the signals that bench.csv rows name,
run module configs over them, aggregate AHR reports, and write the
table-style CSV outputs."""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .activations import ActivationSpec
from .audio import AudioBuffer
from .configio import ConfigError, Spec, config_hash, read_text, write_csv
from .metrics import (
    EDGE_DISCARD,
    MIN_ANALYSIS_SAMPLES,
    AhrContext,
    AhrReport,
    SignalAhr,
    build_report,
    measure_ahr,
)
from .signals import WAVEFORMS, TestSignalSpec, gen_bandlimited, partials, sample_count
from .upsamplers import UpsamplerSpec, apply_upsampler, image_frequencies, tonal_probe

T = TypeVar("T")
R = TypeVar("R")

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


def ordered_map(task: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """[task(item) for item in items], run on min(threads, items) worker
    threads, the results in item order whatever the thread count. On the
    first error in item order, the tasks not yet started are cancelled and
    that error is re-raised."""
    with ThreadPoolExecutor(max_workers=min(threads, len(items)) or 1) as pool:
        futures = [pool.submit(task, item) for item in items]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def evaluate(
    signals: Sequence[TestSignalSpec],
    specs: Iterable[Spec],
    apply: Callable[[AudioBuffer, Spec], AudioBuffer],
    context: Callable[[TestSignalSpec], AhrContext],
    threads: int = 1,
) -> list[AhrReport]:
    """One report per spec over all signals: the AHR of apply(x, spec) for
    each signal x, measured against the signal's context(signal).

    Each signal is one ordered_map task: it synthesizes the signal and
    builds its context once, runs every spec on it in spec order, returns
    that signal's rows and drops the buffer. So at most min(threads,
    signals) signals are alive at once, and rows keep the signal order
    whatever the thread count.
    """
    specs = list(specs)

    def signal_rows(signal: TestSignalSpec) -> list[SignalAhr]:
        x = gen_bandlimited(signal)
        ctx = context(signal)
        return [
            SignalAhr(signal.waveform, signal.f0_hz, measure_ahr(apply(x, spec), signal.f0_hz, ctx).ahr_db)
            for spec in specs
        ]

    per_signal = ordered_map(signal_rows, signals, threads)
    return [
        build_report(spec.name, config_hash(spec), [rows[i] for rows in per_signal])
        for i, spec in enumerate(specs)
    ]


def input_signals(specs: Iterable[TestSignalSpec], factor: int) -> list[TestSignalSpec]:
    """The benchmark signals at the input rate of a module of this
    upsampling factor: each spec at rate/factor, where it is synthesized
    additively (exact band-limited inputs, no decimation filter).
    Activations take factor 1.

    Every spec is checked before any signal is synthesized: at rate/factor
    by TestSignalSpec's own rules, and its length at the module's output
    rate against the analysis.
    """
    inputs = []
    for s in specs:
        if s.sample_rate % factor:
            raise ConfigError(
                f"sample rate {s.sample_rate} is not divisible by factor {factor}"
            )
        try:
            low = replace(s, sample_rate=s.sample_rate // factor)
        except ValueError as exc:
            raise ConfigError(f"{s.waveform} note {s.midi_note} at factor {factor}: {exc}") from exc
        where = f"upsampled from {low.sample_rate} Hz by {factor}" if factor > 1 else f"at {s.sample_rate} Hz"
        check_analysable(factor * sample_count(low.duration_s, low.sample_rate),
                         f"{s.waveform} note {s.midi_note} {where}")
        inputs.append(low)
    return inputs


def image_context(signal: TestSignalSpec, factor: int) -> AhrContext:
    """Context of an upsampler by factor fed signal: a linear layer can only
    image the partials the input holds, those gen_bandlimited synthesizes."""
    ks, _ = partials(signal)
    return AhrContext(signal.sample_rate, image_frequencies(signal.f0_hz, factor, signal.sample_rate, ks))


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
    synthesized at rate/factor (input_signals). Each row is the mean
    over its group of layer specs: ConvTranspose's n_seeds seeded layers, or
    the one spec of any other layer.
    """
    if n_seeds < 1:
        raise ConfigError("need at least one ConvTranspose seed")
    inputs = input_signals(signals, factor)
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
    all_reports = evaluate(inputs, [s for g in groups for s in g] + [aa_prior], apply_upsampler,
                           lambda s: image_context(s, factor), threads)
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


def _type_cells(per_type: dict[str, float], average: float, digits: int) -> list[str]:
    """The per-waveform columns of a table row, then its average, each to
    digits decimals."""
    return [f"{per_type[w]:.{digits}f}" for w in WAVEFORMS] + [f"{average:.{digits}f}"]


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
    rows = [
        [rep.module_name] + _type_cells(rep.per_type_mean_db, rep.overall_mean_db, 2)
        for rep, spec in zip(reports, configs)
        if spec.table_row or not table_only
    ]
    write_csv(path, header, rows)


def write_activation_full_csv(path: str | Path, reports: Sequence[AhrReport], configs: Sequence[ActivationSpec]) -> None:
    header = ["module", "config_hash", "oversample", "sine_db", "sawtooth_db", "triangle_db", "average_db"]
    rows = [
        [rep.module_name, rep.config_hash, str(spec.oversample)]
        + _type_cells(rep.per_type_mean_db, rep.overall_mean_db, 6)
        for rep, spec in zip(reports, configs)
    ]
    write_csv(path, header, rows)


def write_upsampler_summary_csv(path: str | Path, rows: Sequence[UpsamplerSummaryRow]) -> None:
    header = [
        "module", "sine_db", "sawtooth_db", "triangle_db", "average_db",
        "prior_on_average_db", "tonal_line_db", "seed_std_db",
    ]
    out = [
        [r.module]
        + _type_cells(r.per_type_db, r.average_db, 2)
        + [
            "" if r.prior_on_average_db is None else f"{r.prior_on_average_db:.2f}",
            f"{r.tonal_line_db:.2f}",
            "" if r.seed_std_db is None else f"{r.seed_std_db:.4f}",
        ]
        for r in rows
    ]
    write_csv(path, header, out)


def wav_name(spec: TestSignalSpec) -> str:
    """The file name gen-bench gives a signal's WAV, relative to bench.csv."""
    return f"{spec.waveform}_{spec.midi_note:03d}.wav"


#: The columns of bench.csv, in the order gen-bench writes them.
BENCH_COLUMNS = ("type", "index", "f0_hz", "duration_s", "sample_rate", "path")


def write_bench_csv(path: str | Path, specs: Sequence[TestSignalSpec]) -> None:
    rows = [
        [s.waveform, str(s.midi_note), f"{s.f0_hz:.6f}", f"{s.duration_s:.3f}", str(s.sample_rate), wav_name(s)]
        for s in specs
    ]
    write_csv(path, list(BENCH_COLUMNS), rows)


def load_bench_csv(path: str | Path) -> list[TestSignalSpec]:
    """The signal of every row of bench.csv, each past TestSignalSpec's
    rules. A header that does not name each column once, a
    row without one cell per column, a cell that does not parse, a signal
    off the grid and an f0_hz that is not its note's are ConfigErrors."""
    text = read_text(path, "utf-8")
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or sorted(reader.fieldnames) != sorted(BENCH_COLUMNS):
        raise ConfigError(f"{path}: unexpected benchmark CSV header {reader.fieldnames}")
    specs = []
    try:
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"expected {len(BENCH_COLUMNS)} cells")
            spec = TestSignalSpec(
                row["type"], int(row["index"]), float(row["duration_s"]), int(row["sample_rate"])
            )
            # No command measures at this column: both synthesize each signal
            # at its note's frequency. bench.csv is input from outside the
            # program, and a row whose f0_hz is not its note's frequency does
            # not say which signal it means, so it is refused.
            f0 = float(row["f0_hz"])
            if not abs(f0 - spec.f0_hz) <= F0_TOLERANCE_HZ:  # also rejects nan
                raise ValueError(
                    f"{spec.waveform} note {spec.midi_note}: f0_hz {f0} is not the note's "
                    f"frequency {spec.f0_hz:.6f} Hz"
                )
            specs.append(spec)
    except ValueError as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not specs:
        raise ConfigError(f"{path}: empty benchmark metadata")
    present = {s.waveform for s in specs}
    missing = [w for w in WAVEFORMS if w not in present]
    if missing:
        raise ConfigError(f"{path}: benchmark has no {', '.join(missing)} signals")
    return specs
