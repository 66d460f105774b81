"""Benchmark orchestration: run module configs over the test-signal set,
aggregate AHR reports, and write the table-style CSV outputs."""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .activations import ActivationSpec, apply_activation
from .audio import AudioBuffer
from .configio import ConfigError, Spec, config_hash, write_csv
from .metrics import (
    ActivationContext,
    AhrMeasurement,
    AhrReport,
    SignalAhr,
    UpsamplerContext,
    build_report,
    measure_ahr,
)
from .signals import EDGE_DISCARD, WAVEFORMS, TestSignalSpec, gen_bandlimited, law_k_values, midi_to_freq
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


def derive_seeds(base_seed: int, count: int) -> list[int]:
    """Independent integer seeds split deterministically from one base seed."""
    ss = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(count)]


def measure_activation(spec: ActivationSpec, entry: SignalEntry) -> AhrMeasurement:
    """AHR of one signal through an activation: aliases are folded harmonics."""
    _, f0, x = entry
    return measure_ahr(apply_activation(x, spec), f0, ActivationContext(), edge_trim=EDGE_DISCARD)


def measure_upsampler(spec: UpsamplerSpec, entry: SignalEntry) -> AhrMeasurement:
    """AHR of one (low-rate) signal through an upsampler: aliases are the
    images of the waveform's partials."""
    waveform, f0, x = entry
    y = apply_upsampler(x, spec)
    context = UpsamplerContext(
        input_rate=x.sample_rate,
        alias_freqs=image_frequencies(f0, spec.factor, x.sample_rate, law_k_values(waveform)),
    )
    return measure_ahr(y, f0, context, edge_trim=EDGE_DISCARD)


def evaluate(
    entries: Sequence[SignalEntry],
    specs: Iterable[Spec],
    measure: Callable[[Spec, SignalEntry], AhrMeasurement],
    threads: int = 1,
) -> list[AhrReport]:
    """One report per spec over all signals; rows keep the entry order
    whatever the thread count."""

    def row(spec: Spec, entry: SignalEntry) -> SignalAhr:
        m = measure(spec, entry)
        return SignalAhr(entry[0], entry[1], m.ahr_db, m.harmonic_bands, m.alias_bands)

    reports = []
    for spec in specs:
        if threads <= 1:
            rows = [row(spec, entry) for entry in entries]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(row, repeat(spec), entries))
        reports.append(build_report(spec.name, config_hash(spec), rows))
    return reports


def regenerate_entries(specs: Iterable[TestSignalSpec], factor: int) -> list[SignalEntry]:
    """Re-synthesize benchmark signals additively at rate/factor (exact
    band-limited inputs for the upsampler benchmark, no decimation filter).

    Every spec is checked against the factor before any is synthesized.
    """
    lows = []
    for s in specs:
        if s.sample_rate % factor:
            raise ConfigError(
                f"sample rate {s.sample_rate} is not divisible by factor {factor}"
            )
        low = TestSignalSpec(
            waveform=s.waveform,
            midi_note=s.midi_note,
            duration_s=s.duration_s,
            sample_rate=s.sample_rate // factor,
            amplitude=s.amplitude,
        )
        if low.f0_hz >= low.sample_rate / 2.0:
            raise ConfigError(
                f"{s.waveform} note {s.midi_note}: fundamental {low.f0_hz:.2f} Hz is not below "
                f"the input Nyquist ({low.sample_rate / 2:.1f} Hz) at factor {factor}"
            )
        lows.append(low)
    return [(low.waveform, low.f0_hz, gen_bandlimited(low)) for low in lows]


def tonal_probe_for(spec: UpsamplerSpec, input_rate: int) -> float:
    """Stride-line level (dB) of this layer driven by one second of constant input."""
    x = AudioBuffer(np.full(input_rate, TONAL_PROBE_VALUE), input_rate)
    return tonal_probe(apply_upsampler(x, spec), input_rate, edge_trim=EDGE_DISCARD)


@dataclass(frozen=True)
class UpsamplerSummaryRow:
    module: str
    per_type_db: dict[str, float]
    average_db: float
    prior_on_average_db: float | None
    tonal_line_db: float
    seed_std_db: float | None


def upsampler_table(
    entries: Sequence[SignalEntry],
    factor: int,
    n_seeds: int,
    base_seed: int,
    threads: int = 1,
) -> tuple[list[UpsamplerSummaryRow], list[AhrReport]]:
    """The four-row upsampler comparison: ConvTranspose (seed-averaged),
    LinearInterp, NearestInterp, AntiAliasedResample (+ prior-on column)."""
    if n_seeds < 1:
        raise ConfigError("need at least one ConvTranspose seed")
    seeds = derive_seeds(base_seed, n_seeds + 1)
    conv_specs = [
        UpsamplerSpec("conv_transpose", factor=factor, seed=s, name="ConvTranspose", table_row=True)
        for s in seeds[:n_seeds]
    ]
    linear = UpsamplerSpec("linear", factor=factor, name="LinearInterp", table_row=True)
    nearest = UpsamplerSpec("nearest", factor=factor, name="NearestInterp", table_row=True)
    aa = UpsamplerSpec("aa_resample", factor=factor, name="AntiAliasedResample", table_row=True)
    aa_prior = UpsamplerSpec(
        "aa_resample", factor=factor, seed=seeds[n_seeds], noise_prior=True,
        name="AntiAliasedResample_prior",
    )

    all_reports = evaluate(entries, conv_specs + [linear, nearest, aa, aa_prior], measure_upsampler, threads)
    conv_reports = all_reports[:n_seeds]
    rep_linear, rep_nearest, rep_aa, rep_aa_prior = all_reports[n_seeds:]

    rate = entries[0][2].sample_rate

    conv_types = {
        w: float(np.mean([r.per_type_mean_db[w] for r in conv_reports])) for w in WAVEFORMS
    }
    conv_overall = [r.overall_mean_db for r in conv_reports]
    rows = [
        UpsamplerSummaryRow(
            module="ConvTranspose",
            per_type_db=conv_types,
            average_db=float(np.mean(conv_overall)),
            prior_on_average_db=None,
            tonal_line_db=float(np.mean([tonal_probe_for(s, rate) for s in conv_specs])),
            seed_std_db=float(np.std(conv_overall)),
        )
    ]
    for rep, spec in ((rep_linear, linear), (rep_nearest, nearest), (rep_aa, aa)):
        rows.append(
            UpsamplerSummaryRow(
                module=rep.module_name,
                per_type_db=dict(rep.per_type_mean_db),
                average_db=rep.overall_mean_db,
                prior_on_average_db=rep_aa_prior.overall_mean_db if spec is aa else None,
                tonal_line_db=tonal_probe_for(spec, rate),
                seed_std_db=None,
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


def write_activation_summary_csv(path: str | Path, reports: Sequence[AhrReport], table_only: bool, configs: Sequence[ActivationSpec] | None = None) -> None:
    """Table-style summary: one row per module, columns per waveform type.

    With table_only, keep only reports whose config is flagged table_row
    (configs must then be given in the same order as reports).
    """
    header = ["module", "sine_db", "sawtooth_db", "triangle_db", "average_db"]
    rows = []
    for i, rep in enumerate(reports):
        if table_only and configs is not None and not configs[i].table_row:
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
    """One row of the benchmark metadata CSV (index = MIDI note)."""

    waveform: str
    midi_note: int
    f0_hz: float
    duration_s: float
    sample_rate: int
    path: str


def write_bench_csv(path: str | Path, metas: Sequence[BenchEntryMeta]) -> None:
    header = ["type", "index", "f0_hz", "duration_s", "sample_rate", "path"]
    rows = [
        [m.waveform, str(m.midi_note), f"{m.f0_hz:.6f}", f"{m.duration_s:.3f}", str(m.sample_rate), m.path]
        for m in metas
    ]
    write_csv(path, header, rows)


def load_bench_csv(path: str | Path) -> list[BenchEntryMeta]:
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.DictReader(io.StringIO(text))
    expected = {"type", "index", "f0_hz", "duration_s", "sample_rate", "path"}
    if reader.fieldnames is None or set(reader.fieldnames) != expected:
        raise ConfigError(f"{path}: unexpected benchmark CSV header {reader.fieldnames}")
    metas = []
    try:
        for row in reader:
            metas.append(
                BenchEntryMeta(
                    waveform=row["type"],
                    midi_note=int(row["index"]),
                    f0_hz=float(row["f0_hz"]),
                    duration_s=float(row["duration_s"]),
                    sample_rate=int(row["sample_rate"]),
                    path=row["path"],
                )
            )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: malformed benchmark CSV: {exc}") from exc
    if not metas:
        raise ConfigError(f"{path}: empty benchmark metadata")
    for m in metas:
        if not 0.0 < m.f0_hz < m.sample_rate / 2.0:  # also rejects nan
            raise ConfigError(
                f"{path}: {m.waveform} note {m.midi_note}: f0_hz {m.f0_hz} is not in (0, {m.sample_rate / 2:.1f}) Hz"
            )
        # run-activations measures at this column and run-upsamplers at the
        # note's frequency, so the two must agree.
        try:
            note_hz = midi_to_freq(m.midi_note)
        except OverflowError:  # a note index far above any audible pitch
            note_hz = math.inf
        if not abs(m.f0_hz - note_hz) <= F0_TOLERANCE_HZ:
            raise ConfigError(
                f"{path}: {m.waveform} note {m.midi_note}: f0_hz {m.f0_hz} is not the note's "
                f"frequency {note_hz:.6f} Hz"
            )
    present = {m.waveform for m in metas}
    missing = [w for w in WAVEFORMS if w not in present]
    if missing:
        raise ConfigError(f"{path}: benchmark has no {', '.join(missing)} signals")
    return metas
