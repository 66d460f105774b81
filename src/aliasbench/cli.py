"""Command-line front end: build the benchmark, run module comparisons,
export sweep spectrograms and filter responses.

Exit codes: 0 success, 2 bad configuration/arguments, 3 I/O failure,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .activations import ActivationSpec, apply_activation
from .audio import NumericError
from .bench import (
    DEFAULT_ACTIVATIONS,
    evaluate,
    input_signals,
    load_bench_csv,
    ordered_map,
    upsampler_table,
    wav_name,
    write_activation_full_csv,
    write_activation_summary_csv,
    write_bench_csv,
    write_per_signal_csv,
    write_upsampler_summary_csv,
)
from .configio import (
    ConfigError,
    config_hash,
    file_sha256,
    load_configs,
    serialize_spec,
    write_csv,
    write_manifest,
)
from .filters import design_fir, frequency_response, interp_kernel
from .metrics import ANALYSIS, AhrReport, activation_context, spectrogram_export
from .signals import TestSignalSpec, benchmark_specs, gen_bandlimited, gen_sweep
from .wavio import WavError, wav_write

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

#: glibc mallopt (parameter, value) pairs that main() sets (_keep_freed_memory).
#: An oversampled activation allocates several blocks the size of its signal at
#: the high rate: 3.4 MiB at c2 and 6.7 MiB at c4 for a 5 s signal. By default
#: glibc serves such blocks by mmap, or trims them off the heap top once freed,
#: so every call faults them in again: 8 AdaaSnakeBeta c2 calls fault 59,200
#: pages without this policy and 1 with it. A 2^18-point AHR spectrum's 2 MiB
#: blocks stay in the heap under the defaults too.
_MALLOPT = (
    (-3, 32 << 20),  # M_MMAP_THRESHOLD: every such block comes from the heap
    (-1, 64 << 20),  # M_TRIM_THRESHOLD: freed blocks stay there for the next call
    (-8, 1),  # M_ARENA_MAX: worker threads share one heap instead of keeping one each
)

#: Largest filter-response --N: the largest factor the suite drives (criterion
#: 1's 64x pipeline). A far larger N would size a kernel beyond memory.
FILTER_RESPONSE_MAX_N = 64

#: Largest run-upsamplers --seeds. Each seed is one more ConvTranspose pass
#: over every signal; the benchmark uses 10.
MAX_CONV_SEEDS = 1000

SWEEP_F_START_HZ = 20.0
SWEEP_F_END_HZ = 20000.0
SWEEP_DURATION_S = 4.0
SWEEP_RATE = 44100
SWEEP_FRAME = 1024
SWEEP_HOP = 256

#: The six sweep panels: pass-through, then the oversampling ladder.
DEFAULT_SWEEP_PANELS: tuple[tuple[str, ActivationSpec | None], ...] = (
    ("01_no_activation", None),
    ("02_snakebeta_c1", ActivationSpec("snakebeta", name="snakebeta_c1")),
    ("03_snakebeta_c2", ActivationSpec("snakebeta", oversample=2, name="snakebeta_c2")),
    ("04_snakebeta_c4", ActivationSpec("snakebeta", oversample=4, name="snakebeta_c4")),
    ("05_adaa_snakebeta_c1", ActivationSpec("adaa_snakebeta", name="adaa_snakebeta_c1")),
    ("06_adaa_snakebeta_c2", ActivationSpec("adaa_snakebeta", oversample=2, name="adaa_snakebeta_c2")),
)


def _output_dir(text: str) -> Path:
    """gen-bench's and sweep's --out directory. An empty path names no
    directory, so it is an I/O error, as it is for the commands that write
    one file, rather than the current directory that Path("") reads as."""
    if not text:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), text)
    return Path(text)


def cmd_gen_bench(args: argparse.Namespace) -> int:
    out_dir = _output_dir(args.out)
    specs = benchmark_specs()

    def write_signal(spec: TestSignalSpec) -> str:
        path = out_dir / wav_name(spec)
        wav_write(gen_bandlimited(spec), path)
        return file_sha256(path)

    # One task per signal on the CPU count's threads; no byte depends on it.
    hashes = ordered_map(write_signal, specs, os.cpu_count() or 1)
    write_bench_csv(out_dir / "bench.csv", specs)
    write_manifest(
        out_dir / "manifest.json",
        {
            "command": "gen-bench",
            "version": __version__,
            "note_grid": "loguniform48",  # the only grid; the key keeps manifests' bytes
            "seed": args.seed,
            "signals": len(specs),
            "files": {wav_name(s): h for s, h in zip(specs, hashes)},
            "bench_csv_sha256": file_sha256(out_dir / "bench.csv"),
        },
    )
    print(f"wrote {len(specs)} signals to {out_dir}")
    return EXIT_OK


def _write_run_files(args: argparse.Namespace, command: str, n_signals: int, reports: list[AhrReport],
                     tables: dict[str, Callable[[Path], None]], **fields) -> None:
    """Write a table command's files: tables by file-name suffix (the
    summary's "" at --out, any other at <stem><suffix>.csv), then
    <stem>_per_signal.csv and <stem>_manifest.json. The summary is written
    first, so an --out with no file name fails as an I/O error before any
    sibling path is derived from it. The manifest holds the keys both
    commands share (metrics.ANALYSIS among them), the command's own fields
    and each file's SHA-256."""
    out = Path(args.out)
    written = []
    for suffix, write in {**tables, "_per_signal": lambda p: write_per_signal_csv(p, reports)}.items():
        path = out.with_name(f"{out.stem}{suffix}.csv") if suffix else out
        write(path)
        written.append(path)
    bench_dir = Path(args.bench)
    write_manifest(
        out.with_name(out.stem + "_manifest.json"),
        {
            "command": command,
            "version": __version__,
            "bench_dir": str(bench_dir),
            "bench_csv_sha256": file_sha256(bench_dir / "bench.csv"),
            "seed": args.seed,
            "threads": args.threads,
            "signals": n_signals,
            "analysis": dict(ANALYSIS),
            "outputs": {p.name: file_sha256(p) for p in written},
            **fields,
        },
    )


def cmd_run_activations(args: argparse.Namespace) -> int:
    signals = input_signals(load_bench_csv(Path(args.bench) / "bench.csv"), 1)
    if args.configs:
        configs = load_configs(ActivationSpec, args.configs)
        config_source = str(args.configs)
    else:
        configs = list(DEFAULT_ACTIVATIONS)
        config_source = "builtin"

    reports = evaluate(signals, configs, apply_activation,
                       lambda s: activation_context(s.f0_hz, s.sample_rate), args.threads)
    _write_run_files(
        args, "run-activations", len(signals), reports,
        {"": lambda p: write_activation_summary_csv(p, reports, configs),
         "_full": lambda p: write_activation_full_csv(p, reports, configs)},
        config_source=config_source,
        configs=[{"name": c.name, "hash": config_hash(c), "spec": serialize_spec(c)} for c in configs],
    )
    for rep in reports:
        print(f"{rep.module_name:>24s}  average {rep.overall_mean_db:8.2f} dB")
    print(f"wrote {Path(args.out)}")
    return EXIT_OK


def cmd_run_upsamplers(args: argparse.Namespace) -> int:
    specs = load_bench_csv(Path(args.bench) / "bench.csv")
    rows, reports = upsampler_table(
        specs,
        factor=args.factor,
        n_seeds=args.seeds,
        base_seed=args.seed,
        threads=args.threads,
    )
    _write_run_files(args, "run-upsamplers", len(specs), reports,
                     {"": lambda p: write_upsampler_summary_csv(p, rows)},
                     factor=args.factor, conv_seeds=args.seeds)
    for row in rows:
        print(f"{row.module:>24s}  average {row.average_db:8.2f} dB  tonal {row.tonal_line_db:8.2f} dB")
    print(f"wrote {Path(args.out)}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    out_dir = _output_dir(args.out)
    if args.config:
        configs = load_configs(ActivationSpec, args.config)
        panels: list[tuple[str, ActivationSpec | None]] = [
            (f"{i + 1:02d}_{spec.name}", spec) for i, spec in enumerate(configs)
        ]
    else:
        panels = list(DEFAULT_SWEEP_PANELS)

    x = gen_sweep(SWEEP_F_START_HZ, SWEEP_F_END_HZ, SWEEP_DURATION_S, SWEEP_RATE)
    written = []
    for name, spec in panels:
        y = x if spec is None else apply_activation(x, spec)
        csv_path, pgm_path = spectrogram_export(y, SWEEP_FRAME, SWEEP_HOP, out_dir / name)
        written += [csv_path, pgm_path]
    print(f"wrote {len(written)} spectrogram files to {out_dir}")
    return EXIT_OK


def cmd_filter_response(args: argparse.Namespace) -> int:
    n = args.N
    if args.kind == "designed":
        if n < 2:
            raise ConfigError("designed response needs --N >= 2 (the resampling factor)")
        kernel = design_fir(n)
    else:
        kernel = interp_kernel(args.kind, n)
    cutoff_norm = 1.0 / n

    omegas, response = frequency_response(kernel, 4096)
    omega_norm = omegas / np.pi
    mag = np.abs(response)
    dc = mag[0]
    with np.errstate(divide="ignore"):
        mag_db = np.maximum(20.0 * np.log10(mag / dc), -300.0)
    phase = np.angle(response)
    ideal_db = np.where(omega_norm <= cutoff_norm, 0.0, -300.0)

    out = Path(args.out)
    rows = [
        [f"{w:.8f}", f"{m:.6f}", f"{p:.6f}", f"{i:.2f}"]
        for w, m, p, i in zip(omega_norm, mag_db, phase, ideal_db)
    ]
    write_csv(out, ["omega_normalized", "magnitude_db", "phase_rad", "ideal_magnitude_db"], rows)
    print(f"wrote {out}")
    return EXIT_OK


def _keep_freed_memory() -> None:
    """Set the allocator policy of _MALLOPT; glibc only, a no-op elsewhere.

    Reusing arrays cannot remove these faults: numpy gives no way to pass
    pocketfft its work buffer, so rfft(..., out=buf) still faults ~2,000
    pages per call.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not a name this libc knows
        glibc = None
    if not glibc:
        return
    import ctypes

    libc = ctypes.CDLL(None)
    for param, value in _MALLOPT:
        libc.mallopt(param, value)


def _int_in(text: str, low: int, high: int | None = None) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
    return value


def thread_count(text: str) -> int:
    """argparse type for --threads: an integer of at least 1."""
    return _int_in(text, 1)


def upsampling_factor(text: str) -> int:
    """argparse type for --factor: an integer of at least 2."""
    return _int_in(text, 2)


def response_half_width(text: str) -> int:
    """argparse type for filter-response --N: 1 to FILTER_RESPONSE_MAX_N."""
    return _int_in(text, 1, FILTER_RESPONSE_MAX_N)


def seed_value(text: str) -> int:
    """argparse type for --seed: a non-negative integer, as SeedSequence takes."""
    return _int_in(text, 0)


def seed_count(text: str) -> int:
    """argparse type for --seeds: 1 to MAX_CONV_SEEDS."""
    return _int_in(text, 1, MAX_CONV_SEEDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aliasbench",
        description="Aliasing benchmark for activations and upsamplers on band-limited test signals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=seed_value, default=0, help="base seed that run-upsamplers draws from, "
                        "gen-bench and run-activations record and sweep ignores, at least 0 (default 0)")
    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument(
        "--threads",
        type=thread_count,
        default=os.cpu_count() or 1,
        help="worker threads for signal evaluation, at least 1 (default: the CPU count, here %(default)s)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bench", parents=[common], help="synthesize the test-signal benchmark")
    p.add_argument("--out", required=True, help="output directory for WAVs + bench.csv")
    p.set_defaults(func=cmd_gen_bench)

    p = sub.add_parser("run-activations", parents=[common, threaded], help="AHR comparison of activation configs")
    p.add_argument("--bench", required=True,
                   help="benchmark directory from gen-bench; only its bench.csv is read, and each signal is synthesized")
    p.add_argument("--configs", default=None, help="key=value config blocks (default: built-in set)")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_run_activations)

    p = sub.add_parser("run-upsamplers", parents=[common, threaded], help="AHR comparison of upsampler kinds")
    p.add_argument("--bench", required=True, help="benchmark directory from gen-bench")
    p.add_argument("--factor", type=upsampling_factor, default=2, help="upsampling factor L, at least 2 (default 2)")
    p.add_argument("--seeds", type=seed_count, default=10,
                   help=f"ConvTranspose seed count, 1 to {MAX_CONV_SEEDS} (default 10)")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_run_upsamplers)

    p = sub.add_parser("sweep", parents=[common], help="sweep spectrograms per activation panel")
    p.add_argument("--config", default=None, help="activation config blocks (default: six standard panels)")
    p.add_argument("--out", required=True, help="output directory for CSV/PGM spectrograms")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("filter-response", help="frequency response of an upsampling kernel")
    p.add_argument("--kind", choices=("linear", "nearest", "designed"), required=True)
    p.add_argument("--N", type=response_half_width, default=2,
                   help=f"kernel half-width / resampling factor, 1 to {FILTER_RESPONSE_MAX_N} (default 2)")
    p.add_argument("--out", required=True, help="response CSV path")
    p.set_defaults(func=cmd_filter_response)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    _keep_freed_memory()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (WavError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
