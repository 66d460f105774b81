"""Benchmark of the aliasbench CLI: time, CPU and memory of its table commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
Each run sets up its inputs three times (set-up time is the median), then
runs whole rounds of the workload's commands in a closed loop, one command
process at a time, until S seconds have passed. Every round's outputs are
checked (see checks.py). With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 rounds alternate between
untraced and traced (tracer.py), and it holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import oracles as O
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACE_DIR = ROOT / ".perfbench_trace"
SETUP_REPEATS = 3

#: activations: a fixed grid, every 8th note down from B7, so that the failing
#: (leakage) operations, and with them `failed`, do not depend on the seed.
ACTIVATION_NOTES = tuple(range(67, 108, 8))
#: upsamplers: per waveform one seeded note from each octave of the grid.
OCTAVES = ((60, 71), (72, 83), (84, 95), (96, 107))
UPSAMPLER_FACTOR = 2
CONV_SEEDS = 10

ACTIVATION_NAMES = (
    "LeakyReLU", "ELU", "SnakeBeta", "AdaaSnakeBeta", "SnakeBeta_c2", "SnakeBeta_c4", "AdaaSnakeBeta_c1",
    "snakebeta_c1", "snakebeta_c2", "snakebeta_c4", "adaa_snakebeta_c1", "adaa_snakebeta_c2",
)
UPSAMPLER_KINDS = ("conv_transpose", "linear", "nearest", "aa_resample")
LAYER_METRICS = (
    ["signals.gen_bandlimited.busy_s", "signals.gen_bandlimited.calls", "signals.gen_sweep.busy_s",
     "wavio.wav_write.busy_s", "wavio.wav_read.busy_s"]
    + [f"activations.apply_activation.{n}.busy_s" for n in ACTIVATION_NAMES]
    + ["filters.upsample_filtered.busy_s", "filters.downsample_filtered.busy_s"]
    + [f"upsamplers.apply_upsampler.{k}.busy_s" for k in UPSAMPLER_KINDS]
    + ["upsamplers.image_frequencies.busy_s", "upsamplers.image_frequencies.images",
       "upsamplers.tonal_probe.busy_s",
       "metrics.estimate_spectrum.busy_s", "metrics.estimate_spectrum.calls", "metrics.fft_points",
       "metrics.measure_ahr.self_s", "metrics.bands.harmonic", "metrics.bands.alias_kept",
       "metrics.spectrogram_export.busy_s", "configio.write.busy_s", "bench.self_s", "trace.overhead_s"]
)


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class Workload:
    """Inputs, commands and output check of one workload, in its own directory."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dir = OUT / self.name
        self.bench = self.dir / "bench"
        self.results = self.dir / "results"
        self.traces = TRACE_DIR / self.name

    def setup(self) -> None:
        for d in (self.dir, self.traces):
            shutil.rmtree(d, ignore_errors=True)
        self.results.mkdir(parents=True)

    def outputs(self) -> list[Path]:
        return sorted(p for p in self.results.rglob("*") if p.is_file())


def write_bench(bench: Path, signals: list[tuple[str, int]], with_wavs: bool) -> None:
    """A bench directory as gen-bench lays it out, for these signals in this order."""
    from aliasbench.signals import TestSignalSpec, gen_bandlimited
    from aliasbench.wavio import wav_write

    bench.mkdir(parents=True)
    lines = ["type,index,f0_hz,duration_s,sample_rate,path"]
    for w, note in signals:
        name = f"{w}_{note:03d}.wav"
        if with_wavs:
            wav_write(gen_bandlimited(TestSignalSpec(w, note)), bench / name)
        lines.append(f"{w},{note},{O.note_freq(note):.6f},{O.DURATION_S:.3f},{O.RATE},{name}")
    (bench / "bench.csv").write_text("\n".join(lines) + "\n")


class Activations(Workload):
    name = "activations"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        grid = [(w, n) for w in O.WAVEFORMS for n in ACTIVATION_NOTES]
        order = np.random.default_rng(seed).permutation(len(grid))
        self.signals = [grid[i] for i in order]

    def setup(self) -> None:
        super().setup()
        write_bench(self.bench, self.signals, with_wavs=True)

    def commands(self) -> list[list[str]]:
        return [["run-activations", "--bench", str(self.bench), "--out", str(self.results / "activations.csv"),
                 "--threads", "1", "--seed", str(self.seed)]]

    def check(self) -> checks.Verdict:
        scales = {s: O.reference_signal(*s)[1] for s in self.signals}
        return checks.check_activations(self.results / "activations.csv", self.bench, self.signals, scales)


class Upsamplers(Workload):
    name = "upsamplers"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.signals = [(w, int(rng.integers(lo, hi + 1))) for w in O.WAVEFORMS for lo, hi in OCTAVES]

    def setup(self) -> None:
        super().setup()
        write_bench(self.bench, self.signals, with_wavs=False)

    def commands(self) -> list[list[str]]:
        return [["run-upsamplers", "--bench", str(self.bench), "--factor", str(UPSAMPLER_FACTOR),
                 "--seeds", str(CONV_SEEDS), "--threads", "2", "--seed", str(self.seed),
                 "--out", str(self.results / "upsamplers.csv")]]

    def check(self) -> checks.Verdict:
        return checks.check_upsamplers(self.results / "upsamplers.csv", self.bench, self.signals,
                                       UPSAMPLER_FACTOR, CONV_SEEDS, self.seed)


class Export(Workload):
    name = "export"

    def commands(self) -> list[list[str]]:
        return [["gen-bench", "--out", str(self.results / "bench"), "--seed", str(self.seed)],
                ["sweep", "--out", str(self.results / "sweeps"), "--seed", str(self.seed)]]

    def check(self) -> checks.Verdict:
        return checks.check_export(self.results / "bench", self.results / "sweeps")


WORKLOADS = {w.name: w for w in (Activations, Upsamplers, Export)}


def child_env() -> dict[str, str]:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_process(argv: list[str]) -> tuple[float, float, float, int]:
    """Wall time, user + system CPU time, peak RSS (MB) and exit code of one process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "aliasbench.cli", *args]


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def band_problems(records: list[dict]) -> list[str]:
    bad = []
    for r in records:
        want = O.harmonic_band_count(r["f0"], r["nyquist"], r["rate"], r["n"], r["edge_trim"], r["k_cap"])
        if r["harmonic"] != want:
            bad.append(f"measure_ahr at f0 {r['f0']:.3f} Hz kept {r['harmonic']} harmonic bands, analytic {want}")
    return bad


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        *_, rc = run_process(cli(["--version"]))  # loads the interpreter and the package from disk
        setup_times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit("perfbench: `aliasbench --version` failed during set-up")

    rounds: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    failures: list[str] = []
    first_digest = None
    measured = 0.0  # command wall time so far; checks do not count
    while True:
        traced = trace and len(rounds) % 2 == 1
        rnd = {"traced": traced, "run_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        trace_files = []
        for i, args in enumerate(wl.commands()):
            if traced:
                wl.traces.mkdir(parents=True, exist_ok=True)
                trace_files.append(wl.traces / f"round{len(rounds)}-{i}.json")
                argv = [sys.executable, str(HERE / "tracer.py"), str(trace_files[-1]), *args]
            else:
                argv = cli(args)
            wall, cpu, peak, rc = run_process(argv)
            rnd["run_s"] += wall
            rnd["cpu_s"] += cpu
            rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], peak)
            if rc != 0:
                problems.append(f"`aliasbench {args[0]}` exited with {rc}")
        if problems:
            rounds.append(rnd)
            attempted, failed = attempted + 1, failed + 1
            break
        out_digest = digest(wl.outputs())
        if first_digest is None:
            try:
                verdict = wl.check()
            except Exception:  # unreadable or malformed outputs: report, then stop measuring
                problems.append(f"outputs could not be checked:\n{traceback.format_exc()}")
                rounds.append(rnd)
                attempted, failed = attempted + 1, failed + 1
                break
            first_digest = out_digest
            problems += verdict.problems
            failures = verdict.failures
        elif out_digest != first_digest:
            problems.append(f"round {len(rounds)} wrote other bytes than round 0")
        attempted += verdict.attempted
        failed += verdict.failed
        if traced:
            layers, records = tracer.layer_metrics(trace_files, rnd["run_s"])
            rnd["layers"] = layers
            problems += band_problems(records)
        rounds.append(rnd)
        print(f"perfbench: round {len(rounds) - 1}{' traced' if traced else ''}: run_s {rnd['run_s']:.3f}"
              f" cpu_s {rnd['cpu_s']:.3f} peak_rss_mb {rnd['peak_rss_mb']:.1f}", file=sys.stderr)
        measured += rnd["run_s"]
        if problems or (measured >= seconds and (not trace or len(rounds) >= 2)):
            break

    for msg in failures + problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        metrics = {"setup_s": statistics.median(setup_times)}
        for key in ("run_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in plain)
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {}
        for key in LAYER_METRICS[:-1]:
            metrics[key] = statistics.median(r.get("layers", {}).get(key, 0.0) for r in traced_rounds) if traced_rounds else 0.0
        metrics["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced_rounds) - statistics.median(r["run_s"] for r in plain)
            if traced_rounds and plain else 0.0
        )
    units = {"peak_rss_mb": "MB"}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, unit(k))} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "aliasbench" / "cli.py").is_file():
        print(f"perfbench: no aliasbench source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    found = subprocess.run(
        [sys.executable, "-c", "import aliasbench; print(aliasbench.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
    )
    if found.returncode != 0 or Path(found.stdout.strip()).resolve().parent != (SRC / "aliasbench").resolve():
        print(f"perfbench: commands would not import aliasbench from {SRC}", file=sys.stderr)
        return 2

    result = measure(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
