"""Shows that the benchmark's checks catch wrong outputs.

    python3 perfbench/selfcheck.py

Runs run-activations and run-upsamplers on a few signals, checks that the
untouched outputs pass, then damages copies of them and checks that each
damage is caught: one AHR moved by 1 dB, two module names swapped, and a WAV
with one partial's sign flipped. Manifest hashes are rewritten after each
damage, so only the checks against the exact references can catch it.
Exits 1 if any damage goes unnoticed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import checks
import oracles as O
import run

WORK = run.OUT / "selfcheck"


def rewrite(path: Path, edit) -> None:
    """Apply edit to a CSV's data lines and refresh its manifest hash."""
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(lines)) + "\n")
    stem = path.stem.removesuffix("_per_signal").removesuffix("_full")
    manifest = path.with_name(stem + "_manifest.json")
    m = json.loads(manifest.read_text())
    m["outputs"][path.name] = checks.sha256(path)
    manifest.write_text(json.dumps(m, sort_keys=True, indent=2) + "\n")


def move_first(module: str, db: float):
    def edit(lines):
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[0] == module:
                cells[-1] = f"{float(cells[-1]) + db:.6f}"
                lines[i] = ",".join(cells)
                break
        return lines
    return edit


def swap(a: str, b: str):
    def edit(lines):
        out = []
        for line in lines:
            name, rest = line.split(",", 1)
            out.append(",".join([{a: b, b: a}.get(name, name), rest]))
        return out
    return edit


def damaged(src: Path, name: str, damage) -> Path:
    """A copy of the results directory with damage applied to one file in it."""
    dst = WORK / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    for file, edit in damage:
        rewrite(dst / file, edit)
    return dst


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    bench = WORK / "bench"
    signals = [(w, n) for w in O.WAVEFORMS for n in (75, 107)]
    run.write_bench(bench, signals, with_wavs=True)
    results = WORK / "results"
    results.mkdir()
    for args in (
        ["run-activations", "--bench", str(bench), "--out", str(results / "act.csv")],
        ["run-upsamplers", "--bench", str(bench), "--seeds", "2", "--out", str(results / "up.csv")],
    ):
        if run.run_process(run.cli(args))[-1] != 0:
            print(f"selfcheck: aliasbench {args[0]} failed")
            return 1

    scales = {s: O.reference_signal(*s)[1] for s in signals}

    def activations(d: Path) -> checks.Verdict:
        return checks.check_activations(d / "act.csv", bench, signals, scales)

    def upsamplers(d: Path) -> checks.Verdict:
        return checks.check_upsamplers(d / "up.csv", bench, signals, 2, 2, 0)

    missed = []
    for what, verdict in (("activations", activations(results)), ("upsamplers", upsamplers(results))):
        if not verdict.correct or verdict.failed:
            missed.append(f"untouched {what} outputs do not pass: {verdict.problems + verdict.failures}")

    cases = [
        ("activations: ELU AHR +1 dB", activations, [("act_per_signal.csv", move_first("ELU", 1.0))]),
        ("activations: SnakeBeta_c4 AHR +1 dB", activations, [("act_per_signal.csv", move_first("SnakeBeta_c4", 1.0))]),
        ("activations: LeakyReLU and ELU swapped", activations,
         [(f, swap("LeakyReLU", "ELU")) for f in ("act_per_signal.csv", "act_full.csv", "act.csv")]),
        ("upsamplers: LinearInterp AHR +1 dB", upsamplers, [("up_per_signal.csv", move_first("LinearInterp", 1.0))]),
        ("upsamplers: LinearInterp and NearestInterp swapped", upsamplers,
         [(f, swap("LinearInterp", "NearestInterp")) for f in ("up_per_signal.csv", "up.csv")]),
    ]
    for i, (what, check, damage) in enumerate(cases):
        verdict = check(damaged(results, f"case{i}", damage))
        if verdict.correct and not verdict.failed:
            missed.append(what)
        else:
            print(f"selfcheck: caught {what}: {(verdict.problems + verdict.failures)[0]}")

    # A WAV with one partial's sign flipped, next to the program's own WAV.
    w, note, k = "sawtooth", 100, 3
    ks, amps = O.fourier_law(w, O.note_freq(note), O.RATE, int(O.RATE * O.DURATION_S))
    if checks.check_wav(bench / "sawtooth_107.wav", w, 107) is not None:
        missed.append("the program's sawtooth_107.wav does not pass")
    amps = np.where(ks == k, -amps, amps)
    raw = O.raw_partial_sum(ks, amps, O.note_freq(note), O.RATE, int(O.RATE * O.DURATION_S))
    flipped = WORK / "flipped.wav"
    wavfile.write(flipped, O.RATE, (raw * O.AMPLITUDE / np.max(np.abs(raw))).astype(np.float32))
    bad = checks.check_wav(flipped, w, note)
    if bad is None:
        missed.append(f"{w} {note} with partial {k} flipped")
    else:
        print(f"selfcheck: caught a flipped partial: {bad}")

    for m in missed:
        print(f"selfcheck: NOT CAUGHT: {m}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
