"""End-to-end CLI tests: artifacts, formats, determinism, and exit codes.

All invocations go through main(argv) in-process; the tiny session benchmark
keeps the heavy subcommands fast while staying spectrally honest.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import convolve_decimate, convolve_interpolate, make_bench_dir
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aliasbench import cli, filters
from aliasbench.activations import ADAA_BASES, OVERSAMPLE_FACTORS, ActivationSpec
from aliasbench.audio import AudioBuffer
from aliasbench.bench import BENCH_COLUMNS, DEFAULT_ACTIVATIONS, evaluate, ordered_map, wav_name
from aliasbench.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, MAX_CONV_SEEDS, build_parser, main
from aliasbench.metrics import AhrContext, AhrMeasurement, BandPlan, estimate_spectrum, kaiser
from aliasbench.signals import WAVEFORMS, TestSignalSpec, midi_to_freq

ACT_CONFIG = """\
# two cheap nonlinearities
kind = leaky_relu
slope = 0.1
name = A_leaky

kind = snakebeta
name = B_snake
"""


def run(*argv):
    return main(list(argv))


def no_lines(signal):
    """An AhrContext with no alias lines, for evaluate runs whose
    measure_ahr is stubbed."""
    return AhrContext(signal.sample_rate, ())


def stub_measure(monkeypatch, ahr_db=lambda y: -60.0):
    """Replace evaluate's measure_ahr, which the 8-sample stub signals are too
    short for, by one that reads ahr_db(output)."""
    monkeypatch.setattr("aliasbench.bench.measure_ahr",
                        lambda y, f0, context: AhrMeasurement(ahr_db(y), 1, 1, 1.0, 1e-6))


def own_options() -> dict[str, tuple[str, ...]]:
    """Each command's own options, read from the parser, so an option a
    command drops leaves the fuzz table with it."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: tuple(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for command, p in sub.choices.items()
    }


#: Each command's own options.
FUZZ_OWN_OPTIONS = own_options()
#: Every option of some command, and one of none.
FUZZ_OPTIONS = sorted(set().union(*FUZZ_OWN_OPTIONS.values())) + ["--frobnicate"]
FUZZ_VALUES = (-1, 0, 1, 2, 3, 7, 65, 10**12, "x", "", "nan")
#: The options each command requires, with usable values ({bench}: the tiny bench).
FUZZ_REQUIRED = {
    "gen-bench": ["--out", "bench"],
    "run-activations": ["--bench", "{bench}", "--out", "act.csv"],
    "run-upsamplers": ["--bench", "{bench}", "--seeds", "1", "--out", "ups.csv"],
    "sweep": ["--out", "sweep"],
    "filter-response": ["--out", "fr.csv"],
}


@st.composite
def fuzz_argvs(draw):
    """A subcommand, with or without its required options, then up to three
    options, each as likely the command's own as any, with drawn values. A
    valid --seeds above 3 is never drawn: the run would be valid and slow."""
    command = draw(st.sampled_from(sorted(FUZZ_OWN_OPTIONS)))
    argv = [command]
    if draw(st.booleans()):
        argv += FUZZ_REQUIRED[command]
        if command == "filter-response":
            argv += ["--kind", draw(st.sampled_from(("linear", "nearest", "designed")))]
    options = st.sampled_from(FUZZ_OWN_OPTIONS[command]) | st.sampled_from(FUZZ_OPTIONS)
    for option in draw(st.lists(options, max_size=3)):
        values = [v for v in FUZZ_VALUES if not (option == "--seeds" and isinstance(v, int) and 3 < v <= MAX_CONV_SEEDS)]
        argv += [option, str(draw(st.sampled_from(values)))]
    return argv


#: Values the config fuzz draws for each ActivationSpec field that cast and
#: that the spec accepts. 1e153 overflows only the harmonic energy of the
#: tiny bench's one-second signals; 1e150 leaves it finite there.
CONFIG_FLOATS = ("0.1", "1", "2.5", "1e150", "1e153", "1e200", "1e308")
CONFIG_GOOD = {f.name: CONFIG_FLOATS for f in fields(ActivationSpec) if f.type == "float"} | {
    "kind": ActivationSpec._KINDS,
    "adaa_base": ADAA_BASES,
    "oversample": tuple(str(f) for f in OVERSAMPLE_FACTORS),
    "name": ("n1", "ok_name"),
    "table_row": ("true", "False"),
}
#: Values that fail a cast or a check for most fields: non-finite floats,
#: bad casts, an unknown kind and names with a forbidden character.
CONFIG_BAD = ("nan", "inf", "-inf", "-1", "0", "3", "1.5", "x", "", "yes", "square",
              "a,b", 'q"r', "p/q", "r\\s")
#: Lines that are no field of any spec: a comment, and four a parser rejects.
CONFIG_ODD_LINES = ("# a comment", "no equals sign", "frobnicate = 1", "Kind = elu", " = 1")


@st.composite
def config_texts(draw):
    """Key = value text of up to three blocks. A block names up to three
    fields, kind among them or added three times in four; a value casts and
    passes the spec three times in four. One block in four repeats a line or
    holds an odd line; endings are LF or CRLF, and one text in four starts
    with a BOM."""
    rarely = st.sampled_from((False, False, False, True))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        keys = draw(st.lists(st.sampled_from(sorted(CONFIG_GOOD)), max_size=3, unique=True))
        if "kind" not in keys and not draw(rarely):
            keys.insert(0, "kind")
        lines = [f"{k} = {draw(st.sampled_from(CONFIG_BAD if draw(rarely) else CONFIG_GOOD[k]))}" for k in keys]
        if lines and draw(rarely):
            lines.append(draw(st.sampled_from(lines)))
        if draw(rarely):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(CONFIG_ODD_LINES)))
        blocks.append(lines)
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = (eol * draw(st.integers(2, 3))).join(eol.join(b) for b in blocks) + eol
    return ("\ufeff" if draw(rarely) else "") + text


#: bench.csv of the tiny session bench (conftest.make_bench_dir's defaults), as cells.
TINY_BENCH_ROWS = [
    [w, str(n), f"{midi_to_freq(n):.6f}", "1.000", "44100", f"{w}_{n:03d}.wav"] for w in WAVEFORMS for n in (60, 107)
]
#: The lines of that bench.csv.
BENCH_TEXT_LINES = [",".join(BENCH_COLUMNS)] + [",".join(r) for r in TINY_BENCH_ROWS]
#: Values the bench.csv fuzz draws that pass each column's cast, and at
#: most 1 s and 44,100 Hz: a valid longer or faster signal, up to
#: signals.MAX_SIGNAL_SAMPLES, would really be synthesized, and
#: run-upsamplers sizes it from bench.csv alone.
BENCH_GOOD = {
    "type": WAVEFORMS,
    "index": ("60", "72", "107"),
    "f0_hz": tuple(f"{midi_to_freq(n):.6f}" for n in (60, 72, 107)),
    "duration_s": ("1.000", "1", "0.5"),
    "sample_rate": ("44100", "22050"),
    "path": tuple(r[5] for r in TINY_BENCH_ROWS),
}
#: Values that fail a cast or a rule of most columns: bad casts, non-finite
#: and overflowing numbers, durations and rates above
#: signals.MAX_SIGNAL_SAMPLES, notes off the grid and an unknown waveform.
BENCH_BAD = ("-1", "0", "nan", "inf", "1e308", "1e300", "1000000000000000000", "", "x", "59", "108", "square")


@st.composite
def bench_csv_texts(draw):
    """The tiny bench's bench.csv with up to three cells replaced, a drawn
    value failing its column one time in two. One text in four repeats a
    row, and one in four drops a cell of the header or of a row, or repeats
    a column. Endings are LF or CRLF. A duration_s of 59 or 108 is never
    drawn: 59 s at 22,050 Hz is within signals.MAX_SIGNAL_SAMPLES, so it
    would really be synthesized."""
    rarely = st.sampled_from((False, False, False, True))
    rows = [list(BENCH_COLUMNS)] + [list(r) for r in TINY_BENCH_ROWS]
    if draw(rarely):
        rows.append(list(draw(st.sampled_from(rows[1:]))))
    for _ in range(draw(st.integers(0, 3))):
        row, col = draw(st.sampled_from(rows[1:])), draw(st.integers(0, len(BENCH_COLUMNS) - 1))
        column = BENCH_COLUMNS[col]
        bad = [v for v in BENCH_BAD if not (column == "duration_s" and v in ("59", "108"))]
        row[col] = draw(st.sampled_from(bad if draw(st.booleans()) else BENCH_GOOD[column]))
    if draw(rarely):
        col = draw(st.integers(0, len(BENCH_COLUMNS) - 1))
        if draw(st.booleans()):
            del draw(st.sampled_from(rows))[col]
        else:
            for row in rows:
                row.append(row[col])
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(",".join(r) for r in rows) + eol


@pytest.fixture()
def act_cfg(tmp_path):
    p = tmp_path / "acts.cfg"
    p.write_text(ACT_CONFIG, encoding="utf-8")
    return p


def outputs_by_buffer_read(tiny_bench, tmp_path, monkeypatch, *command):
    """Every file a table command writes on the tiny bench, read two ways:
    "classes", each buffer measure_ahr takes read in residue classes
    (BandPlan.read_windowed), and "rfft", each read as its one full-length
    rfft, estimate_spectrum(output, edge_trim).spectrum[plan.bins]."""
    root, _ = tiny_bench
    outs, rfft_reads = {}, []

    def read_by_rfft(plan, samples):
        rfft_reads.append(samples.size)
        return estimate_spectrum(AudioBuffer(samples, 1), plan.edge_trim).spectrum[plan.bins]

    for path in ("classes", "rfft"):
        out = tmp_path / path / "out.csv"
        with monkeypatch.context() as mp:
            if path == "rfft":
                mp.setattr(BandPlan, "read_windowed", read_by_rfft)
            assert run(*command, "--bench", str(root), "--out", str(out)) == EXIT_OK
        outs[path] = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
    assert rfft_reads
    return outs


class TestRunActivations:
    def test_buffers_write_the_full_rfft_paths_bytes(self, tiny_bench, tmp_path, monkeypatch):
        """Every output is measured as a buffer, read in residue classes.
        Every file equals a run that reads each through estimate_spectrum's
        one full-length rfft."""
        outs = outputs_by_buffer_read(tiny_bench, tmp_path, monkeypatch, "run-activations")
        assert len(outs["rfft"]) == 4
        assert outs["classes"] == outs["rfft"]

    def test_produces_full_artifact_set(self, tiny_bench, act_cfg, tmp_path):
        root, _ = tiny_bench
        out = tmp_path / "res" / "act.csv"
        rc = run("run-activations", "--bench", str(root), "--configs", str(act_cfg), "--out", str(out))
        assert rc == EXIT_OK
        names = sorted(p.name for p in out.parent.iterdir())
        assert names == ["act.csv", "act_full.csv", "act_manifest.json", "act_per_signal.csv"]

        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "module,sine_db,sawtooth_db,triangle_db,average_db"
        assert [row.split(",")[0] for row in lines[1:]] == ["A_leaky", "B_snake"]

        per_signal = out.with_name("act_per_signal.csv").read_text(encoding="utf-8").splitlines()
        assert per_signal[0] == "module_name,config_hash,waveform,f0_hz,ahr_db"
        assert len(per_signal) == 1 + 2 * 6

        full = out.with_name("act_full.csv").read_text(encoding="utf-8").splitlines()
        assert full[0] == "module,config_hash,oversample,sine_db,sawtooth_db,triangle_db,average_db"
        assert len(full) == 3

    def test_builtin_configs_summarize_only_table_rows(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        out = tmp_path / "builtin.csv"
        assert run("run-activations", "--bench", str(root), "--out", str(out)) == EXIT_OK
        rows = [ln.split(",")[0] for ln in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert rows == ["LeakyReLU", "ELU", "SnakeBeta", "AdaaSnakeBeta"]
        full = out.with_name("builtin_full.csv").read_text(encoding="utf-8").splitlines()
        assert len(full) == 1 + 7  # every config appears in the full table

    def test_thread_count_does_not_change_results(self, tiny_bench, act_cfg, tmp_path):
        root, _ = tiny_bench
        out1 = tmp_path / "t1.csv"
        out4 = tmp_path / "t4.csv"
        assert run("run-activations", "--bench", str(root), "--configs", str(act_cfg),
                   "--out", str(out1), "--threads", "1") == EXIT_OK
        assert run("run-activations", "--bench", str(root), "--configs", str(act_cfg),
                   "--out", str(out4), "--threads", "4") == EXIT_OK
        assert (out1.with_name("t1_per_signal.csv").read_bytes().split(b"\n", 1)[1]
                == out4.with_name("t4_per_signal.csv").read_bytes().split(b"\n", 1)[1])

    def test_pool_starts_no_more_workers_than_signals(self, monkeypatch):
        """Each signal is one pool task that runs every config, so a thread
        count far past the signal count starts one worker per signal."""
        workers = set()

        def apply(x, spec):
            workers.add(threading.get_ident())
            time.sleep(0.01)
            return x

        monkeypatch.setattr("aliasbench.bench.gen_bandlimited", lambda signal: AudioBuffer(np.zeros(8), 8000))
        stub_measure(monkeypatch)
        signals = [TestSignalSpec(w, 69) for w in WAVEFORMS]
        reports = evaluate(signals, DEFAULT_ACTIVATIONS, apply, no_lines, threads=1000)
        assert [r.module_name for r in reports] == [c.name for c in DEFAULT_ACTIVATIONS]
        assert 1 <= len(workers) <= len(signals)

    def test_signals_stream_through_the_pool(self, monkeypatch):
        """Each signal is synthesized once, and lives only while its configs
        run: no more than min(threads, signals) are alive at once, and none
        outlives evaluate. The rows do not depend on the thread count."""
        lock = threading.Lock()
        last = DEFAULT_ACTIVATIONS[-1]
        rows = {}
        for threads in (1, 4):
            calls = [0] * 6
            alive = peak = 0
            buffers = []

            def synthesize(signal):
                nonlocal alive, peak
                i = signal.midi_note - 60
                buf = AudioBuffer(np.full(8, float(i)), 8000)
                with lock:
                    calls[i] += 1
                    alive += 1
                    peak = max(peak, alive)
                    buffers.append(weakref.ref(buf))
                return buf

            def apply(x, spec):
                nonlocal alive
                time.sleep(0.002)
                if spec is last:
                    with lock:
                        alive -= 1
                return x.with_samples(np.full(1, -10.0 * x.samples[0] - len(spec.name)))

            monkeypatch.setattr("aliasbench.bench.gen_bandlimited", synthesize)
            stub_measure(monkeypatch, lambda y: float(y.samples[0]))
            signals = [TestSignalSpec(w, 60 + i) for i, w in enumerate(WAVEFORMS * 2)]
            reports = evaluate(signals, DEFAULT_ACTIVATIONS, apply, no_lines, threads=threads)
            assert calls == [1] * len(signals)
            assert alive == 0
            assert 1 <= peak <= min(threads, len(signals))
            assert all(ref() is None for ref in buffers)
            rows[threads] = [r.per_signal for r in reports]
        assert rows[1] == rows[4]

    def test_a_failing_signal_cancels_the_signals_not_started(self, monkeypatch):
        """A synthesis that raises ends the run: evaluate re-raises its error,
        and the signals whose tasks had not started are never synthesized."""
        produced = []

        def synthesize(signal):
            produced.append(signal.midi_note)
            if signal.midi_note == 60:
                raise OSError("unreadable signal")
            return AudioBuffer(np.zeros(8), 8000)

        def apply(x, spec):
            time.sleep(0.01)
            return x

        monkeypatch.setattr("aliasbench.bench.gen_bandlimited", synthesize)
        stub_measure(monkeypatch)
        signals = [TestSignalSpec("sine", 60 + i) for i in range(12)]
        with pytest.raises(OSError, match="unreadable signal"):
            evaluate(signals, DEFAULT_ACTIVATIONS, apply, no_lines, threads=2)
        assert 1 <= len(produced) <= 4

    def test_each_signal_builds_its_context_once(self, monkeypatch):
        """A signal's lines do not depend on the spec: its pool task builds
        its context once and measures every spec's output against it."""
        built, measured = [], []

        def context(signal):
            built.append(signal)
            return AhrContext(signal.sample_rate, (float(signal.midi_note),))

        def measure(y, f0, ctx):
            measured.append((f0, ctx.alias_freqs))
            return AhrMeasurement(-60.0, 1, 1, 1.0, 1e-6)

        monkeypatch.setattr("aliasbench.bench.gen_bandlimited", lambda signal: AudioBuffer(np.zeros(8), 8000))
        monkeypatch.setattr("aliasbench.bench.measure_ahr", measure)
        signals = [TestSignalSpec(w, 60 + i) for i, w in enumerate(WAVEFORMS * 2)]
        evaluate(signals, DEFAULT_ACTIVATIONS, lambda x, spec: x, context, threads=2)
        assert sorted(built, key=lambda s: s.midi_note) == signals
        assert sorted(measured) == sorted(
            (s.f0_hz, (float(s.midi_note),)) for s in signals for _ in DEFAULT_ACTIVATIONS)

    @pytest.mark.parametrize("cpus, threads", [(3, 3), (None, 1)])
    def test_threads_default_to_the_cpu_count(self, tiny_bench, act_cfg, tmp_path, monkeypatch, cpus, threads):
        """Without --threads a run uses os.cpu_count() workers (1 where that
        is unknown), records the count, and writes the --threads 1 rows."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert build_parser().parse_args(["run-activations", "--bench", "b", "--out", "x"]).threads == threads
        root, _ = tiny_bench
        one, default = tmp_path / "one.csv", tmp_path / "default.csv"
        assert run("run-activations", "--bench", str(root), "--configs", str(act_cfg),
                   "--out", str(one), "--threads", "1") == EXIT_OK
        assert run("run-activations", "--bench", str(root), "--configs", str(act_cfg),
                   "--out", str(default)) == EXIT_OK
        manifest = json.loads(default.with_name("default_manifest.json").read_text(encoding="utf-8"))
        assert manifest["threads"] == threads
        assert (one.with_name("one_per_signal.csv").read_bytes()
                == default.with_name("default_per_signal.csv").read_bytes())

    def test_empty_config_file_is_a_config_error(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing\n", encoding="utf-8")
        rc = run("run-activations", "--bench", str(root), "--configs", str(cfg),
                 "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG

    def test_missing_bench_dir_is_an_io_error(self, tmp_path):
        rc = run("run-activations", "--bench", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_IO

    def test_wavs_are_not_read(self, tiny_bench, act_cfg, tmp_path):
        """run-activations synthesizes every signal from bench.csv, as
        run-upsamplers does. A copy of the bench with every WAV deleted, and
        one with a WAV truncated, give the intact bench's output files byte
        for byte; the manifests differ only in bench_dir."""
        root, specs = tiny_bench
        no_wavs, truncated = tmp_path / "no_wavs", tmp_path / "truncated"
        for copy in (no_wavs, truncated):
            shutil.copytree(root, copy)
        for spec in specs:
            (no_wavs / wav_name(spec)).unlink()
        victim = truncated / wav_name(specs[-1])
        victim.write_bytes(victim.read_bytes()[:40])
        outputs = []
        for bench_dir in (root, no_wavs, truncated):
            out = tmp_path / "out" / bench_dir.name / "x.csv"
            assert run("run-activations", "--bench", str(bench_dir), "--configs", str(act_cfg),
                       "--threads", "1", "--out", str(out)) == EXIT_OK
            files = {p.name: p.read_bytes() for p in out.parent.iterdir()}
            manifest = json.loads(files.pop("x_manifest.json"))
            assert manifest.pop("bench_dir") == str(bench_dir)
            outputs.append((files, manifest))
        assert len(outputs[0][0]) == 3
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_unknown_adaa_base_is_a_config_error(self, tiny_bench, tmp_path, capsys):
        root, _ = tiny_bench
        cfg = tmp_path / "bad_base.cfg"
        cfg.write_text("kind = adaa_generic\nadaa_base = nope\n", encoding="utf-8")
        rc = run("run-activations", "--bench", str(root), "--configs", str(cfg),
                 "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "adaa_base" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["run-activations", "sweep"])
    def test_setting_the_kind_ignores_is_a_config_error(self, tiny_bench, tmp_path, capsys, command):
        """A field the block's kind does not read would move its config hash
        and not its output: the file exits 2 with one line naming it, and
        nothing is written."""
        root, _ = tiny_bench
        cfg = tmp_path / "ignored.cfg"
        cfg.write_text("kind = snakebeta\nname = S\n\nkind = elu\nslope = 0.2\n", encoding="utf-8")
        out = tmp_path / "out"
        if command == "run-activations":
            rc = run(command, "--bench", str(root), "--configs", str(cfg), "--out", str(out / "x.csv"))
        else:
            rc = run(command, "--config", str(cfg), "--out", str(out))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: slope does not apply to elu\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [("alpha", "nan"), ("elu_a", "nan"), ("slope", "inf"), ("slope", "nan"),
         ("adaa_tol", "nan"), ("beta", "inf"), ("beta", "-Infinity")],
    )
    def test_non_finite_value_is_a_config_error(self, tiny_bench, tmp_path, capsys, key, value):
        root, _ = tiny_bench
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(f"kind = adaa_snakebeta\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = run("run-activations", "--bench", str(root), "--configs", str(cfg), "--out", str(out))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: bad value for {key!r}: {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,key,value", [
        ("leaky_relu", "slope", "1e153"),
        ("leaky_relu", "slope", "1e200"),
        ("leaky_relu", "slope", "1e308"),
        ("elu", "elu_a", "1e308"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_spectrum_is_a_numeric_error(self, tiny_bench, tmp_path, capsys, kind, key, value):
        """Finite samples whose band energies overflow: inf / inf used to
        clamp to the best score, and x / inf to raise from log10(0)."""
        root, _ = tiny_bench
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"kind = {kind}\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = run("run-activations", "--bench", str(root), "--configs", str(cfg), "--out", str(out))
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and errors[0].startswith("numeric error: non-finite band energy")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["Snake,Beta", 'Snake"Beta', "a/b", "a\\b", "a\x00b", "a\x1bb"])
    def test_name_with_csv_delimiter_is_a_config_error(self, tiny_bench, tmp_path, capsys, name):
        """Names go unquoted into the CSVs and into sweep's panel file names,
        so both commands reject a delimiter, a path separator or a control
        character up front."""
        root, _ = tiny_bench
        cfg = tmp_path / "badname.cfg"
        cfg.write_text(f"kind = snakebeta\nname = {name}\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = run("run-activations", "--bench", str(root), "--configs", str(cfg), "--out", str(out))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for 'name'") and len(err.splitlines()) == 1
        assert not out.exists()
        panels = tmp_path / "panels"
        assert run("sweep", "--config", str(cfg), "--out", str(panels)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for 'name'") and len(err.splitlines()) == 1
        assert not any(panels.rglob("*.*"))

    def test_malformed_bench_csv_is_a_config_error(self, tmp_path):
        bad = tmp_path / "badbench"
        bad.mkdir()
        (bad / "bench.csv").write_text("who,what\n1,2\n", encoding="utf-8")
        rc = run("run-activations", "--bench", str(bad), "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG


class TestRunUpsamplers:
    def test_summary_has_the_four_module_rows(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        out = tmp_path / "ups.csv"
        rc = run("run-upsamplers", "--bench", str(root), "--seeds", "1", "--out", str(out))
        assert rc == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "module,sine_db,sawtooth_db,triangle_db,average_db,"
            "prior_on_average_db,tonal_line_db,seed_std_db"
        )
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "ConvTranspose", "LinearInterp", "NearestInterp", "AntiAliasedResample",
        ]
        assert (tmp_path / "ups_per_signal.csv").exists()
        assert (tmp_path / "ups_manifest.json").exists()

    def test_seed_count_only_moves_the_seeded_rows(self, tiny_bench, tmp_path):
        """Linear/Nearest are untouched by --seeds; ConvTranspose averages
        over more draws; the AA row changes only its prior-on column (the
        prior stream is the seed after the ConvTranspose block)."""
        root, _ = tiny_bench
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run("run-upsamplers", "--bench", str(root), "--seeds", "1", "--out", str(out1)) == EXIT_OK
        assert run("run-upsamplers", "--bench", str(root), "--seeds", "2", "--out", str(out2)) == EXIT_OK
        rows1 = {ln.split(",")[0]: ln for ln in out1.read_text(encoding="utf-8").splitlines()[1:]}
        rows2 = {ln.split(",")[0]: ln for ln in out2.read_text(encoding="utf-8").splitlines()[1:]}
        assert rows1["LinearInterp"] == rows2["LinearInterp"]
        assert rows1["NearestInterp"] == rows2["NearestInterp"]
        assert rows1["ConvTranspose"] != rows2["ConvTranspose"]
        aa1 = rows1["AntiAliasedResample"].split(",")
        aa2 = rows2["AntiAliasedResample"].split(",")
        assert aa1[:5] == aa2[:5] and aa1[6:] == aa2[6:]

    def test_thread_count_does_not_change_results(self, tiny_bench, tmp_path):
        """--threads 1 and 2 write the same summary and per-signal bytes,
        each run starting with no analysis window cached, so at 2 threads
        both workers build their first window at once."""
        root, _ = tiny_bench
        outs = {}
        for threads in ("1", "2"):
            kaiser.cache_clear()
            out = tmp_path / f"t{threads}" / "ups.csv"
            assert run("run-upsamplers", "--bench", str(root), "--seeds", "2",
                       "--out", str(out), "--threads", threads) == EXIT_OK
            outs[threads] = [out.read_bytes(), out.with_name("ups_per_signal.csv").read_bytes()]
        assert outs["1"] == outs["2"]

    def test_superposed_layers_write_the_direct_paths_bytes(self, tiny_bench, tmp_path, monkeypatch):
        """At --seeds 10 the ConvTranspose and NearestInterp AHRs are read off
        shared shifted-input spectra (upsamplers.LinearOutput). Every file
        equals a run with every layer formed and measured directly."""
        root, _ = tiny_bench
        outs = {}
        for path in ("superposed", "direct"):
            if path == "direct":
                monkeypatch.setattr("aliasbench.bench.superposed_layers", lambda specs: set())
            out = tmp_path / path / "ups.csv"
            assert run("run-upsamplers", "--bench", str(root), "--seeds", "10", "--out", str(out)) == EXIT_OK
            outs[path] = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
        assert len(outs["direct"]) == 3
        assert outs["superposed"] == outs["direct"]

    @pytest.mark.parametrize("seeds", ["1", "10"])
    def test_formed_layers_write_the_old_formed_paths_bytes(self, tiny_bench, tmp_path, monkeypatch, seeds):
        """The layers that are not superposed are formed and measured as
        buffers, read in residue classes. Every file equals a run that reads
        each buffer through estimate_spectrum's one full-length rfft."""
        outs = outputs_by_buffer_read(tiny_bench, tmp_path, monkeypatch, "run-upsamplers", "--seeds", seeds)
        assert len(outs["rfft"]) == 3
        assert outs["classes"] == outs["rfft"]

    def test_factor_must_divide_the_bench_rate(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        rc = run("run-upsamplers", "--bench", str(root), "--factor", "8",
                 "--seeds", "1", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG

    def test_factor_above_a_signals_nyquist_rejected(self, tiny_bench, tmp_path, capsys):
        """44.1 kHz / 7 puts B7 (3951 Hz) above the 3150 Hz input Nyquist."""
        root, _ = tiny_bench
        rc = run("run-upsamplers", "--bench", str(root), "--factor", "7",
                 "--seeds", "1", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "note 107" in err
        assert not (tmp_path / "x.csv").exists()

    def test_note_between_the_cap_and_the_input_nyquist_rejected(self, tiny_bench, tmp_path, capsys):
        """44.1 kHz / 7 is 6300 Hz: G7 (3135.96 Hz) is below its 3150 Hz
        Nyquist but above its 3100 Hz partial cap, so its input would be
        silence, which every linear layer would score as perfect."""
        bench = edited_bench(tiny_bench, tmp_path, lambda rows: [
            r[:1] + ["103", f"{midi_to_freq(103):.6f}"] + r[3:] if r[1] == "107" else r for r in rows])
        err = expect_config_error(("run-upsamplers", "--factor", "7", "--seeds", "1"), bench, tmp_path, capsys)
        assert err.startswith("error: sine note 103 at factor 7: fundamental 3135.96 Hz is not below "
                              "the partial cap 3100.00 Hz")

    def test_factor_below_two_rejected(self, tiny_bench, tmp_path, capsys):
        root, _ = tiny_bench
        rc = run("run-upsamplers", "--bench", str(root), "--factor", "1",
                 "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if "error:" in ln] == [
            "aliasbench run-upsamplers: error: argument --factor: must be at least 2, got 1"
        ]
        assert not (tmp_path / "x.csv").exists()

    def test_zero_seeds_rejected(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        rc = run("run-upsamplers", "--bench", str(root), "--seeds", "0",
                 "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG


#: Both table commands, with the options that keep run-upsamplers cheap.
TABLE_COMMANDS = [("run-activations",), ("run-upsamplers", "--seeds", "1")]


def edited_bench(tiny_bench, tmp_path, edit):
    """A copy of the tiny bench whose bench.csv, as rows of cells with the
    header first, is edit(rows)."""
    root, _ = tiny_bench
    bench = tmp_path / "edited"
    shutil.copytree(root, bench)
    rows = [ln.split(",") for ln in (bench / "bench.csv").read_text(encoding="utf-8").splitlines()]
    (bench / "bench.csv").write_text("\n".join(",".join(r) for r in edit(rows)) + "\n", encoding="utf-8")
    return bench


def expect_config_error(command, bench, tmp_path, capsys) -> str:
    """Run command on bench; it must exit 2 with one error line and write
    nothing. Returns the error line."""
    out = tmp_path / "out" / "x.csv"
    rc = run(*command, "--bench", str(bench), "--threads", "1", "--out", str(out))
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.parent.exists()
    return err


class TestBenchValidation:
    @pytest.fixture()
    def sine_only_bench(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        bench = tmp_path / "sine_only"
        shutil.copytree(root, bench)
        lines = (bench / "bench.csv").read_text(encoding="utf-8").splitlines()
        kept = [ln for ln in lines if ln.startswith(("type,", "sine,"))]
        (bench / "bench.csv").write_text("\n".join(kept) + "\n", encoding="utf-8")
        return bench

    @pytest.mark.parametrize("f0", ["0", "nan", "30000"])
    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_bad_f0_is_a_config_error(self, tiny_bench, tmp_path, capsys, command, f0):
        """An f0_hz that is not finite or not in (0, Nyquist) is rejected when
        bench.csv is read, whether or not the command uses it."""
        root, _ = tiny_bench
        bench = tmp_path / "bad_f0"
        shutil.copytree(root, bench)
        lines = (bench / "bench.csv").read_text(encoding="utf-8").splitlines()
        row = lines[1].split(",")
        row[2] = f0
        lines[1] = ",".join(row)
        (bench / "bench.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = run(*command, "--bench", str(bench), "--out", str(out))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "f0_hz" in err and len(err.splitlines()) == 1
        assert not out.exists()

    # sine note 60 is 261.625565 Hz
    @pytest.mark.parametrize("index,f0", [("60", "300.000000"), ("60", "261.625566")])
    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_f0_that_is_not_the_notes_frequency_is_a_config_error(self, tiny_bench, tmp_path, capsys, command, index, f0):
        """Both commands measure at the note's frequency and read no f0_hz,
        but bench.csv is outside input: a row whose column disagrees with
        its note beyond the column's rounding is rejected."""
        root, _ = tiny_bench
        bench = tmp_path / "wrong_f0"
        shutil.copytree(root, bench)
        lines = (bench / "bench.csv").read_text(encoding="utf-8").splitlines()
        row = lines[1].split(",")
        assert row[:3] == ["sine", "60", "261.625565"]
        row[1:3] = [index, f0]
        lines[1] = ",".join(row)
        (bench / "bench.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = run(*command, "--bench", str(bench), "--out", str(out))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not the note's frequency" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_bytes_that_are_not_utf8_are_a_config_error(self, tiny_bench, tmp_path, capsys, command):
        """A bench.csv holding a 0xFF byte, which no UTF-8 text holds, ends
        in one error line that names the file, not in a decoder traceback."""
        bench = edited_bench(tiny_bench, tmp_path, lambda rows: rows)
        csv_path = bench / "bench.csv"
        csv_path.write_bytes(csv_path.read_bytes().replace(b"sine,60", b"sine\xff,60"))
        err = expect_config_error(command, bench, tmp_path, capsys)
        assert f"{csv_path}: not UTF-8 text" in err

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_unknown_waveform_is_a_config_error(self, tiny_bench, tmp_path, capsys, command):
        """An extra square row, whatever WAV it names, is refused by both
        commands rather than averaged into a table."""
        bench = edited_bench(tiny_bench, tmp_path, lambda rows: rows + [["square"] + rows[1][1:]])
        err = expect_config_error(command, bench, tmp_path, capsys)
        assert "unknown waveform 'square'" in err

    # a note index of 20000 has no float frequency
    @pytest.mark.parametrize("index,f0", [("59", f"{midi_to_freq(59):.6f}"), ("108", f"{midi_to_freq(108):.6f}"),
                                          ("20000", "261.625565")])
    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_note_outside_the_grid_is_a_config_error(self, tiny_bench, tmp_path, capsys, command, index, f0):
        """The grid is notes 60..107: a row off it is refused even when its
        f0_hz is the note's own frequency."""
        bench = edited_bench(tiny_bench, tmp_path, lambda rows: [rows[0], [rows[1][0], index, f0] + rows[1][3:]] + rows[2:])
        err = expect_config_error(command, bench, tmp_path, capsys)
        assert f"midi_note {index} outside the benchmark range [60, 107]" in err

    def test_note_between_the_cap_and_nyquist_is_a_config_error(self, tiny_bench, tmp_path, capsys):
        """B7 (3951.07 Hz) for 3 s at 8 kHz is below Nyquist (4000 Hz) but
        above the 3950 Hz partial cap: the row would be synthesized as
        silence and score -120 dB on every activation, so it is refused."""
        bench = edited_bench(tiny_bench, tmp_path, lambda rows: [
            rows[0], ["sine", "107", f"{midi_to_freq(107):.6f}", "3.000", "8000", rows[2][5]]] + rows[2:])
        err = expect_config_error(("run-activations",), bench, tmp_path, capsys)
        assert err.startswith(f"error: {bench / 'bench.csv'}: line 2: fundamental 3951.07 Hz is not below "
                              "the partial cap 3950.00 Hz")

    @pytest.mark.parametrize("duration", ["nan", "inf", "1e308"])
    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_duration_without_a_finite_sample_count_is_a_config_error(self, tiny_bench, tmp_path, capsys, command, duration):
        """A duration_s whose sample count is not a finite number is refused
        when bench.csv is read, before any sample count is rounded."""
        bench = edited_bench(tiny_bench, tmp_path, lambda rows: [rows[0], rows[1][:3] + [duration] + rows[1][4:]] + rows[2:])
        err = expect_config_error(command, bench, tmp_path, capsys)
        assert f"duration_s must be positive with a finite sample count, got {float(duration)}" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda rows: [rows[0], rows[1][:5]] + rows[2:], "bench.csv: line 2: expected 6 cells"),
        (lambda rows: [rows[0], rows[1] + ["x"]] + rows[2:], "bench.csv: line 2: expected 6 cells"),
        (lambda rows: [r + [r[5]] for r in rows], "unexpected benchmark CSV header"),
    ], ids=["short-row", "long-row", "repeated-column"])
    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_rows_and_header_of_the_wrong_width_are_a_config_error(self, tiny_bench, tmp_path, capsys, command,
                                                                   edit, message):
        """Every column is named once, and every row has one cell per column."""
        err = expect_config_error(command, edited_bench(tiny_bench, tmp_path, edit), tmp_path, capsys)
        assert message in err

    @pytest.mark.parametrize("column,value,message", [
        (3, "1e300", "duration_s 1e+300 at 44100 Hz is above 2097152 samples"),
        (4, "1000000000000000000", "sample_rate 1000000000000000000 is above 2097152"),
    ], ids=["duration_s", "sample_rate"])
    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_signal_above_the_size_bound_is_a_config_error(self, tiny_bench, tmp_path, capsys, command,
                                                           column, value, message):
        """run-upsamplers sizes each synthesis from bench.csv alone, so a row
        of more than signals.MAX_SIGNAL_SAMPLES samples, or at a higher rate,
        is refused on both commands when bench.csv is read, and the message
        prints no sample count."""
        bench = edited_bench(tiny_bench, tmp_path, lambda rows: [rows[0], rows[1][:column] + [value] + rows[1][column + 1:]] + rows[2:])
        err = expect_config_error(command, bench, tmp_path, capsys)
        assert err == f"error: {bench / 'bench.csv'}: line 2: {message}\n"

    @pytest.mark.parametrize("command,where", [
        (TABLE_COMMANDS[0], "at 44100 Hz"),
        (TABLE_COMMANDS[1], "upsampled from 22050 Hz by 2"),
    ], ids=["run-activations", "run-upsamplers"])
    def test_signals_too_short_to_analyse_are_a_config_error(self, tmp_path, capsys, command, where):
        """0.3 s at 44.1 kHz is 13,230 samples, fewer than the 2 x 8192 edge
        samples plus 1024 an analysis needs. Both commands reject the first
        such row before any signal is measured, each naming the rate the
        row is measured at."""
        bench = tmp_path / "short"
        make_bench_dir(bench, duration_s=0.3)
        out = tmp_path / "out" / "x.csv"
        rc = run(*command, "--bench", str(bench), "--threads", "1", "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == f"error: sine note 60 {where}: 13230 samples to analyse, " \
                      "fewer than 17408 (1024 once 8192 are cut from each edge)\n"
        assert not out.parent.exists()

    def test_tonal_probe_too_short_to_analyse_is_a_config_error(self, tmp_path, capsys, act_cfg):
        """At 8 kHz, 5 s signals are long enough at factor 2, but the tonal
        probe's 1 s at 4 kHz upsampled by 2 gives 8000 samples: run-activations
        runs, and run-upsamplers is rejected before any signal is measured."""
        bench = tmp_path / "slow"
        make_bench_dir(bench, notes=(60, 72), duration_s=5.0, sample_rate=8000)
        out = tmp_path / "out"
        rc = run("run-activations", "--bench", str(bench), "--configs", str(act_cfg), "--threads", "1",
                 "--out", str(out / "act.csv"))
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = run("run-upsamplers", "--bench", str(bench), "--seeds", "1", "--threads", "1",
                 "--out", str(out / "up.csv"))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == "error: tonal probe: 1 s at 4000 Hz upsampled by 2: 8000 samples to analyse, " \
                      "fewer than 17408 (1024 once 8192 are cut from each edge)\n"
        assert not (out / "up.csv").exists()

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_missing_waveforms_are_a_config_error(self, sine_only_bench, tmp_path, capsys, command):
        rc = run(*command, "--bench", str(sine_only_bench), "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sawtooth, triangle" in err


#: The keys of every table command's manifest.
SHARED_MANIFEST_KEYS = {
    "command", "version", "bench_dir", "bench_csv_sha256", "seed", "threads", "signals", "analysis", "outputs",
}


class TestRunManifest:
    @pytest.mark.parametrize("command,own_keys,written", [
        ("run-activations", {"config_source", "configs"}, {"t.csv", "t_per_signal.csv", "t_full.csv"}),
        ("run-upsamplers", {"factor", "conv_seeds"}, {"t.csv", "t_per_signal.csv"}),
    ], ids=["run-activations", "run-upsamplers"])
    def test_manifest_records_the_run(self, tiny_bench, act_cfg, tmp_path, command, own_keys, written):
        """The manifest holds the shared keys and the command's own, the
        bench.csv it read, the AHR analysis, and the SHA-256 of each file
        written beside it."""
        root, specs = tiny_bench
        options = ("--configs", str(act_cfg)) if command == "run-activations" else ("--seeds", "1")
        out = tmp_path / "run"
        assert run(command, *options, "--bench", str(root), "--threads", "1", "--out", str(out / "t.csv")) == EXIT_OK
        manifest = json.loads((out / "t_manifest.json").read_text(encoding="utf-8"))
        assert set(manifest) == SHARED_MANIFEST_KEYS | own_keys
        assert {p.name for p in out.iterdir()} == written | {"t_manifest.json"}
        assert manifest["outputs"] == {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written}
        assert manifest["bench_csv_sha256"] == hashlib.sha256((root / "bench.csv").read_bytes()).hexdigest()
        assert (manifest["command"], manifest["bench_dir"], manifest["signals"], manifest["seed"], manifest["threads"]) \
            == (command, str(root), len(specs), 0, 1)
        assert manifest["analysis"] == {"window": "kaiser", "beta": 15.707963267948966, "half_width_bins": 6, "zero_pad": 1}


class TestBenchText:
    @settings(max_examples=120, deadline=None)
    @given(command=st.sampled_from(TABLE_COMMANDS), text=bench_csv_texts())
    def test_any_bench_csv_ends_in_a_documented_exit(self, tiny_bench, command, text):
        """Whatever bench.csv holds, both table commands exit 0, 2 or 3 with
        at most one error line and no traceback, and write nothing unless
        they succeed."""
        root, _ = tiny_bench
        assert (root / "bench.csv").read_text(encoding="utf-8").splitlines() == BENCH_TEXT_LINES
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            shutil.copytree(root, "bench")
            with open("bench/bench.csv", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            with open("c.cfg", "w", encoding="utf-8") as fh:
                fh.write("kind = leaky_relu\n")
            options = ("--configs", "c.cfg") if command[0] == "run-activations" else ()
            rc = run(*command, *options, "--bench", "bench", "--threads", "1", "--out", "out/x.csv")
            wrote = os.path.exists("out")
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO)
        assert "Traceback" not in err.getvalue()
        assert sum("error:" in ln for ln in err.getvalue().splitlines()) <= 1
        assert wrote == (rc == EXIT_OK)


class TestConfigText:
    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(("run-activations", "sweep")), text=config_texts())
    @example(command="run-activations", text="kind = leaky_relu\nslope = 1e153\n")
    @example(command="run-activations", text="kind = leaky_relu\nslope = 1e200\n")
    @example(command="sweep", text="kind = elu\nelu_a = 1e308\n")
    @example(command="run-activations", text="kind = adaa_generic\nadaa_base = elu\nelu_a = 1e10\n")
    @example(command="run-activations", text="kind = adaa_generic\nadaa_base = leaky_relu\nslope = 1e9\n")
    @example(command="run-activations", text="kind = adaa_generic\nadaa_base = snakebeta\nalpha = 1e6\n")
    @example(command="sweep", text="kind = adaa_generic\nadaa_base = elu\nelu_a = 1e10\n")
    @example(command="sweep", text="kind = adaa_generic\nadaa_base = leaky_relu\nslope = 1e9\n")
    @example(command="sweep", text="kind = adaa_generic\nadaa_base = snakebeta\nalpha = 1e6\n")
    def test_any_config_text_ends_in_a_documented_exit(self, tiny_bench, command, text):
        """Whatever run-activations --configs or sweep --config reads, the
        command exits 0, 2 or 4 with at most one error line and no traceback."""
        root, _ = tiny_bench
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with open("c.cfg", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            if command == "run-activations":
                rc = run(command, "--configs", "c.cfg", "--bench", str(root), "--threads", "1", "--out", "out/x.csv")
            else:
                rc = run(command, "--config", "c.cfg", "--out", "out")
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
        assert "Traceback" not in err.getvalue()
        assert sum("error:" in ln for ln in err.getvalue().splitlines()) <= 1


    @pytest.mark.parametrize("command", ["run-activations", "sweep"])
    def test_bytes_that_are_not_utf8_are_a_config_error(self, tiny_bench, tmp_path, capsys, command):
        """A config file holding a 0xFF byte ends in one error line that
        names the file, not in a decoder traceback, and nothing is written."""
        root, _ = tiny_bench
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(ACT_CONFIG.encode("utf-8").replace(b"name = A_leaky", b"name = A_\xffleaky"))
        out = tmp_path / "out"
        if command == "run-activations":
            rc = run(command, "--configs", str(cfg), "--bench", str(root), "--threads", "1", "--out", str(out / "x.csv"))
        else:
            rc = run(command, "--config", str(cfg), "--out", str(out))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8 text") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-activations", "sweep"])
    @pytest.mark.parametrize("first_line", ["kind", "comment"])
    def test_byte_order_mark_is_ignored(self, tiny_bench, tmp_path, command, first_line):
        """A config file saved with a UTF-8 byte-order mark, before a kind
        line or before a comment line, reads as the same file without one."""
        root, _ = tiny_bench
        text = ACT_CONFIG if first_line == "comment" else ACT_CONFIG.split("\n", 1)[1]
        cfg = tmp_path / "c.cfg"
        results = []
        for i, bom in enumerate(("", "\ufeff")):
            cfg.write_text(bom + text, encoding="utf-8")
            out = tmp_path / f"out{i}"
            if command == "run-activations":
                rc = run(command, "--configs", str(cfg), "--bench", str(root), "--threads", "1",
                         "--out", str(out / "x.csv"))
            else:
                rc = run(command, "--config", str(cfg), "--out", str(out))
            results.append((rc, {p.name: p.read_bytes() for p in out.glob("*")}))
        assert results[0][0] == EXIT_OK
        assert results[1] == results[0]


class TestSweep:
    def test_custom_config_names_and_numbers_panels(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("kind = leaky_relu\nname = probe\n", encoding="utf-8")
        out = tmp_path / "panels"
        rc = run("sweep", "--config", str(cfg), "--out", str(out))
        assert rc == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["01_probe.csv", "01_probe.pgm"]
        header = (out / "01_probe.pgm").read_bytes().split(b"255\n", 1)[0]
        assert header == b"P5\n687 513\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_panel_is_a_numeric_error(self, tmp_path, capsys):
        """Samples near the float maximum are finite, but their STFT is not;
        the panel used to be written as silence."""
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("kind = elu\nelu_a = 1e308\n", encoding="utf-8")
        out = tmp_path / "panels"
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == EXIT_NUMERIC
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert errors == ["numeric error: non-finite spectrogram magnitude: the spectrum overflowed"]
        assert not out.exists()


SWEEP_PANELS = """\
kind = snakebeta
oversample = 4
name = snake_c4

kind = adaa_snakebeta
oversample = 2
name = adaa_c2
"""


def output_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestResamplingFilterOutputs:
    """The resampling filters' blocked products (np.matmul, an OpenBLAS
    dgemm) leave every written byte as it was."""

    @pytest.mark.parametrize("command", [("run-activations",), ("run-upsamplers", "--factor", "2", "--seeds", "2")],
                             ids=["run-activations", "run-upsamplers"])
    def test_blas_thread_count_does_not_change_outputs(self, tiny_bench, tmp_path, command):
        """OpenBLAS threads dgemm. A command run in a fresh interpreter with
        OPENBLAS_NUM_THREADS=1 and with =2 writes the same files."""
        root, _ = tiny_bench
        src = str(Path(cli.__file__).resolve().parents[1])
        outs = {}
        for blas_threads in ("1", "2"):
            out = tmp_path / blas_threads / "out.csv"
            argv = [*command, "--bench", str(root), "--out", str(out)]
            script = f"import sys\nsys.path.insert(0, {src!r})\nfrom aliasbench.cli import main\nsys.exit(main({argv!r}))"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads}
            subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True)
            outs[blas_threads] = output_files(out.parent)
        assert outs["1"] and outs["1"] == outs["2"]

    def test_blocked_products_write_the_per_phase_convolve_bytes(self, tiny_bench, tmp_path, monkeypatch):
        """run-activations (the built-in configs, c2 and c4 among them) and
        two oversampled sweep panels on a 1 s sweep write the same bytes as
        runs whose resampling filters convolve each tap phase on its own
        (conftest's convolve_interpolate and convolve_decimate)."""
        root, _ = tiny_bench
        cfg = tmp_path / "panels.cfg"
        cfg.write_text(SWEEP_PANELS, encoding="utf-8")
        monkeypatch.setattr(cli, "SWEEP_DURATION_S", 1.0)
        outs = {}
        for path in ("blocked", "convolve"):
            with monkeypatch.context() as mp:
                if path == "convolve":
                    mp.setattr(filters, "interpolate", convolve_interpolate)
                    mp.setattr(filters, "decimate", convolve_decimate)
                act = tmp_path / path / "act" / "act.csv"
                assert run("run-activations", "--bench", str(root), "--out", str(act)) == EXIT_OK
                assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / path / "sweep")) == EXIT_OK
            outs[path] = output_files(act.parent) | output_files(tmp_path / path / "sweep")
        assert len(outs["blocked"]) == 8
        assert outs["blocked"] == outs["convolve"]


class TestGenBench:
    @pytest.mark.parametrize("cpus, threads", [(3, 3), (None, 1)])
    def test_pool_is_the_cpu_count(self, tmp_path, monkeypatch, cpus, threads):
        """gen-bench hands its pool os.cpu_count() workers (1 where that is
        unknown), and maps it the 48 notes in ascending order."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        # A short signal per spec keeps the run quick.
        monkeypatch.setattr(cli, "gen_bandlimited",
                            lambda specs: [AudioBuffer(np.full(64, s.midi_note / 128), 8000) for s in specs])
        pools = []

        def recording_map(task, items, n):
            pools.append((n, list(items)))
            return ordered_map(task, items, n)

        monkeypatch.setattr(cli, "ordered_map", recording_map)
        assert run("gen-bench", "--out", str(tmp_path / "bench")) == EXIT_OK
        assert pools == [(threads, list(range(60, 108)))]
        assert len(list((tmp_path / "bench").glob("*.wav"))) == 144

    def test_first_failing_signal_in_grid_order_ends_the_run(self, tmp_path, capsys, monkeypatch):
        """Every signal's write fails under a regular file; on a 2-thread
        pool the run exits 3 with the error of sine_060.wav, the lowest
        note's first waveform and so the grid's first signal, on one line,
        and writes nothing."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        rc = run("gen-bench", "--out", str(plain / "bench"))
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and "sine_060.wav" in errors[0], errors
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [plain] and plain.read_bytes() == b""

    def test_the_lowest_failing_note_names_the_error(self, tmp_path, capsys, monkeypatch):
        """Each note is one task that writes its waveforms in WAVEFORMS order,
        so the error reported is the first failed write of the lowest note
        that failed: with sine_061 and sawtooth_060 failing, sawtooth_060,
        though sine_061 comes first in bench.csv's order."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "gen_bandlimited",
                            lambda specs: [AudioBuffer(np.zeros(64), 8000) for _ in specs])
        written = cli.wav_write

        def failing_write(buf, path):
            if path.name in ("sine_061.wav", "sawtooth_060.wav"):
                raise PermissionError(13, "Permission denied", str(path))
            written(buf, path)

        monkeypatch.setattr(cli, "wav_write", failing_write)
        assert run("gen-bench", "--out", str(tmp_path / "bench")) == EXIT_IO
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and "sawtooth_060.wav" in errors[0], errors


class TestFilterResponse:
    def test_linear_kernel_nulls_at_nyquist(self, tmp_path):
        out = tmp_path / "lin.csv"
        assert run("filter-response", "--kind", "linear", "--N", "2", "--out", str(out)) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "omega_normalized,magnitude_db,phase_rad,ideal_magnitude_db"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) <= -250.0

    def test_nearest_kernel_matches_dirichlet_level(self, tmp_path):
        """The 3-tap boxcar's response at Nyquist is exactly 1/3 of DC."""
        out = tmp_path / "near.csv"
        assert run("filter-response", "--kind", "nearest", "--N", "1", "--out", str(out)) == EXIT_OK
        last = out.read_text(encoding="utf-8").splitlines()[-1].split(",")
        assert abs(float(last[1]) - (-9.5424)) <= 0.01  # 20 log10(1/3)

    def test_designed_filter_meets_its_stopband(self, tmp_path):
        out = tmp_path / "designed.csv"
        assert run("filter-response", "--kind", "designed", "--N", "2", "--out", str(out)) == EXIT_OK
        for ln in out.read_text(encoding="utf-8").splitlines()[1:]:
            w, mag, _, ideal = ln.split(",")
            if float(w) > 0.525:
                assert float(mag) <= -97.0
            assert float(ideal) == (0.0 if float(w) <= 0.5 else -300.0)

    def test_designed_needs_a_factor(self, tmp_path):
        rc = run("filter-response", "--kind", "designed", "--N", "1", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG

    def test_zero_n_rejected(self, tmp_path):
        rc = run("filter-response", "--kind", "linear", "--N", "0", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("n", ["65", "1000000000000"])
    @pytest.mark.parametrize("kind", ["linear", "designed"])
    def test_n_beyond_the_largest_factor_rejected(self, tmp_path, capsys, kind, n):
        """A kernel for an N far past any factor the suite drives would not
        fit in memory; the parser rejects it before any is built."""
        out = tmp_path / "x.csv"
        rc = run("filter-response", "--kind", kind, "--N", n, "--out", str(out))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if "error:" in ln] == [
            f"aliasbench filter-response: error: argument --N: must be at most 64, got {n}"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    def test_largest_n_designs_a_filter(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("filter-response", "--kind", "designed", "--N", "64", "--out", str(out)) == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 4096

    @pytest.mark.parametrize("kind, n", [
        (kind, n) for kind in ("designed", "linear", "nearest") for n in ("1", "2", "64")
        if (kind, n) != ("designed", "1")
    ])
    def test_phase_is_zero_or_pi(self, tmp_path, kind, n):
        """Every kernel is symmetric about its centre tap, so the response is
        real and its phase 0 or pi, never the sign of a rounding residue."""
        out = tmp_path / "x.csv"
        assert run("filter-response", "--kind", kind, "--N", n, "--out", str(out)) == EXIT_OK
        phases = {ln.split(",")[2] for ln in out.read_text(encoding="utf-8").splitlines()[1:]}
        assert phases <= {"0.000000", "3.141593"}, phases

    def test_nearest_phase_flips_past_the_zero(self, tmp_path):
        """The 3-tap box's amplitude is (1 + 2 cos w) / 3: negative above
        w = 2 pi / 3, where the phase is pi, and positive below it."""
        out = tmp_path / "near.csv"
        assert run("filter-response", "--kind", "nearest", "--N", "1", "--out", str(out)) == EXIT_OK
        for ln in out.read_text(encoding="utf-8").splitlines()[1:]:
            w, _, phase, _ = ln.split(",")
            if abs(float(w) - 2.0 / 3.0) > 1e-3:
                assert phase == ("3.141593" if float(w) > 2.0 / 3.0 else "0.000000"), w


class TestArgumentHandling:
    @settings(max_examples=100, deadline=None)
    @given(argv=fuzz_argvs())
    @example(argv=["run-activations", "--bench", "{bench}", "--out", "act.csv", "--out", ""])
    @example(argv=["gen-bench", "--out", ""])
    @example(argv=["sweep", "--out", ""])
    def test_any_argv_ends_in_a_documented_exit(self, tiny_bench, argv):
        """Whatever the options and values, a command exits 0, 2, 3 or 4 with
        at most one error line and no traceback. Each run starts in an empty
        directory, so relative outputs land there."""
        root, _ = tiny_bench
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run(*(str(root) if a == "{bench}" else a for a in argv))
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)
        assert "Traceback" not in err.getvalue()
        assert sum("error:" in ln for ln in err.getvalue().splitlines()) <= 1

    def test_version_flag(self, capsys):
        assert run("--version") == EXIT_OK
        assert capsys.readouterr().out.startswith("aliasbench ")

    def test_no_arguments_is_usage_error(self):
        assert run() == EXIT_CONFIG

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == EXIT_CONFIG

    def test_missing_required_option_is_usage_error(self):
        assert run("gen-bench") == EXIT_CONFIG

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tiny_bench, tmp_path, capsys, threads):
        root, _ = tiny_bench
        rc = run("run-activations", "--bench", str(root), "--threads", threads,
                 "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: argument --threads: must be at least 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ("gen-bench", "--out", "{out}"),
        ("sweep", "--out", "{out}"),
        ("filter-response", "--kind", "linear", "--out", "{out}/x.csv"),
    ])
    def test_threads_only_on_the_table_commands(self, tmp_path, capsys, command):
        """Only run-activations and run-upsamplers evaluate signals on worker
        threads; elsewhere --threads is an unknown option."""
        out = tmp_path / "out"
        rc = run(*(a.format(out=out) for a in command), "--threads", "2")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if "error:" in ln] == [
            "aliasbench: error: unrecognized arguments: --threads 2"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("gen-bench",),
        ("sweep",),
        ("run-activations", "--bench", "{bench}"),
        ("run-upsamplers", "--bench", "{bench}", "--seeds", "1"),
        ("filter-response", "--kind", "linear"),
    ], ids=lambda c: c[0])
    def test_empty_out_is_an_io_error(self, tiny_bench, tmp_path, capsys, command):
        """An empty --out names no file or directory: every command exits 3
        with one error line and writes nothing. gen-bench and sweep used to
        read it as the current directory and write there."""
        root, _ = tiny_bench
        with contextlib.chdir(tmp_path):
            rc = run(*(a.format(bench=root) for a in command), "--out", "")
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_allocator_policy_is_set_after_parsing(self, tmp_path, monkeypatch, capsys):
        """A command sets the policy once; --version and a usage error exit
        inside parse_args and never reach it."""
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
        assert run("--version") == EXIT_OK
        assert run("gen-bench") == EXIT_CONFIG
        assert calls == []
        assert run("filter-response", "--kind", "linear", "--out", str(tmp_path / "r.csv")) == EXIT_OK
        assert calls == [1]

    @pytest.mark.parametrize("command", [
        ("gen-bench", "--out", "{out}"),
        ("run-activations", "--bench", "{bench}", "--out", "{out}/x.csv"),
        ("run-upsamplers", "--bench", "{bench}", "--seeds", "1", "--out", "{out}/x.csv"),
        ("sweep", "--out", "{out}"),
        ("filter-response", "--kind", "linear", "--out", "{out}/x.csv"),
    ])
    def test_negative_seed_rejected(self, tiny_bench, tmp_path, capsys, command):
        """filter-response draws nothing, so it takes no --seed at all."""
        root, _ = tiny_bench
        out = tmp_path / "out"
        rc = run(*(a.format(bench=root, out=out) for a in command), "--seed", "-1")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        want = (
            "aliasbench: error: unrecognized arguments: --seed -1"
            if command[0] == "filter-response"
            else f"aliasbench {command[0]}: error: argument --seed: must be at least 0, got -1"
        )
        assert [ln for ln in err.splitlines() if "error:" in ln] == [want]
        assert not out.exists()

    @pytest.mark.parametrize("count", [str(MAX_CONV_SEEDS + 1), "1000000000000", "100000000000000000000"])
    def test_seed_count_above_the_cap_rejected(self, tiny_bench, tmp_path, capsys, count):
        """Each seed is one more ConvTranspose pass over every signal, so a
        count past MAX_CONV_SEEDS exits 2 before any signal is built, up to
        counts SeedSequence.spawn could not take."""
        root, _ = tiny_bench
        rc = run("run-upsamplers", "--bench", str(root), "--seeds", count, "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if "error:" in ln] == [
            f"aliasbench run-upsamplers: error: argument --seeds: must be at most {MAX_CONV_SEEDS}, got {count}"
        ]
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()
