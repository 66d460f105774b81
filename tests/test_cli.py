"""End-to-end CLI tests: artifacts, formats, determinism, and exit codes.

All invocations go through main(argv) in-process; the tiny session benchmark
keeps the heavy subcommands fast while staying spectrally honest.
"""

import shutil

import pytest

from aliasbench.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

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


@pytest.fixture()
def act_cfg(tmp_path):
    p = tmp_path / "acts.cfg"
    p.write_text(ACT_CONFIG, encoding="utf-8")
    return p


class TestRunActivations:
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

    def test_corrupt_wav_is_an_io_error(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        broken = tmp_path / "broken_bench"
        shutil.copytree(root, broken)
        victim = next(broken.glob("*.wav"))
        victim.write_bytes(victim.read_bytes()[:40])
        rc = run("run-activations", "--bench", str(broken), "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_IO

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

    @pytest.mark.parametrize("name", ["Snake,Beta", 'Snake"Beta', "a/b", "a\\b"])
    def test_name_with_csv_delimiter_is_a_config_error(self, tiny_bench, tmp_path, capsys, name):
        """Names go unquoted into the CSVs and into sweep's panel file names,
        so both commands reject a delimiter or a path separator up front."""
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

    def test_factor_below_two_rejected(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        rc = run("run-upsamplers", "--bench", str(root), "--factor", "1",
                 "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG

    def test_zero_seeds_rejected(self, tiny_bench, tmp_path):
        root, _ = tiny_bench
        rc = run("run-upsamplers", "--bench", str(root), "--seeds", "0",
                 "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG


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
    @pytest.mark.parametrize("command", [("run-activations",), ("run-upsamplers", "--seeds", "1")])
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

    # sine note 60 is 261.625565 Hz; a note index of 20000 has no float frequency
    @pytest.mark.parametrize("index,f0", [("60", "300.000000"), ("60", "261.625566"), ("20000", "261.625565")])
    @pytest.mark.parametrize("command", [("run-activations",), ("run-upsamplers", "--seeds", "1")])
    def test_f0_that_is_not_the_notes_frequency_is_a_config_error(self, tiny_bench, tmp_path, capsys, command, index, f0):
        """run-activations measures at the f0_hz column and run-upsamplers at
        the note's frequency, so a row where the two disagree beyond the
        column's rounding is rejected."""
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

    @pytest.mark.parametrize("command", [("run-activations",), ("run-upsamplers", "--seeds", "1")])
    def test_missing_waveforms_are_a_config_error(self, sine_only_bench, tmp_path, capsys, command):
        rc = run(*command, "--bench", str(sine_only_bench), "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sawtooth, triangle" in err


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


class TestArgumentHandling:
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
