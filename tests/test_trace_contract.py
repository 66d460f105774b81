"""The benchmark's per-layer trace wraps named aliasbench functions, and its
workloads run fixed command lines. A refactor that renames one of those
functions, moves the spec argument its span name is read from, or drops an
option the benchmark passes would break the benchmark; these tests catch it."""

import importlib
import inspect
import json
import subprocess
import sys

import checks
import pytest
import run
import tracer

from aliasbench.bench import load_bench_csv
from aliasbench.cli import build_parser, main
from aliasbench.configio import config_hash
from aliasbench.signals import TestSignalSpec
from aliasbench.upsamplers import UpsamplerSpec

#: Every per-layer figure the benchmark declares.
DECLARED_LAYERS = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}

WRAPPED = [(module, fn) for module, fns in tracer.LAYERS.items() for fn in fns]


@pytest.mark.parametrize("module,fn", WRAPPED, ids=[f"{m}.{f}" for m, f in WRAPPED])
def test_every_traced_function_exists(module, fn):
    assert callable(getattr(importlib.import_module(f"aliasbench.{module}"), fn, None))


@pytest.mark.parametrize("module,fn", [("activations", "apply_activation"), ("upsamplers", "apply_upsampler")])
def test_spec_is_the_second_positional_argument(module, fn):
    params = list(inspect.signature(getattr(importlib.import_module(f"aliasbench.{module}"), fn)).parameters.values())
    assert len(params) >= 2 and params[1].name == "spec"
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_benchmark_commands_parse(workload):
    """Every command line the benchmark runs is one the CLI accepts: an option
    dropped from a command it passes would fail each of its rounds."""
    parser = build_parser()
    for argv in run.WORKLOADS[workload](seed=1).commands():
        parser.parse_args(argv)


@pytest.mark.parametrize("workload", ["activations", "upsamplers"])
def test_benchmark_bench_csv_loads(workload, tmp_path):
    """The bench.csv the benchmark writes for a table command passes every
    rule the command reads it by, one row per signal in order: a rule it
    failed would fail every round."""
    signals = run.WORKLOADS[workload](seed=1).signals
    run.write_bench(tmp_path / "bench", signals, with_wavs=False)
    assert load_bench_csv(tmp_path / "bench" / "bench.csv") == [TestSignalSpec(w, n) for w, n in signals]


def test_upsampler_layers_are_the_table_specs(tiny_bench, tmp_path):
    """The benchmark checks run-upsamplers against specs it builds itself
    (checks.upsampler_layers). Their config hashes must be the ones the
    command writes, or a spec field change would fail every benchmark round."""
    root, _ = tiny_bench
    out = tmp_path / "up.csv"
    assert main(["run-upsamplers", "--bench", str(root), "--seeds", "2", "--threads", "1", "--out", str(out)]) == 0
    rows = (tmp_path / "up_per_signal.csv").read_text(encoding="utf-8").splitlines()[1:]
    written = {row.split(",")[1] for row in rows}
    modelled = {config_hash(UpsamplerSpec(**kw, name=name)) for name, kw in checks.upsampler_layers(2, 2, 0)}
    assert modelled == written


@pytest.mark.parametrize("command,configs", [(["run-activations"], 7), (["run-upsamplers", "--seeds", "2"], 6),
                                             (["run-upsamplers", "--seeds", "10"], 14)],
                         ids=["run-activations", "run-upsamplers --seeds 2", "run-upsamplers --seeds 10"])
def test_traced_table_commands_keep_their_counts(tiny_bench, tmp_path, command, configs):
    """A traced round reads measure_ahr's band counts, the context's k_cap
    and input_rate and the spectrum's fft_size, and checks the harmonic
    bands against their closed form. Nothing else reads some of these, so
    only a traced run shows that one went."""
    root, specs = tiny_bench
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, tracer.__file__, str(trace), *command, "--bench", str(root), "--threads", "1",
         "--out", str(tmp_path / "out.csv")],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    layers, records = tracer.layer_metrics([trace], run_s=0.0)
    assert len(records) == configs * len(specs)
    assert run.band_problems(records) == []
    assert layers["metrics.bands.harmonic"] == sum(r["harmonic"] for r in records) > 0
    assert set(layers) <= DECLARED_LAYERS


def test_traced_gen_bench_synthesizes_through_the_traced_name(tmp_path):
    """The export workload's synthesis figures are read from the spans of
    signals.gen_bandlimited: gen-bench must synthesize through that name,
    one call per note, or they would read 0 and its synthesis would land in
    bench.self_s."""
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, tracer.__file__, str(trace), "gen-bench", "--out", str(tmp_path / "bench")],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    layers, _ = tracer.layer_metrics([trace], run_s=0.0)
    assert layers["signals.gen_bandlimited.calls"] == 48
    assert layers["signals.gen_bandlimited.busy_s"] > 0.0
    assert set(layers) <= DECLARED_LAYERS


@pytest.mark.parametrize("seeds", [2, 10])
def test_per_signal_rows_follow_the_table_specs(tiny_bench, tmp_path, seeds):
    """up_per_signal.csv holds one block of rows per layer, one row per
    signal, in checks.upsampler_layers order, at --seeds 2 (every layer
    formed) and 10 (ConvTranspose and NearestInterp superposed)."""
    root, specs = tiny_bench
    out = tmp_path / "up.csv"
    argv = ["run-upsamplers", "--bench", str(root), "--seeds", str(seeds), "--threads", "1", "--out", str(out)]
    assert main(argv) == 0
    rows = (tmp_path / "up_per_signal.csv").read_text(encoding="utf-8").splitlines()[1:]
    written = [row.split(",")[1] for row in rows]
    modelled = [config_hash(UpsamplerSpec(**kw, name=name)) for name, kw in checks.upsampler_layers(2, seeds, 0)]
    assert written == [h for h in modelled for _ in specs]
