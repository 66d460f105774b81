"""The benchmark's per-layer trace wraps named aliasbench functions, and its
workloads run fixed command lines. A refactor that renames one of those
functions, moves the spec argument its span name is read from, or drops an
option the benchmark passes would break the benchmark; these tests catch it."""

import importlib
import inspect

import checks
import pytest
import run
import tracer

from aliasbench.cli import build_parser, main
from aliasbench.configio import config_hash
from aliasbench.upsamplers import UpsamplerSpec

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
