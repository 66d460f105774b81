"""The benchmark's per-layer trace wraps named aliasbench functions. A refactor
that renames one, or moves the spec argument its span name is read from,
would silently empty that layer of the trace; these tests catch it."""

import importlib
import inspect

import pytest
import tracer

WRAPPED = [(module, fn) for module, fns in tracer.LAYERS.items() for fn in fns]


@pytest.mark.parametrize("module,fn", WRAPPED, ids=[f"{m}.{f}" for m, f in WRAPPED])
def test_every_traced_function_exists(module, fn):
    assert callable(getattr(importlib.import_module(f"aliasbench.{module}"), fn, None))


@pytest.mark.parametrize("module,fn", [("activations", "apply_activation"), ("upsamplers", "apply_upsampler")])
def test_spec_is_the_second_positional_argument(module, fn):
    params = list(inspect.signature(getattr(importlib.import_module(f"aliasbench.{module}"), fn)).parameters.values())
    assert len(params) >= 2 and params[1].name == "spec"
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
