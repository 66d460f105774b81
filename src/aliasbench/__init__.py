"""aliasbench: anti-aliased activations and upsamplers for audio, with a
test-signal benchmark that quantifies aliasing via the aliasing-to-harmonic
ratio (AHR).

The package root exports only the names the README's library example uses;
everything else is imported from its submodule. They are resolved on first
use, so importing the package loads no numpy: the command line sets its
process policy first (aliasbench.cli)."""

from importlib import import_module

__version__ = "0.1.0"

#: Each exported name and the submodule that defines it.
_EXPORTS = {
    "ActivationSpec": "activations",
    "apply_activation": "activations",
    "activation_context": "metrics",
    "measure_ahr": "metrics",
    "TestSignalSpec": "signals",
    "gen_bandlimited": "signals",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
