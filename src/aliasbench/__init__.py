"""aliasbench: anti-aliased activations and upsamplers for audio, with a
test-signal benchmark that quantifies aliasing via the aliasing-to-harmonic
ratio (AHR).

The package root exports only the names the README's library example uses;
everything else is imported from its submodule."""

__version__ = "0.1.0"

from .activations import ActivationSpec, apply_activation
from .metrics import activation_context, measure_ahr
from .signals import TestSignalSpec, gen_bandlimited

__all__ = [
    "ActivationSpec",
    "TestSignalSpec",
    "activation_context",
    "apply_activation",
    "gen_bandlimited",
    "measure_ahr",
]
