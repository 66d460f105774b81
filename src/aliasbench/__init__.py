"""aliasbench: anti-aliased activations and upsamplers for audio, with a
test-signal benchmark that quantifies aliasing via the aliasing-to-harmonic
ratio (AHR).

The package root exports only the names the README's library example uses;
everything else is imported from its submodule."""

__version__ = "0.1.0"

from .activations import ActivationSpec, apply_activation
from .metrics import ActivationContext, measure_ahr
from .signals import TestSignalSpec, gen_bandlimited

__all__ = [
    "ActivationContext",
    "ActivationSpec",
    "TestSignalSpec",
    "apply_activation",
    "gen_bandlimited",
    "measure_ahr",
]
