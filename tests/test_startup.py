"""Commands start and run on numpy alone: filter-response is the one command
that loads scipy (scipy.signal, for freqz). WAV I/O and the resampling
filter's Bessel window are written on numpy. These tests run each command in
a fresh interpreter and read its sys.modules.

On glibc, main() also sets an allocator policy that keeps freed blocks in the
heap, so repeated oversampled activations stop faulting fresh pages in; the
last tests count those faults in a fresh interpreter, with and without the
policy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aliasbench

SRC = str(Path(aliasbench.__file__).resolve().parents[1])


def scipy_modules_after(code: str) -> set[str]:
    """The scipy modules loaded after running `code` in a new interpreter."""
    script = (
        f"import sys, json\nsys.path.insert(0, {SRC!r})\n{code}\n"
        "print(json.dumps([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]))"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def cli_run(*argv: str) -> str:
    return f"from aliasbench.cli import main\nassert main({list(argv)!r}) == 0"


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after("import aliasbench.cli") == set()


@pytest.mark.parametrize("command", [
    ("gen-bench", "--out", "{tmp}/bench"),
    ("run-activations", "--bench", "{bench}", "--out", "{tmp}/a.csv"),
    ("run-upsamplers", "--bench", "{bench}", "--seeds", "1", "--out", "{tmp}/u2.csv"),
    ("run-upsamplers", "--bench", "{bench}", "--seeds", "1", "--factor", "3", "--out", "{tmp}/u3.csv"),
    ("sweep", "--out", "{tmp}/sweep"),
], ids=["gen-bench", "run-activations", "run-upsamplers-L2", "run-upsamplers-L3", "sweep"])
def test_command_loads_no_scipy(tiny_bench, tmp_path, command):
    """Every command but filter-response reads, writes and resamples on
    numpy alone; run-activations' built-in set and sweep's panels design the
    2x and 4x resampling filters, and run-upsamplers the one of its factor."""
    root, _ = tiny_bench
    argv = [a.format(tmp=tmp_path, bench=root) for a in command]
    assert scipy_modules_after(cli_run(*argv)) == set()


def test_filter_response_loads_scipy_signal(tmp_path):
    """The control: the probe sees scipy where a command does load it."""
    argv = ("filter-response", "--kind", "designed", "--out", str(tmp_path / "r.csv"))
    assert "scipy.signal" in scipy_modules_after(cli_run(*argv))


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


glibc_only = pytest.mark.skipif(not on_glibc(), reason="the allocator policy is set on glibc only")


#: Faults allowed across 8 calls once the heap is warm. Under glibc's defaults
#: each 2x-oversampled ADAA SnakeBeta call of this buffer faults about 7,400
#: pages in again; with the policy, 8 calls fault about 1.
FAULT_BUDGET = 2048


def activation_faults(policy: bool) -> int:
    """Minor page faults of 8 AdaaSnakeBeta c2 calls on a 220,500-sample buffer, after 4 warm-up ones."""
    script = f"""
import resource, sys
sys.path.insert(0, {SRC!r})
import numpy as np
from aliasbench import cli
from aliasbench.activations import ActivationSpec, apply_activation
from aliasbench.audio import AudioBuffer
if {policy}:
    cli._keep_freed_memory()
x = AudioBuffer(np.sin(0.1 * np.arange(220500)), 44100)
spec = ActivationSpec("adaa_snakebeta", oversample=2)
for _ in range(4):
    apply_activation(x, spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(8):
    apply_activation(x, spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return int(done.stdout.splitlines()[-1])


@glibc_only
def test_allocator_policy_stops_oversampled_activations_from_faulting():
    assert activation_faults(policy=True) < FAULT_BUDGET


@glibc_only
def test_oversampled_activations_fault_without_the_allocator_policy():
    """The control: glibc's defaults exceed the budget, so the test above bites."""
    assert activation_faults(policy=False) > FAULT_BUDGET
