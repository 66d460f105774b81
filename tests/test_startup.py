"""Commands start on numpy alone. scipy is loaded only where it is used:
scipy.io by the commands that read or write WAVs, scipy.special when a
resampling filter is designed, scipy.signal by filter-response. These tests
run each command in a fresh interpreter and read its sys.modules.

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


def test_run_upsamplers_loads_neither_scipy_signal_nor_scipy_io(tiny_bench, tmp_path):
    root, _ = tiny_bench
    loaded = scipy_modules_after(
        cli_run("run-upsamplers", "--bench", str(root), "--seeds", "1", "--out", str(tmp_path / "u.csv"))
    )
    assert "scipy.signal" not in loaded and "scipy.io" not in loaded


def test_run_activations_does_not_load_scipy_signal(tiny_bench, tmp_path):
    root, _ = tiny_bench
    loaded = scipy_modules_after(cli_run("run-activations", "--bench", str(root), "--out", str(tmp_path / "a.csv")))
    assert "scipy.signal" not in loaded


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
