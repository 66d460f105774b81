"""Commands start on numpy alone. scipy is loaded only where it is used:
scipy.io by the commands that read or write WAVs, scipy.special when a
resampling filter is designed, scipy.signal by filter-response. These tests
run each command in a fresh interpreter and read its sys.modules."""

import json
import subprocess
import sys
from pathlib import Path

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
