"""The README's library example runs as documented: an API rename that
leaves it broken fails here."""

import re
import subprocess
import sys
from pathlib import Path

import aliasbench

SRC = str(Path(aliasbench.__file__).resolve().parents[1])
README = Path(SRC).parent / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_last_line():
    """Run in a fresh interpreter, the example prints what its closing
    comment line says."""
    code = library_example()
    expected = code.rstrip("\n").rsplit("\n", 1)[1]
    assert expected.startswith("# ")
    done = subprocess.run([sys.executable, "-c", f"import sys\nsys.path.insert(0, {SRC!r})\n{code}"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected[2:] + "\n"
