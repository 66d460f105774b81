"""Plain-text config blocks, content hashing, manifests, atomic file writes.

Config files are key = value lines; blank lines separate blocks; '#' starts
a comment line. Each key is a field of the spec dataclass and its value is
cast by that field's type; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

if TYPE_CHECKING:
    from .activations import ActivationSpec
    from .upsamplers import UpsamplerSpec

Spec = TypeVar("Spec", "ActivationSpec", "UpsamplerSpec")


class ConfigError(ValueError):
    """Malformed, empty, or inconsistent configuration input."""


def read_text(path: str | Path, encoding: str) -> str:
    """The text of an input file in encoding, utf-8 or utf-8-sig; bytes that
    do not decode are a ConfigError naming the file."""
    try:
        return Path(path).read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def parse_blocks(text: str) -> list[dict[str, str]]:
    """Split key=value text into a list of per-block dicts."""
    blocks: list[dict[str, str]] = []
    current: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if current:
                blocks.append(current)
                current = {}
            continue
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in block")
        current[key] = value
    if current:
        blocks.append(current)
    return blocks


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(value)
    return value.lower() == "true"


def _parse_finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(value)
    return x


#: Spec field annotation -> cast of its text value. The spec modules use
#: postponed annotations, so dataclasses.fields() reports each type by name.
_CASTS = {"str": str, "int": int, "float": _parse_finite, "bool": _parse_bool}


def spec_from_block(cls: type[Spec], block: dict[str, str]) -> Spec:
    """Build a spec dataclass from one parsed block, casting each value by
    the type of the field it names."""
    casts = {f.name: _CASTS[f.type] for f in fields(cls)}
    kwargs: dict = {}
    for key, value in block.items():
        if key not in casts:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = casts[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    # Names go unquoted into the CSVs, and sweep panel names into file paths.
    name = kwargs.get("name", "")
    if set(',"/\\') & set(name) or not name.isprintable():
        raise ConfigError(f"bad value for 'name': {name!r} (a name must be printable, without , \" / or \\)")
    if "kind" not in kwargs:
        family = cls.__name__.removesuffix("Spec").lower()
        raise ConfigError(f"{family} block is missing 'kind'")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_configs(cls: type[Spec], path: str | Path) -> list[Spec]:
    """Every block of a config file as a spec of type cls."""
    blocks = parse_blocks(read_text(path, "utf-8-sig"))
    if not blocks:
        raise ConfigError(f"{path}: no config blocks found")
    return [spec_from_block(cls, b) for b in blocks]


def serialize_spec(spec: ActivationSpec | UpsamplerSpec) -> str:
    """Canonical key = value block (field order fixed by the dataclass)."""
    return "\n".join(f"{f.name} = {getattr(spec, f.name)}" for f in fields(spec)) + "\n"


def config_hash(spec: ActivationSpec | UpsamplerSpec) -> str:
    """Short stable content hash of a config block."""
    return hashlib.sha256(serialize_spec(spec).encode()).hexdigest()[:12]


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    """Write <name>.tmp, then rename it over path, so a partial file is never
    observable under the final name. Missing parent directories are created;
    the temp file is removed on failure."""
    path = Path(path)
    if not path.name:  # "", "." or "/": a directory, never a file
        raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_bytes(blob)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: list[str], rows: list[list[str]]) -> None:
    """UTF-8, LF-terminated CSV with a mandatory header row."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_manifest(path: str | Path, payload: dict) -> None:
    """Deterministic JSON manifest: sorted keys, no timestamps."""
    atomic_write_bytes(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))
