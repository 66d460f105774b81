"""Traced run of the aliasbench CLI, and the per-layer figures of its trace.

    python3 perfbench/tracer.py TRACE_FILE CLI_ARG...

runs `aliasbench CLI_ARG...` in this process after wrapping the public
functions of each module in LAYERS. Every call becomes a span (name, thread,
start, end, parent span, counts). Spans stay in memory and are written to
TRACE_FILE as JSON when the command ends. `layer_metrics` turns one or more
trace files into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Module -> public functions wrapped. The three configio writers share one layer.
LAYERS = {
    "signals": ("gen_bandlimited", "gen_sweep"),
    "wavio": ("wav_write", "wav_read"),
    "activations": ("apply_activation",),
    "filters": ("upsample_filtered", "downsample_filtered"),
    "upsamplers": ("apply_upsampler", "image_frequencies", "tonal_probe"),
    "metrics": ("estimate_spectrum", "measure_ahr", "spectrogram_export"),
    "configio": ("write_csv", "write_manifest", "file_sha256"),
}


def _span_name(module: str, fn: str, args: tuple, kwargs: dict) -> str:
    if fn in ("apply_activation", "apply_upsampler"):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        return f"{module}.{fn}.{spec.name if fn == 'apply_activation' else spec.kind}"
    if module == "configio":
        return "configio.write"
    return f"{module}.{fn}"


def _counts(fn: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Counts recorded at the span: work done, and what the band check needs."""
    if fn == "estimate_spectrum":
        return {"fft_points": result.fft_size}
    if fn == "image_frequencies":
        return {"images": len(result)}
    if fn == "measure_ahr":
        output, f0, context = args[:3]
        input_rate = getattr(context, "input_rate", None)
        return {
            "harmonic": result.harmonic_bands,
            "alias_kept": result.alias_bands,
            "f0": f0,
            "nyquist": (input_rate or output.sample_rate) / 2.0,
            "rate": output.sample_rate,
            "n": len(output),
            "edge_trim": kwargs.get("edge_trim", args[3] if len(args) > 3 else 8192),
            "k_cap": context.k_cap,
        }
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, module: str, fn_name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append(
                (span_id, parent, _span_name(module, fn_name, args, kwargs), threading.get_ident(), t0, t1,
                 _counts(fn_name, args, kwargs, result))
            )
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each wrapped function in the aliasbench modules."""
        import importlib

        importlib.import_module("aliasbench.cli")
        modules = [m for name, m in sys.modules.items() if name == "aliasbench" or name.startswith("aliasbench.")]
        for short, fns in LAYERS.items():
            home = sys.modules[f"aliasbench.{short}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(short, fn_name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "thread", "t0", "t1", "counts")
        path.write_text(json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans]}))


def layer_metrics(trace_files: list[Path], run_s: float) -> tuple[dict[str, float], list[dict]]:
    """Self time per span name, counts, and bench.self_s for traced commands
    whose wall times add up to run_s.

    A span's self time is its duration minus its direct children's. bench.self_s
    is run_s minus the wall time covered by any span on any thread, so on one
    thread the self times plus bench.self_s add up to run_s exactly. Also
    returns the measure_ahr count records for the band check.
    """
    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    ahr_records = []
    covered = 0.0
    for path in trace_files:
        spans = json.loads(path.read_text())["spans"]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["t1"] - s["t0"]
        for s in spans:
            busy[s["name"]] += s["t1"] - s["t0"] - child[s["id"]]
            c = s["counts"] or {}
            if s["name"] == "metrics.estimate_spectrum":
                counts["metrics.estimate_spectrum.calls"] += 1
                counts["metrics.fft_points"] += c["fft_points"]
            elif s["name"] == "metrics.measure_ahr":
                counts["metrics.bands.harmonic"] += c["harmonic"]
                counts["metrics.bands.alias_kept"] += c["alias_kept"]
                ahr_records.append(c)
            elif s["name"] == "upsamplers.image_frequencies":
                counts["upsamplers.image_frequencies.images"] += c["images"]
            elif s["name"] == "signals.gen_bandlimited":
                counts["signals.gen_bandlimited.calls"] += 1
        top = sorted((s["t0"], s["t1"]) for s in spans if s["parent"] is None)
        end = -float("inf")
        for t0, t1 in top:
            covered += max(0.0, t1 - max(t0, end))
            end = max(end, t1)
    metrics = {f"{name}.busy_s": t for name, t in busy.items()}
    if "metrics.measure_ahr.busy_s" in metrics:
        metrics["metrics.measure_ahr.self_s"] = metrics.pop("metrics.measure_ahr.busy_s")
    metrics.update(counts)
    metrics["bench.self_s"] = run_s - covered
    return metrics, ahr_records


def main(argv: list[str]) -> int:
    trace_file, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from aliasbench.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.write(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
