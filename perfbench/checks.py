"""Checks of the program's outputs against the references in oracles.py.

Each check reads the files a command wrote and returns a Verdict: how many
operations it checked, how many failed, and every problem found. A problem
makes the run incorrect. A failed operation does not: it is kept only for
the known fault that `metrics.measure_ahr` counts Hann sidelobe leakage from
a nearby harmonic as aliasing, which can only raise a measured AHR above the
exact one.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import oracles as O

#: The built-in activation configs; the first three are memoryless at c = 1.
ACTIVATION_CONFIGS = (
    "LeakyReLU", "ELU", "SnakeBeta", "AdaaSnakeBeta", "SnakeBeta_c2", "SnakeBeta_c4", "AdaaSnakeBeta_c1",
)
#: Column orderings that hold on sawtooth and triangle: first below second.
ACTIVATION_ORDERINGS = (
    ("SnakeBeta_c2", "SnakeBeta"),
    ("AdaaSnakeBeta_c1", "SnakeBeta"),
    ("AdaaSnakeBeta", "AdaaSnakeBeta_c1"),
)
#: |measured - exact| allowed for the memoryless activations and the upsamplers.
ACTIVATION_TOL_DB = 0.5
UPSAMPLER_TOL_DB = 0.01

SWEEP_PANELS = (
    "01_no_activation", "02_snakebeta_c1", "03_snakebeta_c2",
    "04_snakebeta_c4", "05_adaa_snakebeta_c1", "06_adaa_snakebeta_c2",
)
SWEEP = dict(f_start=20.0, f_end=20000.0, duration_s=4.0, rate=44100, frame=1024, hop=256)


class Verdict:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def problem(self, msg: str) -> None:
        self.problems.append(msg)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_manifest(v: Verdict, manifest: Path, bench_dir: Path) -> None:
    m = json.loads(manifest.read_text())
    for name, digest in m["outputs"].items():
        if sha256(manifest.parent / name) != digest:
            v.problem(f"{manifest.name}: hash of {name} disagrees with the file")
    if m["bench_csv_sha256"] != sha256(bench_dir / "bench.csv"):
        v.problem(f"{manifest.name}: bench_csv_sha256 disagrees with bench.csv")


def _per_signal(v: Verdict, path: Path, signals: list[tuple[str, int]]) -> list[tuple[str, str, str, int, float]]:
    """Rows as (module, config_hash, waveform, note, ahr); checks each f0."""
    rows = []
    for r in read_rows(path):
        note = O.freq_note(float(r["f0_hz"]))
        if r["f0_hz"] != f"{O.note_freq(note):.6f}":
            v.problem(f"{path.name}: f0 {r['f0_hz']} is not an equal-tempered note")
        rows.append((r["module_name"], r["config_hash"], r["waveform"], note, float(r["ahr_db"])))
    groups = defaultdict(list)
    for module, chash, w, note, _ in rows:
        groups[(module, chash)].append((w, note))
    for key, sigs in groups.items():
        if sorted(sigs) != sorted(signals):
            v.problem(f"{path.name}: {key[0]} was not run on exactly the bench signals")
    return rows


def _type_means(rows) -> dict:
    """Module (the rows' first field) -> waveform -> mean AHR, plus 'average'
    over all its signals."""
    acc: dict = defaultdict(lambda: defaultdict(list))
    for module, _, w, _, ahr in rows:
        acc[module][w].append(ahr)
        acc[module]["average"].append(ahr)
    return {m: {k: float(np.mean(x)) for k, x in d.items()} for m, d in acc.items()}


def check_activations(out: Path, bench_dir: Path, signals: list[tuple[str, int]], scales: dict) -> Verdict:
    """run-activations outputs: exact line powers for the memoryless configs,
    column orderings for the rest, and consistency of every written table."""
    v = Verdict()
    rows = _per_signal(v, out.with_name(out.stem + "_per_signal.csv"), signals)
    v.attempted = len(rows)
    modules = {r[0] for r in rows}
    if modules != set(ACTIVATION_CONFIGS):
        v.problem(f"activation modules {sorted(modules)} are not the built-in set")
    for module, _, w, note, ahr in rows:
        fn = O.MEMORYLESS.get(module)
        if fn is None:
            continue
        exact = O.activation_ahr(fn, w, note, scales[(w, note)])
        within = abs(ahr - exact) <= ACTIVATION_TOL_DB or (exact <= O.FLOOR_DB and ahr <= O.FLOOR_DB + ACTIVATION_TOL_DB)
        if within:
            continue
        msg = f"{module} {w} {note}: measured {ahr:.2f} dB, exact {exact:.2f} dB"
        if ahr > exact:
            v.failed += 1
            v.failures.append(msg)
        else:
            v.problem(msg + " (below the exact value)")
    means = _type_means(rows)
    for lower, upper in ACTIVATION_ORDERINGS:
        for w in ("sawtooth", "triangle"):
            if lower in means and upper in means and not means[lower][w] < means[upper][w]:
                v.problem(f"{w}: {lower} {means[lower][w]:.2f} dB is not below {upper} {means[upper][w]:.2f} dB")
    for path, tol in ((out.with_name(out.stem + "_full.csv"), 2e-6), (out, 0.0051)):
        for r in read_rows(path):
            got = means.get(r["module"])
            if got is None:
                v.problem(f"{path.name}: unknown module {r['module']}")
                continue
            for col in ("sine", "sawtooth", "triangle", "average"):
                if abs(float(r[f"{col}_db"]) - got[col]) > tol:
                    v.problem(f"{path.name}: {r['module']} {col} {r[f'{col}_db']} is not the mean of its signals")
    _check_manifest(v, out.with_name(out.stem + "_manifest.json"), bench_dir)
    return v


def derive_seeds(base_seed: int, count: int) -> list[int]:
    ss = np.random.SeedSequence(base_seed)
    return [int(c.generate_state(1, np.uint64)[0]) for c in ss.spawn(count)]


def upsampler_layers(factor: int, n_seeds: int, base_seed: int) -> list[tuple[str, dict]]:
    """(module name, UpsamplerSpec arguments) of the upsampler table, in order."""
    seeds = derive_seeds(base_seed, n_seeds + 1)
    layers = [("ConvTranspose", dict(kind="conv_transpose", seed=s)) for s in seeds[:n_seeds]]
    layers += [
        ("LinearInterp", dict(kind="linear")),
        ("NearestInterp", dict(kind="nearest")),
        ("AntiAliasedResample", dict(kind="aa_resample")),
        ("AntiAliasedResample_prior", dict(kind="aa_resample", seed=seeds[n_seeds], noise_prior=True)),
    ]
    return [(name, dict(kw, factor=factor)) for name, kw in layers]


def check_upsamplers(out: Path, bench_dir: Path, signals: list[tuple[str, int]], factor: int, n_seeds: int, base_seed: int) -> Verdict:
    """run-upsamplers outputs against each layer's impulse-response lines and
    the closed-form tonal line."""
    from aliasbench.audio import AudioBuffer
    from aliasbench.upsamplers import UpsamplerSpec, apply_upsampler

    v = Verdict()
    rate_in = O.RATE // factor
    n_in = int(round(O.DURATION_S * rate_in))
    layers = upsampler_layers(factor, n_seeds, base_seed)
    responses = []
    for _, kw in layers:
        spec = UpsamplerSpec(**kw)
        responses.append(O.impulse_response(lambda x: apply_upsampler(AudioBuffer(x, rate_in), spec).samples, rate_in))

    rows = _per_signal(v, out.with_name(out.stem + "_per_signal.csv"), signals)
    v.attempted = len(rows)
    group_order: list[tuple[str, str]] = []
    for module, chash, *_ in rows:
        if (module, chash) not in group_order:
            group_order.append((module, chash))
    names = [g[0] for g in group_order]
    if sorted(names) != sorted(name for name, _ in layers):
        v.problem(f"upsampler modules {names} are not the table's layers")
        return v
    # Rows are matched to layers by name; the i-th ConvTranspose group is seed i.
    free = defaultdict(list)
    for i, (name, _) in enumerate(layers):
        free[name].append(i)
    index = {g: free[g[0]].pop(0) for g in group_order}
    group_order.sort(key=index.get)
    for module, chash, w, note, ahr in rows:
        h, _ = responses[index[(module, chash)]]
        exact = O.upsampler_ahr(h, factor, w, note, rate_in, n_in)
        if abs(ahr - exact) > UPSAMPLER_TOL_DB:
            v.failed += 1
            v.problem(f"{module} {w} {note}: measured {ahr:.4f} dB, exact {exact:.4f} dB")

    per_group = _type_means([((m, c), c, w, n, a) for m, c, w, n, a in rows])
    keyed = [per_group[g] for g in group_order]
    tonal = [O.tonal_db(h, b, factor) for h, b in responses]
    conv = keyed[:n_seeds]
    expect = {
        "ConvTranspose": (
            {c: float(np.mean([g[c] for g in conv])) for c in ("sine", "sawtooth", "triangle", "average")},
            float(np.mean(tonal[:n_seeds])),
        ),
    }
    for i, name in enumerate(("LinearInterp", "NearestInterp", "AntiAliasedResample"), start=n_seeds):
        expect[name] = (keyed[i], tonal[i])
    summary = {r["module"]: r for r in read_rows(out)}
    if set(summary) != set(expect):
        v.problem(f"{out.name}: rows {sorted(summary)} are not the four table layers")
        return v
    for name, (cols, tonal_line) in expect.items():
        r = summary[name]
        for col, value in cols.items():
            if abs(float(r[f"{col}_db"]) - value) > 0.0051:
                v.problem(f"{out.name}: {name} {col} {r[f'{col}_db']} is not the mean of its signals ({value:.4f})")
        if abs(float(r["tonal_line_db"]) - tonal_line) > 0.0051 + UPSAMPLER_TOL_DB:
            v.problem(f"{out.name}: {name} tonal line {r['tonal_line_db']} dB, closed form {tonal_line:.4f} dB")
    conv_std = float(np.std([g["average"] for g in conv]))
    if abs(float(summary["ConvTranspose"]["seed_std_db"]) - conv_std) > 1e-4:
        v.problem(f"{out.name}: ConvTranspose seed_std_db is not the spread of its seeds")
    prior = float(summary["AntiAliasedResample"]["prior_on_average_db"])
    if abs(prior - keyed[-1]["average"]) > 0.0051:
        v.problem(f"{out.name}: prior_on_average_db is not the prior layer's mean")
    _check_manifest(v, out.with_name(out.stem + "_manifest.json"), bench_dir)
    return v


def check_wav(path: Path, waveform: str, note: int) -> str | None:
    """None if the WAV is the Fourier-law partial sum at -1 dBFS to float32
    rounding, else what is wrong."""
    rate, data = wavfile.read(path)
    if rate != O.RATE or data.dtype != np.float32 or data.ndim != 1:
        return f"{path.name}: not mono float32 at {O.RATE} Hz"
    ref, _ = O.reference_signal(waveform, note)
    if data.size != ref.size:
        return f"{path.name}: {data.size} samples, expected {ref.size}"
    tol = np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64) + 1e-8
    err = np.abs(data.astype(np.float64) - ref)
    if np.any(err > tol):
        return f"{path.name}: deviates from its Fourier law by up to {err.max():.3g}"
    if np.max(np.abs(data)) != np.float32(O.AMPLITUDE):
        return f"{path.name}: peak {np.max(np.abs(data))} is not -1 dBFS"
    return None


def _read_spectrogram_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    header, body = path.read_text().split("\n", 1)
    freqs = np.array([float(x) for x in header.split(",")[1:]])
    values = np.fromstring(body.replace("\n", ","), sep=",")
    table = values.reshape(-1, freqs.size + 1)
    return freqs, table[:, 0], table[:, 1:]


def check_sweeps(v: Verdict, sweep_dir: Path) -> None:
    """Each panel's PGM matches its CSV; the pass-through ridge follows the sweep law."""
    s = SWEEP
    for panel in SWEEP_PANELS:
        v.attempted += 2
        freqs, times, db = _read_spectrogram_csv(sweep_dir / f"{panel}.csv")
        blob = (sweep_dir / f"{panel}.pgm").read_bytes()
        head = f"P5\n{times.size} {freqs.size}\n255\n".encode()
        if not blob.startswith(head) or len(blob) != len(head) + times.size * freqs.size:
            v.problem(f"{panel}.pgm: header or size disagrees with its CSV")
            continue
        pixels = np.frombuffer(blob[len(head):], dtype=np.uint8).reshape(freqs.size, times.size)[::-1].T
        expect = np.rint((db + 100.0) / 100.0 * 255.0)
        if np.max(np.abs(pixels - expect)) > 1:
            v.problem(f"{panel}.pgm: pixels disagree with the dB values of its CSV")
        if panel != SWEEP_PANELS[0]:
            continue
        n = int(round(s["duration_s"] * s["rate"]))
        inside = np.arange(times.size) * s["hop"] + s["frame"] <= n
        centre = times[inside] + s["frame"] / 2 / s["rate"]
        law = s["f_start"] * (s["f_end"] / s["f_start"]) ** (centre / s["duration_s"])
        bin_hz = s["rate"] / s["frame"]
        off = np.abs(np.argmax(db[inside], axis=1) - law / bin_hz)
        if np.any(off > 2.0):
            v.problem(f"{panel}: ridge strays {off.max():.1f} bins from the sweep law")


def check_export(bench_dir: Path, sweep_dir: Path) -> Verdict:
    """gen-bench and sweep outputs: every WAV, bench.csv, the manifest and the
    spectrogram panels."""
    v = Verdict()
    rows = read_rows(bench_dir / "bench.csv")
    v.attempted += 2
    grid = sorted((w, n) for w in O.WAVEFORMS for n in range(60, 108))
    if sorted((r["type"], int(r["index"])) for r in rows) != grid:
        v.problem("bench.csv does not list the 48-note x 3-waveform grid")
    for r in rows:
        w, note = r["type"], int(r["index"])
        v.attempted += 1
        if r["f0_hz"] != f"{O.note_freq(note):.6f}":
            v.problem(f"bench.csv: {w} {note} has f0 {r['f0_hz']}, not 440*2^((n-69)/12)")
        if (r["duration_s"], r["sample_rate"]) != (f"{O.DURATION_S:.3f}", str(O.RATE)):
            v.problem(f"bench.csv: {w} {note} has the wrong duration or rate")
        bad = check_wav(bench_dir / r["path"], w, note)
        if bad:
            v.problem(bad)
    m = json.loads((bench_dir / "manifest.json").read_text())
    if m["bench_csv_sha256"] != sha256(bench_dir / "bench.csv") or m["signals"] != len(rows):
        v.problem("manifest.json disagrees with bench.csv")
    for name, digest in m["files"].items():
        if sha256(bench_dir / name) != digest:
            v.problem(f"manifest.json: hash of {name} disagrees with the file")
    check_sweeps(v, sweep_dir)
    return v
