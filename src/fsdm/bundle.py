"""On-disk recording bundle: manifest, hypnogram, signals, features.

Layout of a bundle directory:

    manifest.json            id, epoch counts, signal and feature entries
    hypnogram.txt            one stage label per line
    signals/<name>.f32       raw little-endian float32 samples
    signals/<name>.json      sidecar: {"fs": ..., "kind": ..., "unit": ""}
    features/<name>.csv      epoch-aligned features, header row

Signals are float32 only: ``write_bundle`` marks each manifest signal
entry ``"encoding": "f32"``, and ``read_bundle`` rejects any other
encoding.

All payloads are timestamp-free and written with stable key ordering,
so identical inputs produce byte-identical bundles.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .dsp import read_signal_f32, write_signal_f32
from .hypno import Hypnogram, json_list, read_hypnogram, required_field, write_hypnogram


@dataclass(frozen=True)
class SignalEntry:
    name: str
    kind: str
    fs: float
    file: str


@dataclass(frozen=True)
class Bundle:
    recording_id: str
    n_epochs: int
    valid_epochs: int
    hypnogram: Hypnogram
    features: dict[str, np.ndarray] = field(default_factory=dict)   # name -> (F, E)
    signals: dict[str, tuple[np.ndarray, SignalEntry]] = field(default_factory=dict)


def dump_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def write_csv(path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows as the csv module writes them: None as an
    empty cell, a str as is and any other value as ``str(v)``, which for
    a float, ``np.float64`` too, is its shortest repr.  A float32 cell
    would print its float32 repr (``0.1``, not ``0.10000000149011612``);
    no caller passes one."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_features_csv(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
    write_csv(path, ["epoch_index"] + [f"f{i}" for i in range(values.shape[0])],
              ([e, *column] for e, column in enumerate(values.T)))


def read_features_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2:
        raise ValueError(f"feature file {path} has no data rows")
    data = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return data.T  # (F, E)


def write_bundle(directory, bundle: Bundle) -> None:
    root = Path(directory)
    (root / "signals").mkdir(parents=True, exist_ok=True)
    (root / "features").mkdir(parents=True, exist_ok=True)
    write_hypnogram(root / "hypnogram.txt", bundle.hypnogram)
    feature_entries = []
    for name in sorted(bundle.features):
        rel = f"features/{name}.csv"
        write_features_csv(root / rel, bundle.features[name])
        feature_entries.append({"name": name, "file": rel})
    signal_entries = []
    for name in sorted(bundle.signals):
        samples, entry = bundle.signals[name]
        rel = f"signals/{name}.f32"
        write_signal_f32(root / rel, samples)
        dump_json(root / f"signals/{name}.json",
                  {"fs": entry.fs, "kind": entry.kind, "unit": ""})
        signal_entries.append({
            "name": name, "kind": entry.kind, "fs": entry.fs,
            "file": rel, "encoding": "f32",
        })
    dump_json(root / "manifest.json", {
        "recording_id": bundle.recording_id,
        "n_epochs": bundle.n_epochs,
        "valid_epochs": bundle.valid_epochs,
        "signals": signal_entries,
        "features": feature_entries,
    })


def read_bundle(directory) -> Bundle:
    """The bundle in ``directory``.  A manifest, or a signal or feature
    entry of it, without a field it needs, or whose ``features`` or
    ``signals`` is not a list, raises ValueError naming the field and the
    manifest file."""
    root = Path(directory)
    manifest_path = root / "manifest.json"
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    hypnogram = read_hypnogram(root / "hypnogram.txt")
    n_epochs = int(required_field(manifest, "n_epochs", manifest_path))
    if len(hypnogram) != n_epochs:
        raise ValueError("hypnogram length does not match manifest n_epochs")
    valid_epochs = int(required_field(manifest, "valid_epochs", manifest_path))
    if not 1 <= valid_epochs <= n_epochs:
        raise ValueError(
            f"manifest valid_epochs={valid_epochs} must lie in 1..n_epochs={n_epochs}"
        )
    recording_id = required_field(manifest, "recording_id", manifest_path)
    features = {}
    for i, entry in enumerate(json_list(manifest.get("features", []),
                                        f"{manifest_path} field 'features'")):
        name, file = (required_field(entry, key, f"{manifest_path} feature entry {i}")
                      for key in ("name", "file"))
        path = root / file
        if not path.exists():
            raise FileNotFoundError(f"manifest references missing file {path}")
        values = read_features_csv(path)
        if values.shape[1] != n_epochs:
            raise ValueError(f"features {name} are not epoch-aligned")
        if np.isinf(values).any():
            raise ValueError(
                f"features {name} hold an infinite value (NaN marks a missing epoch)"
            )
        features[name] = values
    signals = {}
    for i, entry in enumerate(json_list(manifest.get("signals", []),
                                        f"{manifest_path} field 'signals'")):
        name, kind, fs, file = (required_field(entry, key, f"{manifest_path} signal entry {i}")
                                for key in ("name", "kind", "fs", "file"))
        encoding = entry.get("encoding", "f32")
        if encoding != "f32":
            raise ValueError(f"signal {name} has unsupported encoding {encoding!r}")
        path = root / file
        if not path.exists():
            raise FileNotFoundError(f"manifest references missing file {path}")
        signals[name] = (read_signal_f32(path),
                         SignalEntry(name=name, kind=kind, fs=float(fs), file=file))
    return Bundle(
        recording_id=recording_id,
        n_epochs=n_epochs,
        valid_epochs=valid_epochs,
        hypnogram=hypnogram,
        features=features,
        signals=signals,
    )
