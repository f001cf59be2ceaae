"""Run configuration: key/value config files, seed derivation, manifests."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .data import read_text
from .errors import ParseError

# fixed stage ids; the per-stage seed is SeedSequence(global_seed, spawn_key=(id,))
STAGE_IDS = {
    "prescreen": 0,
    "pretrain": 1,
    "cluster_init": 2,
    "derc": 3,
    "synth": 4,
}


def stage_seed(global_seed: int, stage: str) -> int:
    ss = np.random.SeedSequence(entropy=global_seed, spawn_key=(STAGE_IDS[stage],))
    return int(ss.generate_state(1)[0])


def load_config(path) -> dict[str, str]:
    """Parse a plain-text config of `key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(keepends=True), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_path, stage: str, inputs: list[str], settings: dict) -> None:
    """Provenance record next to a stage output; deterministic content."""
    from . import __version__

    manifest = {
        "stage": stage,
        "version": __version__,
        "inputs": {str(p): sha256_file(p) for p in sorted(map(str, inputs))},
        "settings": {k: settings[k] for k in sorted(settings)},
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
