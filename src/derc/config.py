"""Run configuration: key/value config files, seed derivation, manifests."""

from __future__ import annotations

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
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


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy bundles, or None where
    no such library or thread-count symbol is found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def write_manifest(out_path, stage: str, inputs: list[str], settings: dict) -> None:
    """Provenance record next to a stage output; deterministic content at a
    given BLAS thread count, which changes GEMM bits and is recorded."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy older than show_config's dicts
        blas = {}
    manifest = {
        "stage": stage,
        "version": __version__,
        "inputs": {str(p): sha256_file(p) for p in sorted(map(str, inputs))},
        "settings": {k: settings[k] for k in sorted(settings)},
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
