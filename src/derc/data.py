"""Dataset loading, saving, synthetic generation and the model container.

Samples are rows internally. GEO series-matrix files store samples as
columns and are transposed on load.
"""

from __future__ import annotations

import io
import json
import logging
import struct
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .network import DenseLayer, NetworkParams

logger = logging.getLogger(__name__)

MISSING_TOKENS = {"", "na", "null", "nan"}

# Beta (a, b) shapes of a synthetic cohort: informative features for class
# 0 and class 1, then the noise features
SYNTH_BETA_INFORMATIVE = ((2.0, 8.0), (8.0, 2.0))
SYNTH_BETA_NOISE = (2.0, 2.0)

CONTAINER_MAGIC = b"DERCMDL1"
CONTAINER_VERSION = 1


@dataclass
class Dataset:
    """Sample x feature matrix of beta values in [0, 1] with optional binary labels."""

    values: np.ndarray
    feature_ids: list[str]
    sample_ids: list[str]
    labels: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def validate(self) -> None:
        if self.values.ndim != 2:
            raise ValidationError("dataset matrix must be 2-D")
        n, d = self.values.shape
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("dataset contains non-finite values")
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            bad = np.argwhere((self.values < 0.0) | (self.values > 1.0))[0]
            raise ValidationError(
                f"value outside [0, 1] at sample {bad[0]}, feature {bad[1]}: "
                f"{self.values[bad[0], bad[1]]}"
            )
        if len(self.feature_ids) != d:
            raise ValidationError("feature_ids length does not match matrix width")
        if len(set(self.feature_ids)) != d:
            raise ValidationError("feature_ids are not unique")
        if len(self.sample_ids) != n:
            raise ValidationError("sample_ids length does not match matrix height")
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValidationError("labels length does not match sample count")
            if not np.all(np.isin(self.labels, (0, 1))):
                raise ValidationError("labels must be binary 0/1")

    def subset_features(self, indices: np.ndarray | list[int]) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            values=self.values[:, indices].copy(),
            feature_ids=[self.feature_ids[i] for i in indices],
            sample_ids=list(self.sample_ids),
            labels=None if self.labels is None else self.labels.copy(),
        )


@dataclass
class SynthSpec:
    """Recipe for a reproducible synthetic methylation-like cohort."""

    n_samples: int = 100
    n_features: int = 500
    n_informative: int = 50
    class_ratio: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.n_informative > self.n_features:
            raise ValidationError("n_informative must be <= n_features")
        if not 0.0 < self.class_ratio < 1.0:
            raise ValidationError("class_ratio must be in (0, 1)")


def _parse_cell(token: str, row: int, col: int) -> float:
    token = token.strip().strip('"')
    if token.lower() in MISSING_TOKENS:
        return np.nan
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"non-numeric cell at table row {row}, column {col}: {token!r}")


def _parse_row(cells: list[str], row: int, first_col: int):
    """Parse one table row of cells numbered from first_col.

    The whole row goes through float() in one numpy call; a row with a
    quoted, missing or non-numeric cell is parsed cell by cell instead.
    """
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return [_parse_cell(tok, row, first_col + c) for c, tok in enumerate(cells)]


def _impute_feature_means(values: np.ndarray, feature_ids: list[str]):
    """Replace NaNs by per-feature means; drop features that are all-missing."""
    missing = np.isnan(values)
    dead = missing.all(axis=0)
    for j in np.flatnonzero(missing.any(axis=0) & ~dead):
        col = values[:, j]
        col[missing[:, j]] = col[~missing[:, j]].mean()
    keep = np.flatnonzero(~dead)
    dropped = [feature_ids[j] for j in np.flatnonzero(dead)]
    if dropped:
        logger.warning("dropped %d all-missing features: %s",
                       len(dropped), ", ".join(dropped[:10]))
    return values[:, keep], [feature_ids[j] for j in keep], dropped


def read_text(path) -> str:
    """A file's text as UTF-8; a byte that does not decode raises ParseError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})")


def _require_cells(path, values: np.ndarray) -> None:
    """Reject a table without a sample row, a feature column or a value."""
    n, d = values.shape
    if n == 0 or d == 0:
        raise ValidationError(f"{path}: the table holds {n} samples and {d} features")
    # fmax skips NaN, so the reduction is NaN only if every cell is missing
    if np.isnan(np.fmax.reduce(values, axis=None)):
        raise ValidationError(f"{path}: every cell of the table is missing")


def load_series_matrix(path) -> Dataset:
    """Parse a GEO series-matrix text file into a Dataset (samples as rows)."""
    lines = read_text(path).splitlines()

    begin = end = None
    for i, line in enumerate(lines):
        if "series_matrix_table_begin" in line:
            begin = i
        elif "series_matrix_table_end" in line:
            end = i
    if begin is None:
        raise ParseError(f"{path}: missing series_matrix_table_begin marker")
    if end is None or end <= begin + 1:
        raise ParseError(
            f"{path}: missing or misplaced series_matrix_table_end marker "
            f"(begin at line {begin + 1})"
        )

    header = [t.strip().strip('"') for t in lines[begin + 1].split("\t")]
    sample_ids = header[1:]
    probe_ids: list[str] = []
    # file orientation is probe x sample; each row is parsed straight into
    # one matrix, which is transposed to samples-as-rows once the text is gone
    rows = np.empty((end - begin - 2, len(sample_ids)))
    for r, line in enumerate(lines[begin + 2:end]):
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ParseError(
                f"{path}: table row {r} has {len(parts)} columns, expected {len(header)}"
            )
        probe_ids.append(parts[0].strip().strip('"'))
        rows[r] = _parse_row(parts[1:], r, 1)
    del lines

    values = rows.T
    _require_cells(path, values)
    values, feature_ids, _ = _impute_feature_means(values, probe_ids)
    ds = Dataset(values=values, feature_ids=feature_ids, sample_ids=sample_ids)
    ds.validate()
    return ds


def load_csv(path) -> Dataset:
    """Load a comma-separated matrix with a header of feature ids.

    A final column named "label" holds binary class ids.
    """
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [t.strip() for t in lines[0].split(",")]
    has_labels = header[-1] == "label"
    feature_ids = header[:-1] if has_labels else header

    rows = []
    labels = []
    for r, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ParseError(
                f"{path}: row {r} has {len(parts)} columns, expected {len(header)}"
            )
        if has_labels:
            lab = parts[-1].strip()
            if lab not in ("0", "1"):
                raise ValidationError(f"{path}: non-binary label {lab!r} at row {r}")
            labels.append(int(lab))
            parts = parts[:-1]
        rows.append(_parse_row(parts, r, 0))

    values = np.asarray(rows, dtype=float).reshape(len(rows), len(feature_ids))
    _require_cells(path, values)
    values, feature_ids, _ = _impute_feature_means(values, list(feature_ids))
    ds = Dataset(
        values=values,
        feature_ids=feature_ids,
        sample_ids=[f"s{i}" for i in range(values.shape[0])],
        labels=np.asarray(labels, dtype=int) if has_labels else None,
    )
    ds.validate()
    return ds


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset in the load_csv format (label column when present)."""
    with open(path, "w", encoding="utf-8") as fh:
        header = list(dataset.feature_ids)
        if dataset.labels is not None:
            header.append("label")
        fh.write(",".join(header) + "\n")
        for i in range(dataset.n_samples):
            cells = [repr(float(v)) for v in dataset.values[i]]
            if dataset.labels is not None:
                cells.append(str(int(dataset.labels[i])))
            fh.write(",".join(cells) + "\n")


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic cohort with class-conditional Beta features."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, d, k = spec.n_samples, spec.n_features, spec.n_informative
    n1 = int(round(n * spec.class_ratio))
    labels = np.zeros(n, dtype=int)
    labels[n - n1:] = 1

    values = np.empty((n, d))
    a_noise, b_noise = SYNTH_BETA_NOISE
    values[:, k:] = rng.beta(a_noise, b_noise, size=(n, d - k))
    for cls in (0, 1):
        a, b = SYNTH_BETA_INFORMATIVE[cls]
        idx = labels == cls
        values[idx, :k] = rng.beta(a, b, size=(int(idx.sum()), k))

    ds = Dataset(
        values=values,
        feature_ids=[f"f{j}" for j in range(d)],
        sample_ids=[f"s{i}" for i in range(n)],
        labels=labels,
    )
    ds.validate()
    return ds


# --- model container -------------------------------------------------------
#
# Single file layout: 8-byte magic, 4-byte little-endian version, then an
# npz archive holding the tensors plus a JSON metadata blob.


def save_container(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<I", CONTAINER_VERSION))
        fh.write(buf.getvalue())


def save_model(path, params, centroids: np.ndarray | None = None,
               extra_meta: dict | None = None) -> None:
    """Persist trained network parameters (AE or VAE) and optional centroids.

    An AE is stored as enc*/dec* arrays; a VAE as trunk*/dec*/mu0/lv0, its
    encoder split into trunk and mean head.
    """
    arrays: dict[str, np.ndarray] = {}
    meta: dict = dict(extra_meta or {})
    enc = params.encoder_layers
    if params.logvar_head is None:
        meta["kind"] = "ae"
        stacks = {"enc": enc, "dec": params.decoder_layers}
    else:
        meta["kind"] = "vae"
        stacks = {"trunk": enc[:-1], "dec": params.decoder_layers,
                  "mu": enc[-1:], "lv": [params.logvar_head]}
    activations: dict[str, list[str]] = {}
    for name, layers in stacks.items():
        activations[name] = [ly.activation for ly in layers]
        for i, ly in enumerate(layers):
            arrays[f"{name}{i}_w"] = ly.weights
            arrays[f"{name}{i}_b"] = ly.bias
    meta["activations"] = activations
    meta["input_dim"] = int(params.input_dim)
    meta["latent_dim"] = int(params.latent_dim)
    if centroids is not None:
        arrays["centroids"] = np.asarray(centroids, dtype=float)
    save_container(path, arrays, meta)


def load_model(path):
    """Inverse of save_model; returns (params, centroids-or-None, meta)."""
    arrays, meta = load_container(path)
    kind = meta.get("kind")
    if kind not in ("ae", "vae"):
        raise ValidationError(
            f"{path}: container holds {kind!r}, not a model ('ae' or 'vae')")

    def stack(name):
        acts = meta["activations"][name]
        return [
            DenseLayer(weights=arrays[f"{name}{i}_w"], bias=arrays[f"{name}{i}_b"],
                       activation=acts[i])
            for i in range(len(acts))
        ]

    try:
        if kind == "vae":
            params = NetworkParams(encoder_layers=[*stack("trunk"), *stack("mu")],
                                   decoder_layers=stack("dec"),
                                   logvar_head=stack("lv")[0])
        else:
            params = NetworkParams(encoder_layers=stack("enc"),
                                   decoder_layers=stack("dec"))
    except KeyError as exc:
        raise ValidationError(f"{path}: {kind} model container lacks {exc}")
    centroids = arrays.get("centroids")
    return params, centroids, meta


def load_container(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        head = fh.read(len(CONTAINER_MAGIC))
        if head != CONTAINER_MAGIC:
            raise ParseError(f"{path}: not a model container (bad magic bytes)")
        raw = fh.read(4)
        if len(raw) < 4:
            raise ParseError(f"{path}: truncated container header")
        version = struct.unpack("<I", raw)[0]
        if version > CONTAINER_VERSION:
            raise ValidationError(
                f"{path}: container version {version} is newer than supported "
                f"version {CONTAINER_VERSION}"
            )
        payload = fh.read()
    try:
        archive = np.load(io.BytesIO(payload), allow_pickle=False)
        arrays = {k: archive[k] for k in archive.files}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise ParseError(f"{path}: truncated or corrupt container payload: {exc}")
    meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    return arrays, meta
