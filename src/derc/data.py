"""Dataset loading, saving, synthetic generation and the model container.

Samples are rows internally. GEO series-matrix files store samples as
columns and are transposed on load.
"""

from __future__ import annotations

import io
import json
import struct
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .network import DenseLayer, NetworkParams, all_finite

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
    dropped_feature_ids: list[str] = field(default_factory=list)

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
        if not all_finite(self.values):
            raise ValidationError("dataset contains non-finite values")
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            bad = np.argwhere((self.values < 0.0) | (self.values > 1.0))[0]
            raise ValidationError(
                f"value outside [0, 1] at sample {bad[0]}, feature {bad[1]}: "
                f"{self.values[bad[0], bad[1]]}"
            )
        if len(self.feature_ids) != d:
            raise ValidationError("feature_ids length does not match matrix width")
        _require_unique("feature", self.feature_ids)
        if len(self.sample_ids) != n:
            raise ValidationError("sample_ids length does not match matrix height")
        _require_unique("sample", self.sample_ids)
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValidationError("labels length does not match sample count")
            if not np.all(np.isin(self.labels, (0, 1))):
                raise ValidationError("labels must be binary 0/1")

    def subset_features(self, indices: np.ndarray | list[int]) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            values=self.values[:, indices],
            feature_ids=[self.feature_ids[i] for i in indices],
            sample_ids=list(self.sample_ids),
            labels=None if self.labels is None else self.labels.copy(),
        )


def _require_unique(kind: str, ids: list[str]) -> None:
    """Reject ids in which one repeats, naming the first repeat."""
    seen = set()
    for i in ids:
        if i in seen:
            raise ValidationError(f"{kind} id {i!r} repeats an earlier {kind} id")
        seen.add(i)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a reproducible synthetic methylation-like cohort."""

    n_samples: int = 100
    n_features: int = 500
    n_informative: int = 50
    class_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ValidationError(f"n_features must be >= 1, got {self.n_features}")
        if self.n_informative < 0:
            raise ValidationError(f"n_informative must be >= 0, got {self.n_informative}")
        if self.n_informative > self.n_features:
            raise ValidationError("n_informative must be <= n_features")
        if not 0.0 < self.class_ratio < 1.0:
            raise ValidationError("class_ratio must be in (0, 1)")
        # every later stage needs both classes
        n1 = int(round(self.n_samples * self.class_ratio))
        if not 1 <= n1 <= self.n_samples - 1:
            raise ValidationError(
                f"n_samples {self.n_samples} at class_ratio {self.class_ratio} "
                f"gives classes of {self.n_samples - n1} and {n1} samples; "
                f"each needs at least 1")


def _parse_cell(token: str, row: int, col: int) -> float:
    token = token.strip().strip('"')
    if token.lower() in MISSING_TOKENS:
        return np.nan
    try:
        if token.isascii() and "_" not in token:  # float() reads 0_1 and non-ASCII digits
            return float(token)
    except ValueError:
        pass
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


def _parse_table(path, lines: list[str], sep: str, width: int, cells: slice, key: int):
    """The cells slice of each line's width parts, parsed into one preallocated
    matrix and numbered by file column, and each line's parts[key] as written."""
    cols = range(width)[cells]
    values, keys = np.empty((len(lines), len(cols))), []
    try:
        for r, line in enumerate(lines):
            parts = line.split(sep)
            if len(parts) != width:
                raise ParseError(f"table row {r} has {len(parts)} columns, expected {width}")
            keys.append(parts[key])
            row = parts[cells]
            # numpy's bulk parse reads what _parse_cell refuses; an id may trip the line test
            if (line.isascii() and "_" not in line
                    or all(t.isascii() and "_" not in t for t in row)):
                values[r] = _parse_row(row, r, cols.start)
            else:
                values[r] = [_parse_cell(t, r, cols.start + c) for c, t in enumerate(row)]
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}")
    return values, keys


def _impute_feature_means(values: np.ndarray, feature_ids: list[str]):
    """Replace NaNs by per-feature means; drop features that are all-missing.
    Returns (values, kept ids, dropped ids)."""
    missing = np.isnan(values)
    dead = missing.all(axis=0)
    for j in np.flatnonzero(missing.any(axis=0) & ~dead):
        col = values[:, j]
        col[missing[:, j]] = col[~missing[:, j]].mean()
    keep = np.flatnonzero(~dead)
    dropped = [feature_ids[j] for j in np.flatnonzero(dead)]
    return values[:, keep], [feature_ids[j] for j in keep], dropped


def _label(token: str, path, where: str) -> int:
    """A label token, its whitespace stripped, as the int 0 or 1; any other
    token (a sign, a leading zero, an underscore, a word) raises
    ValidationError naming path and where."""
    token = token.strip()
    if token not in ("0", "1"):
        raise ValidationError(f"{path}: {where}: labels must be binary 0/1, written as "
                              f"the plain integer 0/1; got {token!r}")
    return int(token)


def load_labels(path, n: int) -> np.ndarray:
    """The n labels of a labels file: one per non-blank line, the last
    comma-separated cell of each, after an optional `label` header line."""
    lines = [(no, ln) for no, ln in enumerate(read_text(path).splitlines(), start=1)
             if ln.strip()]
    cells = [(no, ln.split(",")[-1]) for no, ln in lines]
    if cells and cells[0][1].strip() == "label":
        cells = cells[1:]
    if len(cells) != n:
        raise ValidationError(f"{path}: {len(cells)} labels for {n} samples")
    return np.array([_label(cell, path, f"line {no}") for no, cell in cells], dtype=int)


def read_text(path) -> str:
    """A file's UTF-8 text, a leading BOM dropped; an undecodable byte raises ParseError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})")


def _cohort(path, values: np.ndarray, feature_ids: list[str], sample_ids: list[str],
            labels: np.ndarray | None) -> Dataset:
    """The Dataset a loader read from path, its missing cells imputed and
    all-missing features dropped into dropped_feature_ids. A table without a
    sample row, a feature column or a value raises ValidationError, as does
    any rejection by Dataset.validate; each message names the file."""
    n, d = values.shape
    if n == 0 or d == 0:
        raise ValidationError(f"{path}: the table holds {n} samples and {d} features")
    # fmin and fmax skip NaN, so the range is NaN only if every cell is
    # missing; a cell that is not missing must be finite
    lo, hi = np.fmin.reduce(values, axis=None), np.fmax.reduce(values, axis=None)
    if np.isnan(hi):
        raise ValidationError(f"{path}: every cell of the table is missing")
    if np.isinf(lo) or np.isinf(hi):
        i, j = np.argwhere(np.isinf(values))[0]
        raise ValidationError(f"{path}: non-finite cell at sample {i}, feature {j}: "
                              f"{values[i, j]}")
    values, feature_ids, dropped = _impute_feature_means(values, feature_ids)
    ds = Dataset(values=values, feature_ids=feature_ids, sample_ids=sample_ids,
                 labels=labels, dropped_feature_ids=dropped)
    try:
        ds.validate()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}")
    return ds


def load_series_matrix(path) -> Dataset:
    """Parse a GEO series-matrix text file into an unlabelled Dataset (samples as rows)."""
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
    # file orientation is probe x sample, transposed once the text is gone
    rows, probe_ids = _parse_table(path, lines[begin + 2:end], "\t", len(header),
                                   slice(1, None), 0)
    del lines
    return _cohort(path, rows.T, [p.strip().strip('"') for p in probe_ids], header[1:], None)


def load_csv(path) -> Dataset:
    """Load a comma-separated matrix with a header of feature ids, each stripped of
    surrounding double quotes; a final column named "label" holds binary class ids."""
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [t.strip().strip('"') for t in lines[0].split(",")]
    has_labels = header[-1] == "label"
    feature_ids = header[:-1] if has_labels else header
    values, last = _parse_table(path, lines[1:], ",", len(header),
                                slice(0, len(feature_ids)), -1)
    labels = (np.array([_label(t, path, f"row {r}") for r, t in enumerate(last)], dtype=int)
              if has_labels else None)
    return _cohort(path, values, feature_ids, [f"s{i}" for i in range(len(values))], labels)


def save_table(path, header: str | None, rows) -> None:
    """Write the header line, when one is given, then each row's cells
    joined by commas. str of a Python float or an np.float64 is its shortest
    round-trip repr, so every float reads back bit for bit."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset in the load_csv format (label column when present)."""
    header, rows = list(dataset.feature_ids), dataset.values.tolist()
    if dataset.labels is not None:
        header.append("label")
        rows = ([*row, int(label)] for row, label in zip(rows, dataset.labels))
    save_table(path, ",".join(header), rows)


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic cohort with class-conditional Beta features."""
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
        arrays["centroids"] = centroids
    save_container(path, arrays, meta)


def load_model(path) -> NetworkParams:
    """Inverse of save_model, without the centroids (load_container reads
    them and the meta). Each layer array is returned C-ordered and floating,
    as training updates it in place: int or uint values as float64, a
    C-ordered float array as it was loaded, so a model is held once."""
    arrays, meta = load_container(path)
    kind = meta.get("kind")
    if kind not in ("ae", "vae"):
        raise ValidationError(
            f"{path}: container holds {kind!r}, not a model ('ae' or 'vae')")
    names = ("trunk", "mu", "dec", "lv") if kind == "vae" else ("enc", "dec")
    acts = meta.get("activations")
    if not (isinstance(acts, dict) and all(isinstance(acts.get(n), list) for n in names)):
        raise ValidationError(f"{path}: {kind} model's activations record {acts!r} is not "
                              f"an object holding a list for each of {', '.join(names)}")
    try:
        stacks = {name: [(f"{name}{i}", DenseLayer(arrays[f"{name}{i}_w"],
                                                   arrays[f"{name}{i}_b"], act))
                         for i, act in enumerate(acts[name])]
                  for name in names}
    except KeyError as exc:
        raise ValidationError(f"{path}: {kind} model container lacks {exc}")
    except ValidationError as exc:  # an unknown activation
        raise ValidationError(f"{path}: {exc}")
    sizes = {name: len(stack) for name, stack in stacks.items()}
    # an encoder and a decoder layer at least; a VAE's one mean and one
    # log-variance head
    if (min(sizes.get("enc", 1), sizes["dec"]) < 1
            or {sizes.get("mu", 1), sizes.get("lv", 1)} != {1}):
        raise ValidationError(f"{path}: {kind} model container holds {sizes} layers")
    encoder = [*stacks.get("enc", ()), *stacks.get("trunk", ()), *stacks.get("mu", ())]
    _check_chain(path, encoder, stacks["dec"], stacks.get("lv", []), meta)
    params = NetworkParams(encoder_layers=[ly for _, ly in encoder],
                           decoder_layers=[ly for _, ly in stacks["dec"]],
                           logvar_head=stacks["lv"][0][1] if kind == "vae" else None)
    for ly in params.all_layers():
        ly.weights, ly.bias = (np.asarray(a, a.dtype if a.dtype.kind == "f" else float,
                                          order="C") for a in (ly.weights, ly.bias))
    return params


def _check_chain(path, encoder: list, decoder: list, heads: list, meta: dict) -> None:
    """Raise ValidationError naming the first array that does not fit: each
    array finite real numbers (float, int or uint), each weight 2-D, each
    bias 1-D with one value per output, widths that chain from input_dim
    through the encoder to latent_dim and through the decoder back to
    input_dim, a log-variance head shaped as the mean head. The stacks hold
    (array name prefix, layer) pairs."""
    def fail(name: str, array: np.ndarray, why: str):
        raise ValidationError(f"{path}: {name} has shape {array.shape}; {why}")

    for name, ly in [*encoder, *decoder, *heads]:
        for array_name, array in ((f"{name}_w", ly.weights), (f"{name}_b", ly.bias)):
            # the kind first: all_finite reads real numbers only
            if array.dtype.kind not in "fiu":
                raise ValidationError(f"{path}: {array_name} is a {array.dtype} array, "
                                      f"not real numbers")
            if not all_finite(array):
                raise ValidationError(f"{path}: {array_name} holds a NaN or an inf")
        if ly.weights.ndim != 2:
            fail(f"{name}_w", ly.weights, "a weight array must be 2-D")
        if ly.bias.shape != (ly.n_out,):
            fail(f"{name}_b", ly.bias, f"its layer has {ly.n_out} outputs")
    width = input_dim = meta.get("input_dim", encoder[0][1].n_in)
    for stack, end, want in ((encoder, "latent_dim", meta.get("latent_dim")),
                             (decoder, "input_dim", input_dim)):
        for name, ly in stack:
            if ly.n_in != width:
                fail(f"{name}_w", ly.weights, f"its layer must read {width} inputs")
            width = ly.n_out
        if want is not None and width != want:
            fail(f"{name}_w", ly.weights, f"the stack must end at {end} {want}")
    mean_head = encoder[-1][1].weights
    for name, ly in heads:
        if ly.weights.shape != mean_head.shape:
            fail(f"{name}_w", ly.weights, f"the mean head's is {mean_head.shape}")


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
        # the archive is read from the open file past the header, and its
        # members only when indexed, so every read sits in the try; a member
        # that does not decompress raises NotImplementedError (an unknown
        # compression method) or zlib.error (bad deflate data)
        try:
            archive = np.load(fh, allow_pickle=False)
            if isinstance(archive, np.ndarray):
                raise ParseError(f"{path}: container payload is one .npy array, "
                                 f"not an archive")
            with archive:
                arrays = {k: archive[k] for k in archive.files}
        except (zipfile.BadZipFile, zlib.error, NotImplementedError, ValueError, OSError,
                EOFError) as exc:
            raise ParseError(f"{path}: truncated or corrupt container payload: {exc}")
    try:
        meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    except KeyError:
        raise ParseError(f"{path}: container holds no __meta__ record")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: container meta byte {exc.start} is not UTF-8 "
                         f"({exc.reason})")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: container meta is not JSON: {exc}")
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: container meta is JSON but not an object")
    return arrays, meta
