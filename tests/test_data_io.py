import numpy as np
import pytest

from conftest import traced_peak, write_series_matrix
from derc import data
from derc.errors import ParseError, ValidationError

GEO_SMALL = """!Series_title\t"tiny"
!Sample_geo_accession\t"GSM1"\t"GSM2"\t"GSM3"
!series_matrix_table_begin
"ID_REF"\t"GSM1"\t"GSM2"\t"GSM3"
"cg0001"\t0.1\t0.2\t0.3
"cg0002"\t0.9\t0.8\t0.7
!series_matrix_table_end
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestSeriesMatrix:
    def test_small_file(self, tmp_path):
        ds = data.load_series_matrix(write(tmp_path, "m.txt", GEO_SMALL))
        assert ds.values.shape == (3, 2)
        assert ds.sample_ids == ["GSM1", "GSM2", "GSM3"]
        assert ds.feature_ids == ["cg0001", "cg0002"]
        np.testing.assert_allclose(ds.values[:, 0], [0.1, 0.2, 0.3])

    def test_mean_imputation(self, tmp_path):
        text = GEO_SMALL.replace("0.1\t0.2\t0.3", "0.2\tNA\t0.4")
        ds = data.load_series_matrix(write(tmp_path, "m.txt", text))
        assert ds.values[1, 0] == pytest.approx(0.3)
        # non-missing entries untouched
        assert ds.values[0, 0] == 0.2 and ds.values[2, 0] == 0.4

    def test_all_missing_feature_dropped(self, tmp_path):
        text = GEO_SMALL.replace("0.1\t0.2\t0.3", "NA\tnull\t")
        ds = data.load_series_matrix(write(tmp_path, "m.txt", text))
        assert ds.feature_ids == ["cg0002"]

    def test_missing_begin_marker(self, tmp_path):
        text = GEO_SMALL.replace("!series_matrix_table_begin\n", "")
        with pytest.raises(ParseError, match="begin"):
            data.load_series_matrix(write(tmp_path, "m.txt", text))

    def test_missing_end_marker(self, tmp_path):
        text = GEO_SMALL.replace("!series_matrix_table_end\n", "")
        with pytest.raises(ParseError, match="end"):
            data.load_series_matrix(write(tmp_path, "m.txt", text))

    def test_non_numeric_cell(self, tmp_path):
        text = GEO_SMALL.replace("0.2", "abc")
        with pytest.raises(ParseError, match="row 0"):
            data.load_series_matrix(write(tmp_path, "m.txt", text))

    @pytest.mark.parametrize("table, shape", [
        ('"ID_REF"\t"GSM1"\t"GSM2"\n', "2 samples and 0 features"),
        ('"ID_REF"\n"cg0001"\n', "0 samples and 1 features"),
    ], ids=["no-probe-rows", "no-sample-columns"])
    def test_empty_table(self, tmp_path, table, shape):
        text = f"!series_matrix_table_begin\n{table}!series_matrix_table_end\n"
        with pytest.raises(ValidationError, match=shape):
            data.load_series_matrix(write(tmp_path, "m.txt", text))

    def test_undecodable_byte(self, tmp_path):
        # a sample id holding a Latin-1 byte is an error, not U+FFFD in the id
        p = tmp_path / "m.txt"
        p.write_bytes(GEO_SMALL.replace('"GSM2"\t"GSM3"\n"cg', '"GSM\xff2"\t"GSM3"\n"cg')
                      .encode("latin-1"))
        offset = GEO_SMALL.index('GSM2"\t"GSM3"\n"cg') + 3
        with pytest.raises(ParseError, match=f"m.txt: byte {offset} is not UTF-8"):
            data.load_series_matrix(p)

    def test_out_of_range_value(self, tmp_path):
        text = GEO_SMALL.replace("0.9", "1.9")
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            data.load_series_matrix(write(tmp_path, "m.txt", text))


def current_load_series_matrix(path):
    """load_series_matrix as it was before rows were parsed into one
    preallocated matrix: the oracle for its values, layout and ids."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()

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
    rows = []
    for r, line in enumerate(lines[begin + 2:end]):
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ParseError(
                f"{path}: table row {r} has {len(parts)} columns, expected {len(header)}"
            )
        probe_ids.append(parts[0].strip().strip('"'))
        rows.append(data._parse_row(parts[1:], r, 1))

    # file orientation is probe x sample; transpose to samples-as-rows
    values = np.asarray(rows, dtype=float).T
    values, feature_ids, _ = data._impute_feature_means(values, probe_ids)
    ds = data.Dataset(values=values, feature_ids=feature_ids, sample_ids=sample_ids)
    ds.validate()
    return ds


class TestSeriesMatrixBuffer:
    """Rows parse into one preallocated matrix: the same dataset as before,
    bit for bit and in the same layout, at a bounded peak."""

    def test_matches_current_loader(self, tmp_path):
        path = write_series_matrix(tmp_path / "m.txt", 24, 600, seed=5)
        got = data.load_series_matrix(path)
        want = current_load_series_matrix(path)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.flags.f_contiguous and want.values.flags.f_contiguous
        assert got.feature_ids == want.feature_ids
        assert got.sample_ids == want.sample_ids
        assert len(got.feature_ids) == 599 and "cg00000001" not in got.feature_ids
        assert np.all(got.values[:, 1] == 0.5)  # probe 2, constant

    def test_peak_under_three_matrices(self, tmp_path):
        # the file's text and lines, then the matrix and its imputed copy;
        # never a list of row arrays beside two matrices
        path = write_series_matrix(tmp_path / "m.txt", 60, 3000, seed=6)
        loaded = []
        peak = traced_peak(lambda: loaded.append(data.load_series_matrix(path)))
        assert peak < 3 * loaded[0].values.nbytes


def reference_impute_feature_means(values, feature_ids):
    """The per-column loop over every feature that imputation must reproduce."""
    keep, dropped = [], []
    for j in range(values.shape[1]):
        col = values[:, j]
        mask = np.isnan(col)
        if mask.all():
            dropped.append(feature_ids[j])
            continue
        if mask.any():
            col[mask] = col[~mask].mean()
        keep.append(j)
    return values[:, keep], [feature_ids[j] for j in keep], dropped


class TestImputeFeatureMeans:
    def test_matches_per_column_loop(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=(37, 60))
        values[rng.uniform(size=values.shape) < 0.1] = np.nan  # partly missing
        values[:, [4, 17, 59]] = np.nan                        # all missing
        values[:, [0, 1, 30]] = rng.uniform(size=(37, 3))      # none missing
        ids = [f"cg{j}" for j in range(60)]
        got = data._impute_feature_means(values.copy(), ids)
        want = reference_impute_feature_means(values.copy(), ids)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        assert want[2] == ["cg4", "cg17", "cg59"]
        assert not np.isnan(got[0]).any()


class TestCsv:
    def test_with_labels(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,f2,label\n0.1,0.2,0\n0.3,0.4,1\n")
        ds = data.load_csv(p)
        assert ds.values.shape == (2, 2)
        assert ds.labels.tolist() == [0, 1]

    def test_without_labels(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,f2\n0.1,0.2\n0.3,0.4\n")
        ds = data.load_csv(p)
        assert ds.labels is None

    def test_out_of_range(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,f2\n0.1,1.2\n0.3,0.4\n")
        with pytest.raises(ValidationError):
            data.load_csv(p)

    def test_ragged_rows(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,f2\n0.1,0.2\n0.3\n")
        with pytest.raises(ParseError, match="row 1"):
            data.load_csv(p)

    def test_non_binary_label(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,label\n0.1,2\n0.3,1\n")
        with pytest.raises(ValidationError, match="label"):
            data.load_csv(p)

    @pytest.mark.parametrize("text, match", [
        ("f1,f2\n", "0 samples and 2 features"),
        ("label\n0\n1\n", "2 samples and 0 features"),
        ("f1,f2\nNA,\n,null\n", "every cell"),
    ], ids=["header-only", "label-only", "all-missing"])
    def test_empty_table(self, tmp_path, text, match):
        with pytest.raises(ValidationError, match=match):
            data.load_csv(write(tmp_path, "d.csv", text))

    def test_undecodable_byte(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"f1,f2\n0.1,0.2\n0.3,\xff\n")
        with pytest.raises(ParseError, match="byte 18 is not UTF-8"):
            data.load_csv(p)

    def test_roundtrip_exact(self, tmp_path):
        ds = data.generate_synthetic(data.SynthSpec(n_samples=12, n_features=7, n_informative=3, seed=5))
        p = tmp_path / "round.csv"
        data.save_csv(ds, p)
        back = data.load_csv(p)
        np.testing.assert_allclose(back.values, ds.values, atol=1e-12)
        assert back.labels.tolist() == ds.labels.tolist()


# every cell form the loaders accept, all in [0, 1]; the last column is
# missing throughout
MIXED_GRID = [
    ["0.1", "0.25", "5e-1", "0.75", "NA"],
    ['"0.2"', " 0.3 ", "NA", "2.5E-01", "null"],
    ["null", "Nan", "", "0.125", ""],
    ["0.05", "nA", "NULL", "1e-3", "NaN"],
    [" 1", "0.6", "0.7 ", "nan", "nAn"],
]


def per_cell_row(cells, row, first_col):
    return [data._parse_cell(tok, row, first_col + c) for c, tok in enumerate(cells)]


def write_table(tmp_path, fmt, grid):
    """The grid as a series matrix (rows are probes) or a CSV (rows are samples)."""
    if fmt == "series":
        lines = ["!series_matrix_table_begin",
                 "\t".join(['"ID_REF"', *(f'"GSM{i}"' for i in range(len(grid[0])))]),
                 *("\t".join([f'"cg{r}"', *row]) for r, row in enumerate(grid)),
                 "!series_matrix_table_end"]
        return write(tmp_path, "m.txt", "\n".join(lines) + "\n"), data.load_series_matrix
    lines = [",".join(f"f{j}" for j in range(len(grid[0]))), *(",".join(r) for r in grid)]
    return write(tmp_path, "d.csv", "\n".join(lines) + "\n"), data.load_csv


class TestBulkParse:
    def test_rows_match_per_cell_parse(self):
        for r, row in enumerate(MIXED_GRID):
            bulk = np.asarray(data._parse_row(row, r, 1), dtype=float)
            cell = np.asarray(per_cell_row(row, r, 1), dtype=float)
            assert bulk.tobytes() == cell.tobytes()
        assert isinstance(data._parse_row(MIXED_GRID[0][:4], 0, 1), np.ndarray)

    @pytest.mark.parametrize("fmt", ["series", "csv"])
    def test_loaders_match_per_cell_parse(self, tmp_path, monkeypatch, fmt):
        path, load = write_table(tmp_path, fmt, MIXED_GRID)
        bulk = load(path)
        monkeypatch.setattr(data, "_parse_row", per_cell_row)
        cell = load(path)
        assert bulk.feature_ids == cell.feature_ids
        assert bulk.values.tobytes() == cell.values.tobytes()

    @pytest.mark.parametrize("fmt, col", [("series", 3), ("csv", 2)])
    def test_bad_cell_in_numeric_row(self, tmp_path, fmt, col):
        path, load = write_table(tmp_path, fmt, [["0.1", "0.2", "0.3"],
                                                 ["0.4", "0.5", '"0.x"']])
        with pytest.raises(ParseError,
                           match=f"non-numeric cell at table row 1, column {col}: '0.x'"):
            load(path)


class TestSynthetic:
    def test_deterministic(self):
        spec = data.SynthSpec(n_samples=30, n_features=20, n_informative=5, seed=9)
        a = data.generate_synthetic(spec)
        b = data.generate_synthetic(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_uninformative_when_zero(self):
        # with n_informative=0 no feature should separate the classes
        from derc.prescreen import PrescreenConfig, class_test

        spec = data.SynthSpec(n_samples=200, n_features=300, n_informative=0, seed=3)
        ds = data.generate_synthetic(spec)
        cfg = PrescreenConfig()
        pvals = np.array([class_test(ds.values[:, j], ds.labels, cfg)
                          for j in range(ds.n_features)])
        assert np.mean(pvals > 0.001) >= 0.99

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            data.generate_synthetic(data.SynthSpec(n_features=5, n_informative=6))
        with pytest.raises(ValidationError):
            data.generate_synthetic(data.SynthSpec(class_ratio=0.0))


class TestModelContainer:
    def _model(self):
        from derc.autoencoder import build_ae

        return build_ae([6, 4, 2], np.random.default_rng(0))

    def test_roundtrip_bit_exact(self, tmp_path):
        params = self._model()
        centroids = np.random.default_rng(1).normal(size=(2, 2))
        path = tmp_path / "model.derc"
        data.save_model(path, params, centroids=centroids, extra_meta={"note": "x"})
        loaded, cent, meta = data.load_model(path)
        for a, b in zip(params.all_layers(), loaded.all_layers()):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.activation == b.activation
        assert np.array_equal(cent, centroids)
        assert meta["kind"] == "ae" and meta["note"] == "x"

    def test_vae_roundtrip(self, tmp_path):
        from derc.autoencoder import build_vae, encode

        params = build_vae([6, 4, 2], np.random.default_rng(0))
        path = tmp_path / "model.derc"
        data.save_model(path, params)
        loaded, _, meta = data.load_model(path)
        x = np.random.default_rng(2).uniform(size=(3, 6))
        assert np.array_equal(encode(params, x), encode(loaded, x))
        assert meta["kind"] == "vae"

    @pytest.mark.parametrize("kind, names, stacks", [
        ("ae", ["enc0", "enc1", "dec0", "dec1"], ["enc", "dec"]),
        ("vae", ["trunk0", "dec0", "dec1", "mu0", "lv0"], ["trunk", "dec", "mu", "lv"]),
    ])
    def test_on_disk_layout(self, tmp_path, kind, names, stacks):
        # files written by earlier versions must keep loading: pin the layout
        from derc import autoencoder

        build = autoencoder.build_ae if kind == "ae" else autoencoder.build_vae
        path = tmp_path / "model.derc"
        data.save_model(path, build([6, 4, 2], np.random.default_rng(0)))
        arrays, meta = data.load_container(path)
        assert list(arrays) == [f"{n}_{t}" for n in names for t in "wb"]
        assert list(meta) == ["kind", "activations", "input_dim", "latent_dim"]
        assert meta["kind"] == kind and list(meta["activations"]) == stacks

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.derc"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ParseError, match="magic"):
            data.load_model(path)

    def test_newer_version(self, tmp_path):
        path = tmp_path / "model.derc"
        data.save_model(path, self._model())
        raw = bytearray(path.read_bytes())
        raw[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="99"):
            data.load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.derc"
        data.save_model(path, self._model())
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ParseError, match="truncated|corrupt"):
            data.load_model(path)
