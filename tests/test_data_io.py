import ast
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import (set_compression_method, traced_peak, write_deflated_container,
                      write_series_matrix)
from derc import data
from derc.cli import main
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

    def test_all_missing_feature_dropped(self, tmp_path, caplog):
        text = GEO_SMALL.replace("0.1\t0.2\t0.3", "NA\tnull\t")
        ds = data.load_series_matrix(write(tmp_path, "m.txt", text))
        assert ds.feature_ids == ["cg0002"]
        assert ds.dropped_feature_ids == ["cg0001"]
        # the loader only lists the drop; derc notes it once a command succeeds
        assert caplog.messages == []

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

    def test_csv_peak_without_row_arrays(self, tmp_path):
        # the text and lines, then one matrix and its imputed copy: near 3.8
        # matrices; a list of row arrays and its np.asarray copy made 5.0
        values = np.random.default_rng(0).beta(2.0, 2.0, size=(40, 2000))
        path = write(tmp_path, "d.csv", "\n".join(
            [",".join(f"f{j}" for j in range(2000)) + ",label",
             *(",".join(f"{v:.6f}" for v in row) + f",{i % 2}"
               for i, row in enumerate(values))]) + "\n")
        loaded = []
        peak = traced_peak(lambda: loaded.append(data.load_csv(path)))
        assert peak < 4.4 * loaded[0].values.nbytes


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


class TestSubsetFeatures:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_subset_is_one_new_copy(self, order):
        # a GEO series matrix loads F-ordered, a CSV C-ordered
        rng = np.random.default_rng(5)
        values = np.asarray(rng.uniform(size=(137, 3000)), order=order)
        ds = data.Dataset(values=values, feature_ids=[f"cg{i}" for i in range(3000)],
                          sample_ids=[f"s{i}" for i in range(137)],
                          labels=rng.integers(0, 2, size=137))
        kept = np.sort(rng.choice(3000, size=1500, replace=False))
        subsets = []
        peak = traced_peak(lambda: subsets.append(ds.subset_features(kept)))
        sub = subsets[0]
        assert sub.values.tobytes() == values[:, kept].tobytes()
        assert sub.feature_ids == [ds.feature_ids[i] for i in kept]
        assert not np.shares_memory(sub.values, values)
        assert not np.shares_memory(sub.labels, ds.labels)
        assert peak <= sub.values.nbytes + 64 * 1024


class TestLabels:
    """A labels file and a CSV label column read one grammar: 0 or 1, with
    surrounding whitespace and nothing else."""

    @pytest.mark.parametrize("token", ["+1", "01", "0_1", "-0", "1.0", "2", "yes", "１"])
    def test_both_reject_the_same_tokens(self, tmp_path, token):
        labels = write(tmp_path, "l.txt", f"0\n{token}\n")
        got = re.escape(f"got '{token}'")
        with pytest.raises(ValidationError, match=f"l.txt: line 2: .*binary 0/1.*{got}"):
            data.load_labels(labels, 2)
        csv = write(tmp_path, "d.csv", f"f1,label\n0.1,0\n0.3,{token}\n")
        with pytest.raises(ValidationError, match=f"d.csv: row 1: .*{got}"):
            data.load_csv(csv)

    def test_both_accept_padded_digits(self, tmp_path):
        labels = write(tmp_path, "l.txt", "label\n 0 \n\n\t1\nid,1\n")
        assert data.load_labels(labels, 3).tolist() == [0, 1, 1]
        csv = write(tmp_path, "d.csv", "f1,label\n0.1, 0 \n0.3,\t1\n0.2,1\n")
        assert data.load_csv(csv).labels.tolist() == [0, 1, 1]
        # a --labels file replaces the column: prescreen's filtered CSV
        # carries the file's labels
        flipped = write(tmp_path, "flipped.txt", "label\n 1 \n\n\t0\nid,0\n")
        out = tmp_path / "f.csv"
        assert main(["prescreen", "--data", str(csv), "--labels", str(flipped),
                     "--out-data", str(out), "--out-report", str(tmp_path / "r.csv"),
                     "--out-kept", str(tmp_path / "k.txt")]) == 0
        rows = out.read_text().splitlines()
        assert [ln.split(",")[-1] for ln in rows] == ["label", "1", "0", "0"]


class TestCsv:
    # R's write.csv quotes the header
    @pytest.mark.parametrize("header", ["f1,f2,label", '"f1","f2","label"'])
    def test_with_labels(self, tmp_path, header):
        p = write(tmp_path, "d.csv", f"{header}\n0.1,0.2,0\n0.3,0.4,1\n")
        ds = data.load_csv(p)
        assert ds.values.shape == (2, 2)
        assert ds.feature_ids == ["f1", "f2"]
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


class TestValidate:
    @pytest.mark.parametrize("kind", ["feature", "sample"])
    def test_repeated_id_named(self, kind):
        ds = data.Dataset(values=np.full((3, 3), 0.5), feature_ids=["f0", "f1", "f2"],
                          sample_ids=["s0", "s1", "s2"])
        setattr(ds, f"{kind}_ids", ["a", "b", "a"])
        with pytest.raises(ValidationError, match=f"{kind} id 'a' repeats"):
            ds.validate()

    def test_series_matrix_repeated_sample(self, tmp_path):
        text = GEO_SMALL.replace('"GSM2"\t"GSM3"\n"cg0001"', '"GSM2"\t"GSM2"\n"cg0001"')
        with pytest.raises(ValidationError, match="m.txt: sample id 'GSM2' repeats"):
            data.load_series_matrix(write(tmp_path, "m.txt", text))

    def test_csv_rejection_names_file(self, tmp_path):
        p = write(tmp_path, "oor.csv", "f1,f2\n0.5,1.5\n0.1,0.2\n")
        with pytest.raises(ValidationError, match=r"oor.csv: value outside \[0, 1\] at "
                                                  r"sample 0, feature 1: 1.5"):
            data.load_csv(p)


# float64 values whose text is easy to get wrong: signed zero, NaN and the
# infinities, the subnormal and normal floors, the largest float, where
# repr switches to exponents, and values with a long shortest repr
FLOAT_EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e16, 1e-5, 1e-4, 0.1, 1 / 3, 2.0 ** 53 + 2]


class TestSaveTable:
    def test_float_cells_read_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        scaled = rng.normal(size=300) * 10.0 ** rng.integers(-30, 31, size=300)
        values = np.concatenate([FLOAT_EDGES, scaled])
        path = tmp_path / "t.csv"
        data.save_table(path, "i,python,numpy",
                        [(i, float(v), np.float64(v)) for i, v in enumerate(values)])
        lines = path.read_text().splitlines()
        assert lines[0] == "i,python,numpy"
        cells = [ln.split(",") for ln in lines[1:]]
        assert [c[0] for c in cells] == [str(i) for i in range(len(values))]
        # a Python float and an np.float64 are written as the same text
        assert all(c[1] == c[2] == repr(float(v)) for c, v in zip(cells, values))
        back = np.array([[float(c[1]), float(c[2])] for c in cells])
        for col in back.T:
            assert col.view(np.int64).tolist() == values.view(np.int64).tolist()

    def test_history_row_with_numpy_float(self, tmp_path):
        # a trainer's history mixes ints and Python floats with np.float64 losses
        path = tmp_path / "h.csv"
        data.save_table(path, "epoch,train_loss,val_loss",
                        [(0, np.float64(0.1) + np.float64(0.2), float("nan")),
                         (np.int64(1), 1e-05, np.float64(1) / 3)])
        assert path.read_text() == ("epoch,train_loss,val_loss\n"
                                    "0,0.30000000000000004,nan\n"
                                    "1,1e-05,0.3333333333333333\n")

    def test_no_header(self, tmp_path):
        path = tmp_path / "kept.txt"
        data.save_table(path, None, [("cg1",), ("cg2",)])
        assert path.read_text() == "cg1\ncg2\n"


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

    # numpy and float() read 0_1 as 1.0 and the Arabic-Indic \u0662e-1 as 0.2
    @pytest.mark.parametrize("cell, shown", [('"0.x"', "0.x"), ("0_1", "0_1"),
                                             ("\u0662e-1", "\u0662e-1")],
                             ids=["quoted-word", "underscore", "arabic-indic-digit"])
    @pytest.mark.parametrize("fmt, col", [("series", 3), ("csv", 2)])
    def test_bad_cell_in_numeric_row(self, tmp_path, fmt, col, cell, shown):
        path, load = write_table(tmp_path, fmt, [["0.1", "0.2", "0.3"],
                                                 ["0.4", "0.5", cell]])
        with pytest.raises(ParseError, match=f"{path.name}: non-numeric cell at table "
                                             f"row 1, column {col}: '{shown}'"):
            load(path)

    def test_probe_id_with_underscore_parses_in_bulk(self, tmp_path, monkeypatch):
        path = write(tmp_path, "m.txt", GEO_SMALL.replace('"cg0001"', '"cg00000029_TC21"'))
        monkeypatch.setattr(data, "_parse_cell", None)  # no row falls back
        ds = data.load_series_matrix(path)
        assert ds.feature_ids == ["cg00000029_TC21", "cg0002"]
        assert ds.values[:, 0].tolist() == [0.1, 0.2, 0.3]

    def test_parse_row_called_only_by_parse_table(self):
        # one row parser serves both loaders
        tree = ast.parse(Path(data.__file__).read_text(encoding="utf-8"))
        callers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "_parse_row"]
        assert callers == ["_parse_table"]


class TestSynthetic:
    def test_deterministic(self):
        spec = data.SynthSpec(n_samples=30, n_features=20, n_informative=5, seed=9)
        a = data.generate_synthetic(spec)
        b = data.generate_synthetic(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_uninformative_when_zero(self):
        # with n_informative=0 no feature should separate the classes
        from derc.prescreen import PrescreenConfig, class_test, normality_gate

        spec = data.SynthSpec(n_samples=200, n_features=300, n_informative=0, seed=3)
        ds = data.generate_synthetic(spec)
        alpha = PrescreenConfig().normality_alpha
        a, b = ds.values[ds.labels == 0].T, ds.values[ds.labels == 1].T
        pvals = np.array([class_test(a_j, b_j, normality_gate(a_j, alpha)
                                     and normality_gate(b_j, alpha))
                          for a_j, b_j in zip(a, b)])
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
        loaded = data.load_model(path)
        for a, b in zip(params.all_layers(), loaded.all_layers()):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.activation == b.activation
        arrays, meta = data.load_container(path)
        assert np.array_equal(arrays["centroids"], centroids)
        assert meta["kind"] == "ae" and meta["note"] == "x"

    def test_vae_roundtrip(self, tmp_path):
        from derc.autoencoder import build_vae, encode

        params = build_vae([6, 4, 2], np.random.default_rng(0))
        path = tmp_path / "model.derc"
        data.save_model(path, params)
        loaded = data.load_model(path)
        x = np.random.default_rng(2).uniform(size=(3, 6))
        assert np.array_equal(encode(params, x), encode(loaded, x))
        assert data.load_container(path)[1]["kind"] == "vae"

    def test_c_ordered_float64_arrays_are_not_copied(self, tmp_path, monkeypatch):
        # every array derc writes reaches its layer as np.load made it
        path = tmp_path / "model.derc"
        data.save_model(path, self._model())
        arrays, meta = data.load_container(path)
        monkeypatch.setattr(data, "load_container", lambda p: (arrays, meta))
        loaded = data.load_model(path)
        for name, ly in zip(["enc0", "enc1", "dec0", "dec1"], loaded.all_layers()):
            assert np.shares_memory(ly.weights, arrays[f"{name}_w"])
            assert np.shares_memory(ly.bias, arrays[f"{name}_b"])

    @pytest.mark.parametrize("stored, dtype", [
        (np.asfortranarray, np.float64),
        (lambda a: a.astype(np.float32), np.float32),
        (lambda a: np.round(a * 10).astype(np.int64), np.float64),
        (lambda a: np.asfortranarray(np.abs(np.round(a * 10)).astype(np.uint8)), np.float64),
    ], ids=["fortran", "float32", "int64", "fortran-uint8"])
    def test_layer_arrays_load_c_ordered_and_floating(self, tmp_path, stored, dtype):
        # training updates the arrays in place (SgdMomentum needs C order)
        path = tmp_path / "model.derc"
        data.save_model(path, self._model())
        arrays, meta = data.load_container(path)
        data.save_container(path, {k: stored(a) for k, a in arrays.items()}, meta)
        stored_arrays, _ = data.load_container(path)
        loaded = data.load_model(path)
        for name, ly in zip(["enc0", "enc1", "dec0", "dec1"], loaded.all_layers()):
            for t, a in (("w", ly.weights), ("b", ly.bias)):
                assert a.flags.c_contiguous and a.dtype == dtype
                assert np.array_equal(a, stored_arrays[f"{name}_{t}"])

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

    @pytest.mark.parametrize("value, loads", [
        (1e308, True), (-1e308, True), (np.inf, False), (-np.inf, False), (np.nan, False)])
    def test_finite_weights_load_whose_sum_overflows(self, tmp_path, value, loads):
        # the check sums each array first: a sum of finite values that
        # overflows is told apart from one that holds an inf or a NaN
        params = self._model()
        params.encoder_layers[0].weights[:, :3] = value
        path = tmp_path / "model.derc"
        data.save_model(path, params)
        if loads:
            loaded = data.load_model(path)
            assert np.array_equal(loaded.encoder_layers[0].weights,
                                  params.encoder_layers[0].weights)
        else:
            with pytest.raises(ValidationError, match="model.derc: enc0_w holds a NaN"):
                data.load_model(path)

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

    def test_corrupt_member(self, tmp_path):
        # members are read from the file only when indexed: a flipped byte in
        # the first weights fails their CRC there, still as a ParseError
        path = tmp_path / "model.derc"
        params = self._model()
        data.save_model(path, params)
        raw = bytearray(path.read_bytes())
        raw[raw.find(params.encoder_layers[0].weights.tobytes())] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="corrupt.*CRC"):
            data.load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.derc"
        data.save_model(path, self._model())
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ParseError, match="truncated|corrupt"):
            data.load_model(path)

    def test_unknown_compression_method(self, tmp_path):
        path = tmp_path / "c.derc"
        data.save_container(path, dict(centroids=np.zeros((2, 4))), dict(kind="centroids"))
        set_compression_method(path, 99)
        with pytest.raises(ParseError, match="c.derc: truncated or corrupt.*not supported"):
            data.load_container(path)

    def test_deflate_data_corrupt(self, tmp_path):
        # a deflated archive loads; one that fails to decompress is corrupt
        path = tmp_path / "z.derc"
        arrays = dict(w=np.arange(6.0).reshape(2, 3))
        write_deflated_container(path, arrays, dict(kind="x"))
        stored, meta = data.load_container(path)
        assert np.array_equal(stored["w"], arrays["w"]) and meta == dict(kind="x")
        write_deflated_container(path, arrays, dict(kind="x"), corrupt=True)
        with pytest.raises(ParseError, match="z.derc: truncated or corrupt.*decompressing"):
            data.load_container(path)
