"""Seeded mutations of every kind of input a stage reads: prescreen's cohort
CSV, labels file, config file and series matrix, evaluate's pred file,
pretrain's CSV, the model container that export-latent and cluster-init
read, and train-derc's centroid container.

Each case writes every input, one of them mutated, and runs the stages that
read it through cli.main: prescreen on the cohort CSV, or on the series
matrix when that is mutated, with the labels and config files; evaluate on
the pred file and the cohort; pretrain on its CSV; export-latent and
cluster-init on the model; train-derc on the model and the centroids.
Whatever the mutation, each command must end in a documented exit code (0,
1, 2 or 3), let no exception escape, and on exit 2 or 3 print exactly one
stderr line. Text inputs take every mutation, containers the byte ones.
The draws come from a generator seeded by the case's input and mutation, so
every run makes the same cases.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from derc import autoencoder, data
from derc.cli import main

# draws per (input, mutation) pair
CASES = 8

VALUES = np.random.default_rng(0).uniform(0.1, 0.9, size=(12, 5))
LABELS = np.arange(12) % 2


def cohort_csv() -> bytes:
    lines = ["f0,f1,f2,f3,f4,label"]
    lines += [",".join([*(f"{v:.3f}" for v in row), str(lab)])
              for row, lab in zip(VALUES, LABELS)]
    return ("\n".join(lines) + "\n").encode()


def pred_csv() -> bytes:
    """A prediction for every sample of cohort_csv(), which load_csv names s0..s11."""
    return b"sample_id,cluster\n" + b"".join(b"s%d,%d\n" % (i, i % 2) for i in range(12))


def series_matrix() -> bytes:
    """VALUES as a GEO series matrix: metadata, then a probe x sample table."""
    lines = ['!Series_title\t"mutated"', "!series_matrix_table_begin",
             "\t".join(['"ID_REF"', *(f'"GSM{i}"' for i in range(12))])]
    lines += ["\t".join([f'"cg{j}"', *(f"{v:.3f}" for v in col)])
              for j, col in enumerate(VALUES.T)]
    return ("\n".join([*lines, "!series_matrix_table_end"]) + "\n").encode()


def container(save) -> bytes:
    """The bytes save(path) writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.derc"
        save(path)
        return path.read_bytes()


PARAMS = autoencoder.build_ae([5, 4, 2], np.random.default_rng(1))


def centroids() -> bytes:
    """Two samples' codes as the centroids of PARAMS's latent."""
    codes = autoencoder.encode(PARAMS, VALUES)[[0, 1]]
    return container(lambda p: data.save_container(p, dict(centroids=codes),
                                                   dict(kind="centroids", k=2)))


# input -> (file name, unmutated content, column separator, None for a container)
INPUTS = {
    "csv": ("cohort.csv", cohort_csv(), b","),
    "labels": ("labels.txt", b"label\n" + b"".join(b"%d\n" % lab for lab in LABELS), b","),
    "config": ("run.cfg", b"# prescreen settings\nalpha = 0.05\nrho-threshold = 0.9\n"
                          b"normality-alpha = 0.05\nseed = 3\n", b"="),
    "pred": ("pred.csv", pred_csv(), b","),
    "series": ("series_matrix.txt", series_matrix(), b"\t"),
    "pretrain-csv": ("train.csv", cohort_csv(), b","),
    "model": ("model.derc", container(lambda p: data.save_model(p, PARAMS)), None),
    "centroids": ("centroids.derc", centroids(), None),
}


def commands(target, paths, out):
    """The argv of each command that reads the target input."""
    prescreen = ["prescreen", "--labels", paths["labels"], "--config", paths["config"],
                 "--out-data", out / "p.csv", "--out-report", out / "screen.csv",
                 "--out-kept", out / "kept.txt"]
    on_model = ["--model", paths["model"], "--data", paths["csv"]]
    return {
        "pred": [["evaluate", "--pred", paths["pred"], "--data", paths["csv"],
                  "--out", out / "report.txt"]],
        "series": [[*prescreen, "--data", paths["series"]]],
        "pretrain-csv": [["pretrain", "ae", "--data", paths["pretrain-csv"],
                          "--out", out / "m.derc", "--dims", "5,4,2", "--epochs", "1"]],
        "model": [["export-latent", *on_model, "--out", out / "z.csv"],
                  ["cluster-init", *on_model, "--out", out / "c.derc", "--restarts", "2"]],
        "centroids": [["train-derc", *on_model, "--centroids", paths["centroids"],
                       "--out", out / "t.derc", "--pred", out / "pred_out.csv",
                       "--epochs", "1"]],
    }.get(target, [[*prescreen, "--data", paths["csv"]]])


def _columns(content, sep, edit):
    """content with edit(cells) applied to the cells of every line."""
    return b"\n".join(sep.join(edit(line.split(sep))) for line in content.split(b"\n"))


def _cell(content, sep, rng, token):
    """content with one cell of one non-empty line replaced by token."""
    lines = content.split(b"\n")
    rows = [i for i, line in enumerate(lines) if line]
    if not rows:
        return content
    i = rows[rng.integers(len(rows))]
    cells = lines[i].split(sep)
    cells[rng.integers(len(cells))] = token
    lines[i] = sep.join(cells)
    return b"\n".join(lines)


def _width(content, sep):
    return len(content.split(b"\n")[0].split(sep))


def _drop_column(content, sep, rng):
    j = rng.integers(_width(content, sep))
    return _columns(content, sep, lambda cells: cells[:j] + cells[j + 1:])


def _duplicate_column(content, sep, rng):
    j = rng.integers(_width(content, sep))
    return _columns(content, sep, lambda cells: cells[:j + 1] + cells[j:])


def _invalid_utf8(content, sep, rng):
    at = rng.integers(len(content) + 1)
    return content[:at] + bytes([rng.choice([0x80, 0xc0, 0xfe, 0xff])]) + content[at:]


def _empty_table(content, sep, rng):
    """content with its table's rows removed: the lines through the column
    header (the first line, or in a series matrix the line after the begin
    marker) and the end marker are kept."""
    lines = content.split(b"\n")
    begin = next((i + 1 for i, line in enumerate(lines) if b"table_begin" in line), 0)
    return b"\n".join([*lines[:begin + 1], *(ln for ln in lines if b"table_end" in ln), b""])


def _span(content, rng):
    """A random run of 1 to 16 bytes within content, as (start, end)."""
    at = rng.integers(len(content))
    return at, min(len(content), at + rng.integers(1, 17))


def _overwrite(content, sep, rng):
    at, end = _span(content, rng)
    return content[:at] + rng.bytes(end - at) + content[end:]


def _delete(content, sep, rng):
    at, end = _span(content, rng)
    return content[:at] + content[end:]


MUTATIONS = {
    "truncate": lambda c, sep, rng: c[:rng.integers(len(c) + 1)],
    "drop-column": _drop_column,
    "duplicate-column": _duplicate_column,
    "nan-cell": lambda c, sep, rng: _cell(c, sep, rng, b"nan"),
    "inf-cell": lambda c, sep, rng: _cell(c, sep, rng, b"inf"),
    "out-of-range-cell": lambda c, sep, rng: _cell(c, sep, rng, b"1.5"),
    "invalid-utf8": _invalid_utf8,
    "crlf": lambda c, sep, rng: c.replace(b"\n", b"\r\n"),
    "bom": lambda c, sep, rng: b"\xef\xbb\xbf" + c,
    "empty": lambda c, sep, rng: b"",
    "empty-table": _empty_table,
    "overwrite": _overwrite,
    "delete": _delete,
}
BYTE_MUTATIONS = ("truncate", "empty", "overwrite", "delete")

PAIRS = [(target, mutation) for target, (_, _, sep) in INPUTS.items() for mutation in MUTATIONS
         if sep is not None or mutation in BYTE_MUTATIONS]


@pytest.mark.parametrize("target, mutation", PAIRS, ids=[f"{t}-{m}" for t, m in PAIRS])
def test_mutated_input_ends_in_a_documented_exit_code(target, mutation, tmp_path, capsys,
                                                      caplog):
    rng = np.random.default_rng([list(INPUTS).index(target), list(MUTATIONS).index(mutation)])
    for case in range(CASES):
        run_dir = tmp_path / str(case)
        run_dir.mkdir()
        paths = {}
        for name, (file_name, content, sep) in INPUTS.items():
            if name == target:
                content = MUTATIONS[mutation](content, sep, rng)
            paths[name] = run_dir / file_name
            paths[name].write_bytes(content)
        for argv in commands(target, paths, run_dir):
            caplog.clear()
            # an exception escaping main fails the test with its traceback
            code = main([str(a) for a in argv])
            # outside pytest each logged warning is a stderr line too
            err = capsys.readouterr().err.splitlines() + caplog.messages
            why = (case, argv[0], paths[target].read_bytes(), err)
            assert code in (0, 1, 2, 3), why
            if code in (2, 3):
                assert len(err) == 1, why
