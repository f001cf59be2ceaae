"""Seeded mutations of prescreen's three inputs: the cohort CSV, the labels
file and the config file.

Each case writes the three files, one of them mutated, and runs `derc
prescreen` on them through cli.main. Whatever the mutation, the command must
end in a documented exit code (0, 1, 2 or 3) and let no exception escape.
The draws come from a generator seeded by the case's input and mutation, so
every run makes the same cases.
"""

import numpy as np
import pytest

from derc.cli import main

# draws per (input, mutation) pair
CASES = 8


def cohort_csv() -> bytes:
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 0.9, size=(12, 5))
    labels = np.arange(12) % 2
    lines = ["f0,f1,f2,f3,f4,label"]
    lines += [",".join([*(f"{v:.3f}" for v in row), str(lab)])
              for row, lab in zip(values, labels)]
    return ("\n".join(lines) + "\n").encode()


# input -> (file name, unmutated content, column separator)
INPUTS = {
    "csv": ("cohort.csv", cohort_csv(), b","),
    "labels": ("labels.txt", b"label\n" + b"".join(b"%d\n" % (i % 2) for i in range(12)),
               b","),
    "config": ("run.cfg", b"# prescreen settings\nalpha = 0.05\nrho-threshold = 0.9\n"
                          b"normality-alpha = 0.05\nseed = 3\n", b"="),
}


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
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("target", INPUTS)
def test_mutated_input_ends_in_a_documented_exit_code(target, mutation, tmp_path):
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
        # an exception escaping main fails the test with its traceback
        code = main(["prescreen", "--data", str(paths["csv"]),
                     "--labels", str(paths["labels"]), "--config", str(paths["config"]),
                     "--out-data", str(run_dir / "p.csv"),
                     "--out-report", str(run_dir / "screen.csv"),
                     "--out-kept", str(run_dir / "kept.txt")])
        assert code in (0, 1, 2, 3), (case, paths[target].read_bytes())
