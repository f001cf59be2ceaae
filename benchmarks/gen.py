"""Seeded input generator for the benchmark workloads.

The same seed always gives the same inputs. derc only ever sees what this
module writes (files) or returns (arrays):

- cli_small:      cohort.csv, samples x features with a trailing label column
- prescreen_wide: series_matrix.txt (GEO layout, probes x samples) and
                  labels.txt, one 0/1 label per sample
- train_paper:    an in-memory cohort, see paper_cohort()

Every file cohort has planted near-duplicate feature groups (|rho| >= 0.95
by construction, checked here) and a few missing cells. planted.json lists
the groups so the runner can check that prescreening removed them.

Usage: python3 benchmarks/gen.py --workload prescreen_wide --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from shapes import SIZES, WORKLOADS

DUP_NOISE = 0.02     # sd of the noise added to a group leader's values
DUP_MIN_RHO = 0.95


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _labels(rng, n_samples: int, n_class1: int) -> np.ndarray:
    labels = np.zeros(n_samples, dtype=int)
    labels[rng.choice(n_samples, size=n_class1, replace=False)] = 1
    return labels


def _informative(rng, values, labels, columns, shapes) -> None:
    for cls, (a, b) in enumerate(shapes):
        rows = np.nonzero(labels == cls)[0]
        values[np.ix_(rows, columns)] = rng.beta(a, b, size=(len(rows), len(columns)))


def _plant_duplicates(rng, values, free: list[int], n_groups: int) -> list[list[int]]:
    """Overwrite groups of 2-3 free columns with noisy copies of the lowest one."""
    groups = []
    for _ in range(n_groups):
        size = int(rng.integers(2, 4))
        group = sorted(free.pop() for _ in range(size))
        lead = values[:, group[0]]
        for j in group[1:]:
            values[:, j] = np.clip(lead + rng.normal(0.0, DUP_NOISE, size=len(lead)),
                                   0.0, 1.0)
        groups.append(group)
    return groups


def _check_duplicates(values, groups) -> None:
    rounded = np.round(values, 6)  # what the text files hold
    for group in groups:
        rho = np.corrcoef(rounded[:, group].T)[0, 1:]
        if np.min(np.abs(rho)) < DUP_MIN_RHO:
            raise RuntimeError(f"planted group {group} has |rho| {rho} < {DUP_MIN_RHO}")


def _cohort(workload, seed, n_samples, n_class1, n_features, n_informative,
            informative_shapes, n_dup_groups, n_missing):
    """Sample x feature beta values, labels, planted groups and missing cells."""
    rng = _rng(workload, seed)
    labels = _labels(rng, n_samples, n_class1)
    values = rng.beta(2.0, 2.0, size=(n_samples, n_features))
    order = [int(j) for j in rng.permutation(n_features)]
    _informative(rng, values, labels, sorted(order[:n_informative]), informative_shapes)
    free = order[n_informative:]
    groups = _plant_duplicates(rng, values, free, n_dup_groups)
    _check_duplicates(values, groups)
    # at most one missing cell per column, only in plain noise columns
    missing = [(int(rng.integers(n_samples)), free.pop()) for _ in range(n_missing)]
    return values, labels, groups, missing


def cli_cohort(seed: int, out_dir: Path, size: str = "full") -> None:
    s = SIZES[size]["cli_small"]
    values, labels, groups, missing = _cohort(
        "cli_small", seed, s["n_samples"], s["n_samples"] // 2, s["n_features"],
        s["n_informative"], ((2.0, 8.0), (8.0, 2.0)), s["n_dup_groups"], s["n_missing"])
    cells = [[f"{v:.6f}" for v in row] for row in values]
    for i, j in missing:
        cells[i][j] = ""
    with open(out_dir / "cohort.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(f"f{j}" for j in range(values.shape[1])) + ",label\n")
        for row, label in zip(cells, labels):
            fh.write(",".join(row) + f",{label}\n")
    _write_planted(out_dir, groups, [f"f{j}" for j in range(values.shape[1])])


def series_matrix(seed: int, out_dir: Path, size: str = "full") -> None:
    s = SIZES[size]["prescreen_wide"]
    values, labels, groups, missing = _cohort(
        "prescreen_wide", seed, s["n_samples"], s["n_class1"], s["n_probes"],
        s["n_informative"], ((2.0, 2.0), (4.0, 2.0)), s["n_dup_groups"], s["n_missing"])
    n, d = values.shape
    probes = [f"cg{j:08d}" for j in range(d)]
    samples = [f"GSM{1000000 + i}" for i in range(n)]
    cells = [[f"{v:.6f}" for v in col] for col in values.T]
    for k, (i, j) in enumerate(missing):
        cells[j][i] = "null" if k % 2 else ""
    with open(out_dir / "series_matrix.txt", "w", encoding="utf-8") as fh:
        fh.write(f'!Series_title\t"Synthetic methylation cohort, seed {seed}"\n')
        fh.write('!Series_platform_id\t"GPL8490"\n')
        fh.write("!Sample_geo_accession\t" + "\t".join(f'"{g}"' for g in samples) + "\n")
        fh.write("!series_matrix_table_begin\n")
        fh.write('"ID_REF"\t' + "\t".join(f'"{g}"' for g in samples) + "\n")
        for probe, row in zip(probes, cells):
            fh.write(f'"{probe}"\t' + "\t".join(row) + "\n")
        fh.write("!series_matrix_table_end\n")
    with open(out_dir / "labels.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{label}\n" for label in labels)
    _write_planted(out_dir, groups, probes)


def _write_planted(out_dir: Path, groups, ids) -> None:
    planted = {"duplicate_groups": [[ids[j] for j in g] for g in groups]}
    (out_dir / "planted.json").write_text(json.dumps(planted, indent=1) + "\n")


def paper_cohort(seed: int, size: str = "full"):
    """In-memory (values, labels) at the paper's sample count and width."""
    s = SIZES[size]["train_paper"]
    values, labels, _, _ = _cohort(
        "train_paper", seed, s["n_samples"], s["n_class1"], s["n_features"],
        s["n_informative"], ((2.0, 5.0), (5.0, 2.0)), 0, 0)
    return values, labels


def make_inputs(workload: str, seed: int, out_dir: Path, size: str = "full") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "cli_small":
        cli_cohort(seed, out_dir, size)
    elif workload == "prescreen_wide":
        series_matrix(seed, out_dir, size)
    # train_paper builds its cohort in memory, see paper_cohort()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w for w in WORKLOADS if w != "train_paper"],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args()
    make_inputs(args.workload, args.seed, args.out, args.size)


if __name__ == "__main__":
    main()
