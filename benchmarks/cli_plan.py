"""The cli_small pipeline: one derc CLI invocation per stage, in user order.

The runner starts each stage as its own interpreter; the traced run calls
derc.cli.main in-process with the same arguments. Pretraining widths come
from kept.txt, because prescreening decides how many features survive.
"""

from __future__ import annotations

from pathlib import Path

STAGES = (
    "synth", "prescreen", "pretrain-ae", "pretrain-vae", "cluster-init-ae",
    "cluster-init-vae", "train-derc", "evaluate", "export-latent",
)
# files whose bytes must repeat exactly from pass to pass
COMPARED_OUTPUTS = ("pred.csv", "report.txt", "kept.txt")


def kept_count(out: Path) -> int:
    with open(out / "kept.txt", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def derived_dims(out: Path, s: dict) -> list[int]:
    """Layer widths for pretraining: surviving features, then the hidden stack."""
    return [kept_count(out), s["hidden"], s["latent"]]


def argv(stage: str, seed: int, inputs: Path, out: Path, s: dict) -> list[str]:
    """derc CLI arguments for one stage; call only after earlier stages ran."""
    common = ["--seed", str(seed)]
    filtered = str(out / "filtered.csv")
    if stage == "synth":
        return ["synth", "--out", str(out / "synth.csv"),
                "--n-samples", str(s["n_samples"]), "--n-features", str(s["n_features"]),
                "--n-informative", str(s["n_informative"]), *common]
    if stage == "prescreen":
        return ["prescreen", "--data", str(inputs / "cohort.csv"), "--out-data", filtered,
                "--out-report", str(out / "screen.csv"),
                "--out-kept", str(out / "kept.txt"), *common]
    if stage.startswith("pretrain-"):
        kind = stage.split("-")[1]
        dims = ",".join(map(str, derived_dims(out, s)))
        return ["pretrain", kind, "--data", filtered, "--out", str(out / f"{kind}.derc"),
                "--dims", dims, "--epochs", str(s["pretrain_epochs"]),
                "--batch-size", str(s["batch_size"]),
                "--history", str(out / f"{kind}_hist.csv"), *common]
    if stage.startswith("cluster-init-"):
        kind = stage.split("-")[2]
        return ["cluster-init", "--model", str(out / f"{kind}.derc"), "--data", filtered,
                "--out", str(out / f"{kind}_centroids.derc"), "--k", "2",
                "--restarts", str(s["restarts"]), *common]
    if stage == "train-derc":
        return ["train-derc", "--model", str(out / "ae.derc"),
                "--centroids", str(out / "ae_centroids.derc"), "--data", filtered,
                "--out", str(out / "trained.derc"), "--pred", str(out / "pred.csv"),
                "--epochs", str(s["derc_epochs"]), "--batch-size", str(s["batch_size"]),
                "--target-interval", str(s["target_interval"]),
                "--history", str(out / "derc_hist.csv"), *common]
    if stage == "evaluate":
        return ["evaluate", "--pred", str(out / "pred.csv"), "--data", filtered,
                "--out", str(out / "report.txt"), *common]
    if stage == "export-latent":
        return ["export-latent", "--model", str(out / "trained.derc"), "--data", filtered,
                "--out", str(out / "latent.csv"), *common]
    raise ValueError(f"unknown stage {stage!r}")


def report_acc(out: Path) -> float:
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("ACC:"):
            return float(line.split(":", 1)[1])
    raise ValueError("report.txt has no ACC line")


def check_outputs(out: Path, s: dict) -> list[tuple[str, bool, str]]:
    """Checks on one finished pass: (name, ok, detail)."""
    checks = []
    acc = report_acc(out)
    checks.append(("acc>=0.95", acc >= 0.95, f"acc {acc}"))
    with open(out / "synth.csv", encoding="utf-8") as fh:
        rows = [line.count(",") + 1 for line in fh]
    ok = len(rows) == s["n_samples"] + 1 and set(rows) == {s["n_features"] + 1}
    checks.append(("synth shape", ok, f"{len(rows)} lines, widths {sorted(set(rows))}"))
    with open(out / "latent.csv", encoding="utf-8") as fh:
        rows = [line.count(",") + 1 for line in fh]
    ok = len(rows) == s["n_samples"] + 1 and set(rows) == {s["latent"] + 1}
    checks.append(("latent shape", ok, f"{len(rows)} lines, widths {sorted(set(rows))}"))
    return checks


def read_outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in COMPARED_OUTPUTS}
