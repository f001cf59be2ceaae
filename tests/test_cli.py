import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import poison_last_step
from derc import data
from derc.autoencoder import encode
from derc.cli import main

FAST_PRETRAIN = ["--dims", "0,16,8", "--latent-dim", "8", "--epochs", "20"]


def run(args):
    return main([str(a) for a in args])


def synth_csv(tmp_path, name="synth.csv", seed=0, n=40, d=30, informative=8):
    ds = data.generate_synthetic(data.SynthSpec(
        n_samples=n, n_features=d, n_informative=informative, seed=seed))
    path = tmp_path / name
    data.save_csv(ds, path)
    return path, ds


def pipeline(tmp_path, seed=7, kind="ae", hidden="16,4"):
    """prescreen -> pretrain -> cluster-init -> train-derc -> evaluate.

    hidden are the --dims widths after the input width."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    raw, ds = synth_csv(tmp_path)
    filtered = tmp_path / "filtered.csv"
    model = tmp_path / "model.derc"
    cents = tmp_path / "centroids.derc"
    trained = tmp_path / "trained.derc"
    pred = tmp_path / "pred.csv"
    report = tmp_path / "report.txt"

    assert run(["prescreen", "--data", raw, "--out-data", filtered,
                "--out-report", tmp_path / "ps.csv",
                "--out-kept", tmp_path / "kept.txt"]) == 0
    width = len(data.load_csv(filtered).feature_ids)
    assert run(["pretrain", kind, "--data", filtered, "--out", model,
                "--history", tmp_path / "hist.csv", "--seed", seed,
                "--dims", f"{width},{hidden}", "--epochs", "20"]) == 0
    assert run(["cluster-init", "--model", model, "--data", filtered,
                "--out", cents, "--k", "2", "--restarts", "20",
                "--seed", seed]) == 0
    assert run(["train-derc", "--model", model, "--centroids", cents,
                "--data", filtered, "--out", trained, "--pred", pred,
                "--history", tmp_path / "derc_hist.csv",
                "--epochs", "10", "--seed", seed]) == 0
    assert run(["evaluate", "--pred", pred, "--data", filtered,
                "--out", report]) == 0
    return report, pred


class TestPipeline:
    def test_full_pipeline_runs(self, tmp_path):
        report, _ = pipeline(tmp_path)
        text = report.read_text()
        assert "ACC:" in text and "FP:" in text

    def test_vae_pipeline_runs(self, tmp_path):
        # train-derc clusters a VAE on its mean encoding
        pipeline(tmp_path, kind="vae")
        out = tmp_path / "latent.csv"
        assert run(["export-latent", "--model", tmp_path / "trained.derc",
                    "--data", tmp_path / "filtered.csv", "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 41
        _, _, meta = data.load_model(tmp_path / "trained.derc")
        assert meta["kind"] == "vae"

    def test_trunkless_vae_pipeline_runs(self, tmp_path):
        # with --dims d,latent both VAE heads read the input, so pretraining
        # keeps them dense; train-derc still holds the mean head in row space
        pipeline(tmp_path, kind="vae", hidden="4")
        params, _, _ = data.load_model(tmp_path / "trained.derc")
        assert len(params.encoder_layers) == 1 and params.logvar_head is not None
        pretrain = np.loadtxt(tmp_path / "hist.csv", delimiter=",", skiprows=1)
        derc = np.loadtxt(tmp_path / "derc_hist.csv", delimiter=",", skiprows=1)
        assert len(pretrain) == 20 and np.isfinite(pretrain[:, 1]).all()
        assert len(derc) and np.isfinite(derc).all()

    def test_pipeline_deterministic(self, tmp_path):
        report_a, pred_a = pipeline(tmp_path / "a", seed=7)
        report_b, pred_b = pipeline(tmp_path / "b", seed=7)
        assert report_a.read_bytes() == report_b.read_bytes()
        assert pred_a.read_bytes() == pred_b.read_bytes()

    def test_duplicate_columns_pruned(self, tmp_path):
        rng = np.random.default_rng(0)
        base = rng.uniform(size=(30, 5))
        values = np.hstack([base, base[:, :2]])  # 2 duplicate columns
        labels = np.repeat([0, 1], 15)
        values[:, 0] = np.clip(labels * 0.6 + 0.2 + rng.normal(0, 0.02, 30), 0, 1)
        ds = data.Dataset(values=values,
                          feature_ids=[f"f{i}" for i in range(7)],
                          sample_ids=[f"s{i}" for i in range(30)],
                          labels=labels)
        raw = tmp_path / "dup.csv"
        data.save_csv(ds, raw)
        filtered = tmp_path / "filtered.csv"
        assert run(["prescreen", "--data", raw, "--out-data", filtered,
                    "--out-report", tmp_path / "r.csv",
                    "--out-kept", tmp_path / "k.txt"]) == 0
        kept = (tmp_path / "k.txt").read_text().split()
        assert "f5" not in kept  # duplicate of f0 (higher index removed)


def _missing_file(tmp_path):
    return ["pretrain", "ae", "--data", tmp_path / "nope.csv",
            "--out", tmp_path / "m.derc"]


def _width_mismatch(tmp_path):
    raw, _ = synth_csv(tmp_path, d=30)
    other, _ = synth_csv(tmp_path, name="other.csv", d=20)
    model = tmp_path / "model.derc"
    assert run(["pretrain", "ae", "--data", raw, "--out", model,
                "--dims", "30,16,8", "--epochs", "2"]) == 0
    return ["export-latent", "--model", model, "--data", other,
            "--out", tmp_path / "z.csv"]


def _centroids_as_model(tmp_path):
    raw, _ = synth_csv(tmp_path)
    cents = tmp_path / "centroids.derc"
    data.save_container(cents, dict(centroids=np.zeros((2, 4))),
                        dict(kind="centroids", k=2))
    return ["export-latent", "--model", cents, "--data", raw,
            "--out", tmp_path / "z.csv"]


def _ae_container_without_layers(tmp_path):
    raw, _ = synth_csv(tmp_path)
    empty = tmp_path / "empty.derc"
    data.save_container(empty, {}, dict(kind="ae"))
    return ["export-latent", "--model", empty, "--data", raw,
            "--out", tmp_path / "z.csv"]


def _small_model(tmp_path):
    raw, _ = synth_csv(tmp_path)
    model = tmp_path / "model.derc"
    assert run(["pretrain", "ae", "--data", raw, "--out", model,
                "--dims", "30,16,4", "--epochs", "2"]) == 0
    return raw, model


def _model_as_centroids(tmp_path):
    raw, model = _small_model(tmp_path)
    return ["train-derc", "--model", model, "--centroids", model, "--data", raw,
            "--out", tmp_path / "t.derc", "--pred", tmp_path / "p.csv"]


def _prescreen_normality_alpha(tmp_path):
    raw, _ = synth_csv(tmp_path)
    return ["prescreen", "--data", raw, "--out-data", tmp_path / "f.csv",
            "--out-report", tmp_path / "r.csv", "--out-kept", tmp_path / "k.txt",
            "--normality-alpha", "5"]


def _pretrain_with(*flags):
    def argv(tmp_path):
        raw, _ = synth_csv(tmp_path)
        return ["pretrain", "ae", "--data", raw, "--out", tmp_path / "m.derc",
                "--dims", "30,16,4", "--epochs", "2", *flags]
    return argv


def _train_derc_with(*flags):
    def argv(tmp_path):
        raw, model = _small_model(tmp_path)
        cents = tmp_path / "c.derc"
        assert run(["cluster-init", "--model", model, "--data", raw,
                    "--out", cents, "--restarts", "2"]) == 0
        return ["train-derc", "--model", model, "--centroids", cents, "--data", raw,
                "--out", tmp_path / "t.derc", "--pred", tmp_path / "p.csv", *flags]
    return argv


def _pred_for_every_sample(n_clusters, extra=""):
    """A pred file with a line per sample of the 40-sample cohort, then extra."""
    def argv(tmp_path):
        raw, ds = synth_csv(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("sample_id,cluster\n" + "".join(
            f"{sid},{i % n_clusters}\n" for i, sid in enumerate(ds.sample_ids)) + extra)
        return ["evaluate", "--pred", pred, "--data", raw, "--out", tmp_path / "r.txt"]
    return argv


def _directory_as_data(tmp_path):
    return ["pretrain", "ae", "--data", tmp_path, "--out", tmp_path / "m.derc"]


def _bad_pred_line(line):
    def argv(tmp_path):
        raw, _ = synth_csv(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text(f"sample_id,cluster\n{line}\n")
        return ["evaluate", "--pred", pred, "--data", raw,
                "--out", tmp_path / "report.txt"]
    return argv


def _prescreen_file(name, content):
    """prescreen on a data file holding content (bytes), with a labels file."""
    def argv(tmp_path):
        path = tmp_path / name
        path.write_bytes(content)
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n")
        return ["prescreen", "--data", path, "--labels", labels,
                "--out-data", tmp_path / "f.csv", "--out-report", tmp_path / "r.csv",
                "--out-kept", tmp_path / "k.txt"]
    return argv


def _config_bytes(content):
    def argv(tmp_path):
        raw, _ = synth_csv(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(content)
        return ["pretrain", "ae", "--data", raw, "--out", tmp_path / "m.derc",
                "--config", cfg]
    return argv


def _pred_bytes(content):
    def argv(tmp_path):
        raw, _ = synth_csv(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_bytes(content)
        return ["evaluate", "--pred", pred, "--data", raw, "--out", tmp_path / "r.txt"]
    return argv


SERIES_HEADER = b'!series_matrix_table_begin\n"ID_REF"\t"GSM1"\t"GSM2"\n'

# bad input -> (argv builder, exit code, substrings of the one stderr line)
BAD_INPUTS = {
    "missing-file": (_missing_file, 2, ["nope.csv"]),
    "width-mismatch": (_width_mismatch, 2, ["30", "20"]),
    "centroids-as-model": (_centroids_as_model, 2, ["not a model"]),
    "directory-as-data": (_directory_as_data, 2, ["directory"]),
    "pred-three-fields": (_bad_pred_line("s0,1,2"), 2, ["pred.csv", "line 2"]),
    "pred-non-integer-cluster": (_bad_pred_line("s0,one"), 2, ["pred.csv", "line 2"]),
    "pred-duplicate-sample": (_bad_pred_line("s0,0\ns0,1"), 2,
                              ["pred.csv", "line 3", "'s0'", "line 2"]),
    "ae-container-without-layers": (_ae_container_without_layers, 2,
                                    ["empty.derc", "activations"]),
    "model-as-centroids": (_model_as_centroids, 2, ["model.derc", "no centroids"]),
    "pretrain-batch-size-zero": (_pretrain_with("--batch-size", "0"), 2,
                                 ["batch_size", ">= 1"]),
    "derc-epochs-negative": (_train_derc_with("--epochs", "-1"), 2, ["epochs", ">= 1"]),
    "more-clusters-than-classes": (_pred_for_every_sample(3), 2,
                                   ["[2]", "outside the label classes"]),
    "pred-unknown-sample": (_pred_for_every_sample(
        2, "".join(f"ghost{g},1\n" for g in range(7))), 2,
        ["pred.csv", "line 42", "not in the data", "'ghost0'", "'ghost4'"]),
    "prescreen-normality-alpha-above-one": (_prescreen_normality_alpha, 2,
                                            ["normality_alpha", "(0, 1)"]),
    "pretrain-negative-lr": (_pretrain_with("--lr", "-1", "--momentum", "3"), 2,
                             ["lr", "> 0", "-1.0"]),
    "pretrain-momentum-above-one": (_pretrain_with("--momentum", "3"), 2,
                                    ["momentum", "[0, 1)", "3.0"]),
    "derc-infinite-lr": (_train_derc_with("--lr", "inf"), 2, ["lr", "finite", "inf"]),
    "derc-momentum-one": (_train_derc_with("--momentum", "1"), 2,
                          ["momentum", "[0, 1)"]),
    "pretrain-validation-holds-out-all": (_pretrain_with("--validation-fraction", "0.99"),
                                          2, ["validation_fraction", "40 samples"]),
    "derc-non-finite-loss": (_train_derc_with("--lr", "1e200"), 3, ["non-finite loss"]),
    "csv-header-only": (_prescreen_file("h.csv", b"f1,f2\n"), 2,
                        ["h.csv", "0 samples"]),
    "series-matrix-without-probes": (_prescreen_file(
        "series_matrix.txt", SERIES_HEADER + b"!series_matrix_table_end\n"), 2,
        ["series_matrix.txt", "2 samples and 0 features"]),
    "csv-every-cell-missing": (_prescreen_file("na.csv", b"f1,f2\nNA,\n,NA\n"), 2,
                               ["na.csv", "every cell", "missing"]),
    "csv-not-utf8": (_prescreen_file("bad.csv", b"f1,f2\n0.5,0.\xff\n0.1,0.2\n"), 2,
                     ["bad.csv", "byte 12", "not UTF-8"]),
    "config-not-utf8": (_config_bytes(b"epochs = 2\n# caf\xe9\n"), 2,
                        ["run.cfg", "byte 16", "not UTF-8"]),
    "series-matrix-not-utf8": (_prescreen_file(
        "series_matrix.txt",
        SERIES_HEADER + b'"cg\xe92"\t0.1\t0.2\n!series_matrix_table_end\n'), 2,
        ["series_matrix.txt", "byte 53", "not UTF-8"]),
    "pred-not-utf8": (_pred_bytes(b"sample_id,cluster\ns\xff0,1\n"), 2,
                      ["pred.csv", "byte 19", "not UTF-8"]),
}


class TestErrors:
    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_one_line_error(self, case, tmp_path, capsys):
        make_argv, code, needles = BAD_INPUTS[case]
        argv = make_argv(tmp_path)
        capsys.readouterr()  # drop what building the inputs printed
        assert run(argv) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err

    def test_missing_labels_exit_2(self, tmp_path, capsys):
        ds = data.generate_synthetic(data.SynthSpec(n_samples=20, n_features=10,
                                                    n_informative=2, seed=0))
        ds.labels = None
        raw = tmp_path / "nolabel.csv"
        data.save_csv(ds, raw)
        code = run(["prescreen", "--data", raw, "--out-data", tmp_path / "f.csv",
                    "--out-report", tmp_path / "r.csv",
                    "--out-kept", tmp_path / "k.txt"])
        assert code == 2
        assert "label" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        assert run(["prescreen"]) == 1
        assert run(["no-such-command"]) == 1

    def test_out_of_range_value_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2\n0.5,1.5\n0.2,0.3\n")
        assert run(["pretrain", "ae", "--data", bad,
                    "--out", tmp_path / "m.derc"]) == 2

    def test_non_finite_loss_exit_3(self, tmp_path):
        # a fresh interpreter, so the stderr checked is exactly what a user sees
        raw, _ = synth_csv(tmp_path, n=24, d=12, informative=4)
        src = Path(data.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "derc.cli", "pretrain", "ae", "--data", str(raw),
             "--out", str(tmp_path / "m.derc"), "--dims", "12,8,4",
             "--epochs", "2", "--lr", "1e200"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 3
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "non-finite loss" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "m.derc").exists()

    def test_non_finite_parameter_exit_3(self, tmp_path, capsys, monkeypatch):
        argv = _train_derc_with("--epochs", "1")(tmp_path)
        capsys.readouterr()
        # 40 samples in batches of 8: the inf lands after the last loss
        calls = poison_last_step(monkeypatch, 5)
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert len(calls) == 5
        assert err.startswith("derc: numeric error: train-derc: non-finite value")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "t.derc").exists()


class TestUtilities:
    @pytest.mark.parametrize("modules, unloaded", [
        # importing scipy.stats takes about 0.8 s; the CLI needs none of it
        ("derc.cli", "scipy.stats"),
        # the prescreen path (load_series_matrix, discriminative_filter)
        # needs no linear algebra, and scipy.linalg would add to its start-up
        ("derc.data, derc.prescreen", "scipy.linalg"),
        # every CLI stage starts without scipy (about 0.5 s of import);
        # only the p-value helpers load scipy.special, on first use
        ("derc.cli", "scipy"),
        ("derc.autoencoder, derc.cluster, derc.kmeans, derc.metrics", "scipy"),
        ("derc.data, derc.prescreen", "scipy.special"),
    ], ids=["cli-scipy.stats", "prescreen-scipy.linalg", "cli-scipy",
            "training-scipy", "prescreen-scipy.special"])
    def test_import_leaves_scipy_module_unloaded(self, modules, unloaded):
        # `unloaded` names a module and, with it, every submodule of it
        src = Path(data.__file__).resolve().parents[1]
        check = (f"import sys, {modules}; loaded = [m for m in sys.modules "
                 f"if m == {unloaded!r} or m.startswith({unloaded + '.'!r})]; "
                 f"assert not loaded, loaded")
        proc = subprocess.run(
            [sys.executable, "-c", check],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    def test_synth_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["synth", "--out", a, "--n-samples", "25", "--n-features", "12",
                    "--n-informative", "4", "--seed", "3"]) == 0
        assert run(["synth", "--out", b, "--n-samples", "25", "--n-features", "12",
                    "--n-informative", "4", "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_export_latent_shape(self, tmp_path):
        raw, _ = synth_csv(tmp_path)
        model = tmp_path / "model.derc"
        out = tmp_path / "latent.csv"
        assert run(["pretrain", "ae", "--data", raw, "--out", model,
                    "--dims", "30,16,8", "--epochs", "3"]) == 0
        assert run(["export-latent", "--model", model, "--data", raw,
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_id," + ",".join(f"z{j}" for j in range(8))
        assert len(lines) == 41
        # every cell is a plain float literal that round-trips the encoding
        params, _, _ = data.load_model(model)
        z = encode(params, data.load_csv(raw).values)
        cells = np.array([[float(c) for c in ln.split(",")[1:]] for ln in lines[1:]])
        np.testing.assert_array_equal(cells, z)

    def test_config_file_overridden_by_flag(self, tmp_path):
        raw, _ = synth_csv(tmp_path, n=24, d=12, informative=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\ndims = 12,8,4\n")
        model = tmp_path / "m1.derc"
        assert run(["pretrain", "ae", "--data", raw, "--out", model,
                    "--config", cfg]) == 0
        hist = tmp_path / "h.csv"
        assert run(["pretrain", "ae", "--data", raw, "--out", tmp_path / "m2.derc",
                    "--config", cfg, "--epochs", "5", "--history", hist]) == 0
        assert len(hist.read_text().splitlines()) == 6  # header + 5 epochs

    def test_manifest_written(self, tmp_path):
        import json

        raw, _ = synth_csv(tmp_path, n=24, d=12, informative=4)
        model = tmp_path / "m.derc"
        assert run(["pretrain", "ae", "--data", raw, "--out", model,
                    "--dims", "12,8,4", "--epochs", "2"]) == 0
        manifest = json.loads((tmp_path / "m.derc.manifest.json").read_text())
        assert manifest["stage"] == "pretrain"
        assert str(raw) in manifest["inputs"]
        settings = manifest["settings"]
        assert settings["dims"] == [12, 8, 4]
        for key in ("momentum", "vae_recon_weight", "validation_fraction"):
            assert key in settings

        cents = tmp_path / "c.derc"
        assert run(["cluster-init", "--model", model, "--data", raw,
                    "--out", cents, "--k", "3", "--restarts", "2"]) == 0
        trained = tmp_path / "t.derc"
        assert run(["train-derc", "--model", model, "--centroids", cents,
                    "--data", raw, "--out", trained, "--pred", tmp_path / "p.csv",
                    "--epochs", "1"]) == 0
        manifest = json.loads((tmp_path / "t.derc.manifest.json").read_text())
        assert manifest["settings"]["k"] == 3


# stage argv without settings -> the settings, given once as flags and once as
# `key = value` lines of a --config file
CONFIGURED_STAGES = (
    (["prescreen", "--data", "raw.csv", "--out-data", "filtered.csv",
      "--out-report", "screen.csv", "--out-kept", "kept.txt"],
     {"alpha": "0.1", "rho-threshold": "0.95", "normality-alpha": "0.01"}),
    (["pretrain", "vae", "--data", "raw.csv", "--out", "vae.derc",
      "--history", "vae_hist.csv"],
     {"dims": "30,16,4", "epochs": "3", "lr": "0.5", "momentum": "0.1",
      "batch-size": "4", "vae-recon-weight": "0.6",
      "validation-fraction": "0.25", "seed": "5"}),
    (["cluster-init", "--model", "vae.derc", "--data", "raw.csv",
      "--out", "centroids.derc"],
     {"k": "2", "restarts": "5", "seed": "5"}),
    (["train-derc", "--model", "vae.derc", "--centroids", "centroids.derc",
      "--data", "raw.csv", "--out", "trained.derc", "--pred", "pred.csv",
      "--history", "derc_hist.csv"],
     {"beta": "0.5", "epochs": "2", "lr": "0.02", "momentum": "0.8",
      "batch-size": "4", "target-interval": "3", "seed": "5"}),
)


def _configured_run(root, as_config, monkeypatch):
    root.mkdir()
    synth_csv(root, name="raw.csv")
    # relative paths, so the manifests' input names match between the runs
    monkeypatch.chdir(root)
    for i, (argv, settings) in enumerate(CONFIGURED_STAGES):
        if as_config:
            cfg = root / f"stage{i}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
            extra = ["--config", cfg.name]
        else:
            extra = [f"--{k}={v}" for k, v in settings.items()]
        assert run([*argv, *extra]) == 0
    return {p.name: p.read_bytes() for p in root.iterdir() if p.suffix != ".cfg"}


class TestConfig:
    def test_flags_and_config_file_give_identical_outputs(self, tmp_path, monkeypatch):
        import json

        by_flags = _configured_run(tmp_path / "flags", False, monkeypatch)
        by_config = _configured_run(tmp_path / "config", True, monkeypatch)
        assert sorted(by_flags) == sorted(by_config)
        for name in by_flags:
            assert by_flags[name] == by_config[name], name
        settings = json.loads(by_config["vae.derc.manifest.json"])["settings"]
        assert settings["vae_recon_weight"] == 0.6
        assert settings["validation_fraction"] == 0.25
        settings = json.loads(by_config["filtered.csv.manifest.json"])["settings"]
        assert settings["normality_alpha"] == 0.01
        settings = json.loads(by_config["trained.derc.manifest.json"])["settings"]
        assert settings["target_interval"] == 3 and settings["seed"] == 5

    @pytest.mark.parametrize("line, key", [
        ("epochz = 1", "epochz"),        # unknown key
        ("epoch = 3", "epoch"),          # a prefix of --epochs
        ("epochs = two", "epochs"),      # malformed value
        ("dims = 12,x,4", "dims"),       # malformed list value
    ])
    def test_bad_config_line_exit_1(self, line, key, tmp_path, capsys):
        raw, _ = synth_csv(tmp_path, n=24, d=12, informative=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        model = tmp_path / "m.derc"
        capsys.readouterr()
        assert run(["pretrain", "ae", "--data", raw, "--out", model,
                    "--dims", "12,8,4", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"--{key}=" in err or f"--{key}:" in err
        assert "Traceback" not in err
        assert not model.exists()
        assert not (tmp_path / "m.derc.manifest.json").exists()

    def test_readme_round_trip(self, tmp_path):
        # the README's fenced round trip, verbatim, with `derc` as a shell function
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = next(b for b in readme.split("```sh\n")[1:] if "derc synth" in b)
        script = block.split("```", 1)[0]
        src = Path(data.__file__).resolve().parents[1]
        shim = f'derc() {{ "{sys.executable}" -m derc.cli "$@"; }}\n'
        proc = subprocess.run(
            ["bash", "-ec", shim + script],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert "ACC:" in (tmp_path / "report.txt").read_text()
        assert (tmp_path / "latent.csv").exists()
