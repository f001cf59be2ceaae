import ast
import dataclasses
import importlib
import inspect
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (poison_last_step, set_compression_method, write_deflated_container,
                      write_series_matrix)
from derc import autoencoder, cluster, config, data, network, prescreen
from derc.autoencoder import encode
from derc.cli import main
from derc.errors import ValidationError

ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return main([str(a) for a in args])


def run_child(args, setup="", env=None, cwd=None):
    """derc.cli.main on args in a fresh interpreter, as the installed `derc`
    script runs it (main reads sys.argv), after the statements setup, which
    run before numpy loads."""
    script = f"import sys\n{setup}\nfrom derc.cli import main\nsys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], cwd=cwd,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **(env or {})})


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
        _, meta = data.load_container(tmp_path / "trained.derc")
        assert meta["kind"] == "vae"

    def test_trunkless_vae_pipeline_runs(self, tmp_path):
        # with --dims d,latent both VAE heads read the input, so pretraining
        # keeps them dense; train-derc still holds the mean head in row space
        pipeline(tmp_path, kind="vae", hidden="4")
        params = data.load_model(tmp_path / "trained.derc")
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


def _model_meta(raw):
    """export-latent on a model container whose __meta__ record holds the
    bytes raw, or that has no such record when raw is None."""
    def argv(tmp_path):
        path, _ = synth_csv(tmp_path)
        arrays = {"enc0_w": np.zeros((4, 30))}
        if raw is not None:
            arrays["__meta__"] = np.frombuffer(raw, dtype=np.uint8)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        model = tmp_path / "meta.derc"
        model.write_bytes(data.CONTAINER_MAGIC + struct.pack("<I", data.CONTAINER_VERSION)
                          + buf.getvalue())
        return ["export-latent", "--model", model, "--data", path, "--out", tmp_path / "z.csv"]
    return argv


def _npy_payload(tmp_path):
    """export-latent on a container whose payload is one .npy array."""
    raw, _ = synth_csv(tmp_path)
    buf = io.BytesIO()
    np.save(buf, np.zeros((4, 30)))
    model = tmp_path / "npy.derc"
    model.write_bytes(data.CONTAINER_MAGIC + struct.pack("<I", data.CONTAINER_VERSION)
                      + buf.getvalue())
    return ["export-latent", "--model", model, "--data", raw, "--out", tmp_path / "z.csv"]


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


def _model_with(stage="export-latent", **arrays):
    """stage (export-latent or cluster-init) on the 30-16-4 AE with some of
    its arrays replaced by arrays' values, each a function of the array it
    replaces."""
    def argv(tmp_path):
        raw, model = _small_model(tmp_path)
        stored, meta = data.load_container(model)
        data.save_container(model, {**stored, **{k: f(stored[k]) for k, f in arrays.items()}},
                            meta)
        return [stage, "--model", model, "--data", raw, "--out", tmp_path / "out"]
    return argv


def _model_without(name):
    """export-latent on the 30-16-4 AE with its array name removed."""
    def argv(tmp_path):
        raw, model = _small_model(tmp_path)
        stored, meta = data.load_container(model)
        del stored[name]
        data.save_container(model, stored, meta)
        return ["export-latent", "--model", model, "--data", raw, "--out", tmp_path / "z.csv"]
    return argv


def _set(index, value):
    """A function of an array: a copy of it with value at index."""
    def f(a):
        a = a.copy()
        a[index] = value
        return a
    return f


def _one_nan(a):
    a = a.copy()
    a.flat[7] = np.nan
    return a


def _model_activations(record):
    """export-latent on the 30-16-4 AE with record as its activations record."""
    def argv(tmp_path):
        raw, model = _small_model(tmp_path)
        stored, meta = data.load_container(model)
        data.save_container(model, stored, {**meta, "activations": record})
        return ["export-latent", "--model", model, "--data", raw, "--out", tmp_path / "z.csv"]
    return argv


def _vae_head_wider_than_mean(tmp_path):
    raw, _ = synth_csv(tmp_path)
    model = tmp_path / "vae.derc"
    assert run(["pretrain", "vae", "--data", raw, "--out", model,
                "--dims", "30,16,4", "--epochs", "1"]) == 0
    stored, meta = data.load_container(model)
    stored["lv0_w"] = np.zeros((5, 16))
    stored["lv0_b"] = np.zeros(5)
    data.save_container(model, stored, meta)
    return ["cluster-init", "--model", model, "--data", raw, "--out", tmp_path / "c.derc"]


def _centroids_array(centroids):
    """train-derc on the 30-16-4 AE with a centroid container holding centroids."""
    def argv(tmp_path):
        raw, model = _small_model(tmp_path)
        cents = tmp_path / "c.derc"
        data.save_container(cents, dict(centroids=centroids), dict(kind="centroids"))
        return ["train-derc", "--model", model, "--centroids", cents, "--data", raw,
                "--out", tmp_path / "t.derc", "--pred", tmp_path / "p.csv"]
    return argv


def _centroids_unknown_compression(tmp_path):
    argv = _centroids_array(np.zeros((2, 4)))(tmp_path)
    set_compression_method(tmp_path / "c.derc", 99)
    return argv


def _diverging_vae(tmp_path):
    # the epoch means grow about 1e11-fold an epoch, and stay finite for 5 epochs
    raw, _ = synth_csv(tmp_path, d=300, informative=20)
    return ["pretrain", "vae", "--data", raw, "--out", tmp_path / "v.derc",
            "--dims", "300,64", "--epochs", "5"]


def _collapsed_latent(tmp_path):
    # a latent layer with zero weights and bias maps every sample to the origin
    raw, model = _small_model(tmp_path)
    params = data.load_model(model)
    params.encoder_layers[-1].weights[:] = 0.0
    params.encoder_layers[-1].bias[:] = 0.0
    data.save_model(model, params)
    return ["cluster-init", "--model", model, "--data", raw, "--out", tmp_path / "c.derc"]


def _prescreen_normality_alpha(tmp_path):
    raw, _ = synth_csv(tmp_path)
    return ["prescreen", "--data", raw, "--out-data", tmp_path / "f.csv",
            "--out-report", tmp_path / "r.csv", "--out-kept", tmp_path / "k.txt",
            "--normality-alpha", "5"]


def _prescreen_one_class(tmp_path):
    raw, ds = synth_csv(tmp_path)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n" * ds.n_samples)
    return ["prescreen", "--data", raw, "--labels", labels, "--out-data", tmp_path / "f.csv",
            "--out-report", tmp_path / "r.csv", "--out-kept", tmp_path / "k.txt"]


def _prescreen_with(*flags):
    def argv(tmp_path):
        raw, _ = synth_csv(tmp_path)
        return ["prescreen", "--data", raw, "--out-data", tmp_path / "f.csv",
                "--out-report", tmp_path / "r.csv", "--out-kept", tmp_path / "k.txt", *flags]
    return argv


def _export_latent_with(*flags):
    def argv(tmp_path):
        raw, model = _small_model(tmp_path)
        return ["export-latent", "--model", model, "--data", raw,
                "--out", tmp_path / "z.csv", *flags]
    return argv


def _pretrain_with(*flags, kind="ae"):
    def argv(tmp_path):
        raw, _ = synth_csv(tmp_path)
        return ["pretrain", kind, "--data", raw, "--out", tmp_path / "m.derc",
                "--dims", "30,16,4", "--epochs", "2", *flags]
    return argv


def _cluster_init_with(*flags):
    def argv(tmp_path):
        raw, model = _small_model(tmp_path)
        return ["cluster-init", "--model", model, "--data", raw,
                "--out", tmp_path / "c.derc", *flags]
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


def _pred_for_every_sample(n_clusters, extra="", flags=()):
    """evaluate, with flags, on a pred file with a line per sample of the
    40-sample cohort, then extra."""
    def argv(tmp_path):
        raw, ds = synth_csv(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("sample_id,cluster\n" + "".join(
            f"{sid},{i % n_clusters}\n" for i, sid in enumerate(ds.sample_ids)) + extra)
        return ["evaluate", "--pred", pred, "--data", raw, "--out", tmp_path / "r.txt",
                *flags]
    return argv


def _synth_with(*flags):
    def argv(tmp_path):
        return ["synth", "--out", tmp_path / "s.csv", *flags]
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


def _prescreen_file(name, content, labels_text="0\n1\n"):
    """prescreen on a data file holding content (bytes), with a labels file
    holding labels_text unless that is None."""
    def argv(tmp_path):
        path = tmp_path / name
        path.write_bytes(content)
        labels = []
        if labels_text is not None:
            (tmp_path / "labels.txt").write_text(labels_text)
            labels = ["--labels", tmp_path / "labels.txt"]
        return ["prescreen", "--data", path, *labels,
                "--out-data", tmp_path / "f.csv", "--out-report", tmp_path / "r.csv",
                "--out-kept", tmp_path / "k.txt"]
    return argv


def _prescreen_labels(content):
    """prescreen on the 40-sample cohort with a --labels file holding content."""
    def argv(tmp_path):
        raw, _ = synth_csv(tmp_path)
        labels = tmp_path / "labels.txt"
        labels.write_text(content)
        return ["prescreen", "--data", raw, "--labels", labels,
                "--out-data", tmp_path / "f.csv", "--out-report", tmp_path / "r.csv",
                "--out-kept", tmp_path / "k.txt"]
    return argv


def _pred_first_cluster(token):
    """evaluate on a pred file for the 40-sample cohort that gives each
    sample its own label as cluster id, but the first sample token."""
    def argv(tmp_path):
        raw, ds = synth_csv(tmp_path)
        pred = tmp_path / "pred.csv"
        ids = [token, *map(str, ds.labels[1:])]
        pred.write_text("sample_id,cluster\n" + "".join(
            f"{sid},{cid}\n" for sid, cid in zip(ds.sample_ids, ids)), encoding="utf-8")
        return ["evaluate", "--pred", pred, "--data", raw, "--out", tmp_path / "r.txt"]
    return argv


def _after_dropped_probe(stage, n_in=1, zero=False, centroids=None):
    """stage (export-latent, cluster-init or train-derc) on ALL_MISSING_PROBE,
    which loads 1 feature wide, with an AE of widths n_in-2, its encoder all
    zeros if zero, and for train-derc a container holding centroids."""
    def argv(tmp_path):
        sm = tmp_path / "series_matrix.txt"
        sm.write_bytes(ALL_MISSING_PROBE)
        params = autoencoder.build_ae([n_in, 2], np.random.default_rng(0))
        if zero:
            for layer in params.encoder_layers:
                layer.weights[:] = 0.0
                layer.bias[:] = 0.0
        model = tmp_path / "model.derc"
        data.save_model(model, params)
        flags = [stage, "--model", model, "--data", sm, "--out", tmp_path / "out"]
        if centroids is None:
            return flags
        data.save_container(tmp_path / "c.derc", dict(centroids=centroids),
                            dict(kind="centroids"))
        return [*flags, "--centroids", tmp_path / "c.derc", "--pred", tmp_path / "p.csv"]
    return argv


def _evaluate_after_dropped_probe(pred_text):
    """evaluate on ALL_MISSING_PROBE, labelled 0 1 1, with a pred file holding pred_text."""
    def argv(tmp_path):
        sm = tmp_path / "series_matrix.txt"
        sm.write_bytes(ALL_MISSING_PROBE)
        (tmp_path / "labels.txt").write_text("0\n1\n1\n")
        (tmp_path / "pred.csv").write_text(pred_text)
        return ["evaluate", "--pred", tmp_path / "pred.csv", "--data", sm,
                "--labels", tmp_path / "labels.txt", "--out", tmp_path / "r.txt"]
    return argv


def _model_bytes(name, make):
    """export-latent on the 30-wide cohort with a model file written by make(path)."""
    def argv(tmp_path):
        raw, _ = synth_csv(tmp_path)
        model = tmp_path / name
        make(model)
        return ["export-latent", "--model", model, "--data", raw, "--out", tmp_path / "z.csv"]
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
# four samples, the third repeating the second's id; prescreen on it with
# the labels 0 0 1 1 otherwise exits 0
REPEATED_SAMPLE = (b'!series_matrix_table_begin\n"ID_REF"\t"GSM1"\t"GSM2"\t"GSM2"\t"GSM3"\n'
                   b'"cg1"\t0.1\t0.2\t0.7\t0.8\n"cg2"\t0.5\t0.3\t0.4\t0.6\n'
                   b'!series_matrix_table_end\n')

# three samples, the probe cg2 all missing
ALL_MISSING_PROBE = (b'!series_matrix_table_begin\n"ID_REF"\t"GSM1"\t"GSM2"\t"GSM3"\n'
                     b'"cg1"\t0.1\t0.2\t0.7\n"cg2"\tnull\tnull\tnull\n'
                     b'!series_matrix_table_end\n')

# bad input -> (argv builder, exit code, substrings of the one stderr line)
BAD_INPUTS = {
    "missing-file": (_missing_file, 2, ["nope.csv"]),
    "width-mismatch": (_width_mismatch, 2, ["30", "20", "model.derc", "other.csv"]),
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
    "prescreen-one-class-labels": (_prescreen_one_class, 2,
                                   ["40 samples of class 0", "0 of class 1",
                                    "--data ", "synth.csv", "--labels ", "labels.txt"]),
    "pretrain-negative-lr": (_pretrain_with("--lr", "-1", "--momentum", "3"), 2,
                             ["lr", "> 0", "-1.0"]),
    "pretrain-momentum-above-one": (_pretrain_with("--momentum", "3"), 2,
                                    ["momentum", "[0, 1)", "3.0"]),
    "derc-infinite-lr": (_train_derc_with("--lr", "inf"), 2, ["lr", "finite", "inf"]),
    "derc-momentum-one": (_train_derc_with("--momentum", "1"), 2,
                          ["momentum", "[0, 1)"]),
    "derc-beta-nan": (_train_derc_with("--beta", "nan"), 2, ["beta", "finite", "nan"]),
    "derc-beta-inf": (_train_derc_with("--beta", "inf"), 2, ["beta", "finite", "inf"]),
    "derc-stop-delta-nan": (_train_derc_with("--stop-delta", "nan"), 2,
                            ["stop_delta", "[0, 1]", "nan"]),
    "pretrain-validation-holds-out-all": (_pretrain_with("--validation-fraction", "0.99"),
                                          2, ["validation_fraction", "40 samples",
                                              "--data ", "synth.csv"]),
    "pretrain-validation-fraction-above-one": (
        _pretrain_with("--validation-fraction", "1.5"), 2, ["validation_fraction", "[0, 1)"]),
    "pretrain-vae-recon-weight-above-one": (
        _pretrain_with("--vae-recon-weight", "2", kind="vae"), 2,
        ["vae_recon_weight", "[0, 1]"]),
    "pretrain-dims-input-width-unlike-data": (_pretrain_with("--dims", "20,8,2"), 2,
                                              ["input width 20", "data width 30",
                                               "--data ", "synth.csv"]),
    "pretrain-dims-latent-not-below-input": (_pretrain_with("--dims", "30,40"), 2,
                                             ["latent dim 40 must be smaller than "
                                              "input dim 30", "--data ", "synth.csv"]),
    "derc-target-interval-zero": (_train_derc_with("--target-interval", "0"), 2,
                                  ["target_interval", ">= 1"]),
    "cluster-init-restarts-zero": (_cluster_init_with("--restarts", "0"), 2,
                                   ["restarts", ">= 1"]),
    "cluster-init-k-zero": (_cluster_init_with("--k", "0"), 2, ["k must be >= 1"]),
    "cluster-init-k-above-samples": (_cluster_init_with("--k", "41"), 2,
                                     ["need at least k=41 samples, got 40 (--model ",
                                      "model.derc, --data ", "synth.csv)"]),
    "prescreen-alpha-zero": (_prescreen_with("--alpha", "0"), 2, ["alpha", "(0, 1)"]),
    "prescreen-rho-threshold-zero": (_prescreen_with("--rho-threshold", "0"), 2,
                                     ["rho_threshold", "(0, 1]"]),
    "prescreen-two-samples": (_prescreen_file("two.csv", b"f1,f2\n0.5,0.2\n0.1,0.3\n"), 2,
                              ["two.csv", "2 samples", "at least 3 samples"]),
    "config-line-without-equals": (_config_bytes(b"epochs = 2\nepochs 3\n"), 2,
                                   ["run.cfg:2", "expected 'key = value'", "'epochs 3\\n'"]),
    "derc-non-finite-loss": (_train_derc_with("--lr", "1e200"), 3, ["non-finite loss"]),
    "pretrain-vae-diverging": (_diverging_vae, 3,
                               ["numeric error: pretrain vae: epoch 1", "diverges"]),
    "model-layers-do-not-chain": (_model_with(enc1_w=lambda w: w[:4, :5]), 2,
                                  ["model.derc", "enc1_w", "(4, 5)", "read 16 inputs"]),
    "model-weight-1d": (_model_with(enc0_w=lambda w: w[0]), 2,
                        ["model.derc", "enc0_w", "(30,)", "2-D"]),
    "model-weight-strings": (_model_with(enc0_w=lambda w: np.full(w.shape, "a")), 2,
                             ["model.derc", "enc0_w", "<U1", "not real numbers"]),
    "model-bias-complex": (_model_with(dec1_b=lambda b: b + 1j), 2,
                           ["model.derc", "dec1_b", "complex128", "not real numbers"]),
    "model-weight-nan": (_model_with("cluster-init", enc0_w=_one_nan), 2,
                         ["model.derc", "enc0_w", "NaN or an inf"]),
    "model-lacks-an-array": (_model_without("enc1_b"), 2,
                             ["model.derc", "ae model container lacks 'enc1_b'"]),
    "model-bias-too-short": (_model_with(dec0_b=lambda b: b[:1]), 2,
                             ["model.derc", "dec0_b", "(1,)", "16 outputs"]),
    "model-encoder-misses-latent-dim": (
        _model_with(enc1_w=lambda w: w[:3], enc1_b=lambda b: b[:3],
                    dec0_w=lambda w: w[:, :3]), 2,
        ["model.derc", "enc1_w", "(3, 16)", "latent_dim 4"]),
    "model-activations-not-object": (_model_activations(["relu"]), 2,
                                     ["model.derc", "activations", "['relu']"]),
    "model-activations-stack-not-list": (_model_activations({"enc": 3, "dec": ["relu"]}), 2,
                                         ["model.derc", "activations", "'enc': 3"]),
    "model-unknown-activation": (_model_activations(
        {"enc": ["tanh", "relu"], "dec": ["relu", "sigmoid"]}), 2, ["model.derc", "'tanh'"]),
    "vae-head-shape": (_vae_head_wider_than_mean, 2,
                       ["vae.derc", "lv0_w", "(5, 16)", "(4, 16)"]),
    "centroids-1d": (_centroids_array(np.zeros(4)), 2, ["c.derc", "shape (4,)", "k x 4"]),
    "centroids-0d": (_centroids_array(np.float64(1.0)), 2, ["c.derc", "shape ()", "k x 4"]),
    "centroids-3d": (_centroids_array(np.zeros((2, 4, 1))), 2,
                     ["c.derc", "shape (2, 4, 1)", "k x 4"]),
    "centroids-strings": (_centroids_array(np.full((2, 4), "a")), 2,
                          ["c.derc", "<U1", "numeric"]),
    "centroids-wrong-width": (_centroids_array(np.zeros((2, 3))), 2,
                              ["c.derc", "shape (2, 3)", "k x 4"]),
    "centroids-nan": (_centroids_array(_one_nan(np.zeros((2, 4)))), 2,
                      ["c.derc", "centroids", "NaN or an inf"]),
    "centroids-inf": (_centroids_array(np.array([[0.0, 0, 0, 0], [1, 1, 1, np.inf]])), 2,
                      ["c.derc", "centroids", "NaN or an inf"]),
    "centroids-no-rows": (_centroids_array(np.zeros((0, 4))), 2,
                          ["c.derc", "shape (0, 4)", "k x 4"]),
    # finite weights whose products overflow: the latent holds infs and NaNs
    "cluster-init-non-finite-latent": (_model_with(
        "cluster-init", enc0_w=_set((slice(None), 0), 1e200), enc1_w=_set(0, 1e200)), 3,
        ["numeric error: k-means points hold a NaN or an inf",
         "--model ", "model.derc", "--data ", "synth.csv"]),
    "export-latent-non-finite-latent": (_model_with(
        enc0_w=_set((slice(None), 0), 1e200), enc1_w=_set(0, 1e200)), 3,
        ["numeric error: export-latent: the latent matrix holds a NaN or an inf",
         "--model ", "model.derc", "--data ", "synth.csv"]),
    "cluster-init-collapsed-latent": (_collapsed_latent, 3,
                                      ["numeric error: degenerate cluster",
                                       "1 distinct point(s) among 40", "k=2",
                                       "--model ", "model.derc", "--data ", "synth.csv"]),
    "centroids-more-than-samples": (_centroids_array(np.zeros((41, 4))), 2,
                                    ["k=41 exceeds sample count 40",
                                     "--centroids ", "c.derc", "--data ", "synth.csv"]),
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
    "model-meta-missing": (_model_meta(None), 2, ["meta.derc", "no __meta__"]),
    "model-meta-not-utf8": (_model_meta(b'{"kind": "a\xffe"}'), 2,
                            ["meta.derc", "meta byte 11", "not UTF-8"]),
    "model-meta-not-json": (_model_meta(b'{"kind": ae}'), 2,
                            ["meta.derc", "not JSON", "column 10"]),
    "model-meta-not-object": (_model_meta(b'["ae"]'), 2, ["meta.derc", "not an object"]),
    "model-npy-payload": (_npy_payload, 2, ["npy.derc", "one .npy array"]),
    "pretrain-negative-width": (_pretrain_with("--dims", "30,8,-2"), 2,
                                ["layer width -2", "position 2", "[30, 8, -2]"]),
    "pretrain-zero-width": (_pretrain_with("--dims", "30,0,2"), 2,
                            ["layer width 0", "position 1", "[30, 0, 2]"]),
    "synth-no-samples": (_synth_with("--n-samples", "0"), 2,
                         ["n_samples 0", "classes of 0 and 0", "at least 1"]),
    "synth-one-class": (_synth_with("--n-samples", "1"), 2,
                        ["n_samples 1", "classes of 1 and 0", "at least 1"]),
    "synth-no-features": (_synth_with("--n-features", "0", "--n-informative", "0"), 2,
                          ["n_features", ">= 1", "got 0"]),
    "synth-negative-informative": (_synth_with("--n-informative", "-1"), 2,
                                   ["n_informative", ">= 0", "got -1"]),
    "synth-negative-seed": (_synth_with("--seed", "-1"), 2, ["seed", ">= 0", "got -1"]),
    "pretrain-negative-seed": (_pretrain_with("--seed", "-1"), 2, ["seed", ">= 0", "got -1"]),
    "cluster-init-negative-seed": (_cluster_init_with("--seed", "-2"), 2,
                                   ["seed", ">= 0", "got -2"]),
    "derc-negative-seed": (_train_derc_with("--seed", "-1"), 2, ["seed", ">= 0", "got -1"]),
    "prescreen-negative-seed": (_prescreen_with("--seed", "-1"), 2, ["seed", ">= 0", "got -1"]),
    "evaluate-negative-seed": (_pred_for_every_sample(2, flags=("--seed", "-3")), 2,
                               ["seed", ">= 0", "got -3"]),
    "export-latent-negative-seed": (_export_latent_with("--seed", "-1"), 2,
                                    ["seed", ">= 0", "got -1"]),
    "evaluate-positive-label-above-classes": (
        _pred_for_every_sample(2, flags=("--positive-label", "5")), 2,
        ["positive label 5", "0..1"]),
    "evaluate-positive-label-negative": (
        _pred_for_every_sample(2, flags=("--positive-label", "-1")), 2,
        ["positive label -1", "0..1"]),
    # the name is the first field of the report's unquoted CSV row
    "evaluate-method-with-comma": (_pred_for_every_sample(2, flags=("--method", "a,b")), 2,
                                   ["--method 'a,b'", "CSV row"]),
    "evaluate-method-with-quote": (_pred_for_every_sample(2, flags=("--method", 'a"b')), 2,
                                   ["--method 'a\"b'", "CSV row"]),
    "evaluate-method-with-cr": (_pred_for_every_sample(2, flags=("--method", "a\rb")), 2,
                                ["--method 'a\\rb'", "CSV row"]),
    "evaluate-method-with-lf": (_pred_for_every_sample(2, flags=("--method", "a\nb")), 2,
                                ["--method 'a\\nb'", "CSV row"]),
    "series-matrix-repeated-sample": (_prescreen_file(
        "series_matrix.txt", REPEATED_SAMPLE, "0\n0\n1\n1\n"), 2,
        ["series_matrix.txt", "sample id 'GSM2'", "repeats"]),
    "labels-too-few": (_prescreen_labels("0\n1\n"), 2,
                       ["labels.txt", "2 labels for 40 samples"]),
    "labels-not-integer": (_prescreen_labels("yes\n" * 40), 2,
                           ["labels.txt", "integer 0/1"]),
    "labels-not-binary": (_prescreen_labels("0\n1\n2\n" + "0\n" * 37), 2,
                          ["labels.txt", "binary 0/1"]),
    "labels-plus-sign": (_prescreen_labels("+1\n" + "0\n" * 39), 2,
                         ["labels.txt", "line 1", "binary 0/1", "'+1'"]),
    "labels-underscore": (_prescreen_labels("0\n0_1\n" + "1\n" * 38), 2,
                          ["labels.txt", "line 2", "binary 0/1", "'0_1'"]),
    # the all-missing probe cg2 is dropped, and noted only once a command
    # has succeeded, so each of these prints its one error alone
    "series-matrix-dropped-probe-labels-too-few": (_prescreen_file(
        "series_matrix.txt", ALL_MISSING_PROBE, "0\n1\n"), 2,
        ["labels.txt", "2 labels for 3 samples"]),
    "series-matrix-dropped-probe-labels-plus-sign": (_prescreen_file(
        "series_matrix.txt", ALL_MISSING_PROBE, "0\n1\n+1\n"), 2,
        ["labels.txt", "line 3", "binary 0/1", "'+1'"]),
    "series-matrix-dropped-probe-no-labels": (_prescreen_file(
        "series_matrix.txt", ALL_MISSING_PROBE, None), 2,
        ["series_matrix.txt", "labels are required"]),
    "series-matrix-dropped-probe-one-class-labels": (_prescreen_file(
        "series_matrix.txt", ALL_MISSING_PROBE, "0\n0\n0\n"), 2,
        ["3 samples of class 0", "0 of class 1", "--data ", "series_matrix.txt",
         "--labels ", "labels.txt"]),
    "series-matrix-dropped-probe-pred-misses-a-sample": (_evaluate_after_dropped_probe(
        "sample_id,cluster\nGSM1,0\nGSM2,1\n"), 2,
        ["pred.csv", "missing predictions", "'GSM3'"]),
    "series-matrix-dropped-probe-model-too-wide": (_after_dropped_probe(
        "export-latent", n_in=3), 2,
        ["model.derc", "expects 3 features", "series_matrix.txt has 1"]),
    "series-matrix-dropped-probe-centroids-nan": (_after_dropped_probe(
        "train-derc", centroids=np.array([[np.nan, 0.0], [1.0, 1.0]])), 2,
        ["c.derc", "NaN or an inf"]),
    "series-matrix-dropped-probe-collapsed-latent": (_after_dropped_probe(
        "cluster-init", zero=True), 3,
        ["numeric error: degenerate cluster", "1 distinct point(s) among 3",
         "--model ", "model.derc", "--data ", "series_matrix.txt"]),
    # a cluster id is ASCII digits, at most 18 of them
    "pred-cluster-plus-sign": (_pred_first_cluster("+1"), 2,
                               ["pred.csv", "line 2", "ASCII digits", "'s0,+1'"]),
    "pred-cluster-underscore": (_pred_first_cluster("0_0"), 2,
                                ["pred.csv", "line 2", "ASCII digits", "'s0,0_0'"]),
    "pred-cluster-arabic-indic-digit": (_pred_first_cluster("\u0661"), 2,
                                        ["pred.csv", "line 2", "ASCII digits", "'s0,\u0661'"]),
    "pred-cluster-30-digits": (_pred_first_cluster("1" * 30), 2,
                               ["pred.csv", "line 2", "1 to 18 ASCII digits"]),
    "csv-empty": (_prescreen_file("e.csv", b""), 2, ["e.csv", "empty file"]),
    "csv-infinite-cell": (_prescreen_file("inf.csv", b"f1,f2\n0.5,0.2\n0.1,-inf\n"), 2,
                          ["inf.csv", "non-finite cell", "sample 1, feature 1", "-inf"]),
    "series-matrix-row-misses-a-column": (_prescreen_file(
        "series_matrix.txt", SERIES_HEADER + b'"cg1"\t0.1\n!series_matrix_table_end\n'), 2,
        ["series_matrix.txt", "row 0 has 2 columns", "expected 3"]),
    "container-truncated-in-version": (_model_bytes(
        "trunc.derc", lambda p: p.write_bytes(data.CONTAINER_MAGIC + b"\x01\x00")), 2,
        ["trunc.derc", "truncated container header"]),
    "ae-container-without-encoder-layers": (_model_bytes(
        "noenc.derc", lambda p: data.save_container(
            p, dict(dec0_w=np.zeros((30, 4)), dec0_b=np.zeros(30)),
            dict(kind="ae", activations=dict(enc=[], dec=["sigmoid"])))), 2,
        ["noenc.derc", "'enc': 0", "'dec': 1"]),
    "pred-without-header": (_pred_bytes(b"s0,1\n"), 2,
                            ["pred.csv", "expected header 'sample_id,cluster'"]),
    "pred-misses-a-sample": (_bad_pred_line("s0,1"), 2,
                             ["pred.csv", "missing predictions", "'s1'"]),
    "csv-value-out-of-range": (_prescreen_file("oor.csv", b"f1,f2\n0.5,1.5\n0.1,0.2\n"), 2,
                               ["oor.csv", "value outside [0, 1]", "sample 0, feature 1"]),
    "csv-repeated-feature": (_prescreen_file("dupf.csv", b"f1,f1\n0.5,0.2\n0.1,0.3\n"), 2,
                             ["dupf.csv", "feature id 'f1' repeats"]),
    "centroids-unknown-compression": (_centroids_unknown_compression, 2,
                                      ["c.derc", "corrupt", "not supported"]),
    "model-deflate-data-corrupt": (_model_bytes(
        "z.derc", lambda p: write_deflated_container(
            p, dict(enc0_w=np.zeros((4, 30))), dict(kind="ae"), corrupt=True)), 2,
        ["z.derc", "corrupt", "decompressing"]),
}


class TestErrors:
    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_one_line_error(self, case, tmp_path, capsys, caplog):
        make_argv, code, needles = BAD_INPUTS[case]
        argv = make_argv(tmp_path)
        capsys.readouterr()  # drop what building the inputs printed
        caplog.clear()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        # outside pytest a logged warning would be a second stderr line
        assert caplog.messages == []
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err

    @pytest.mark.parametrize("case", [c for c in BAD_INPUTS if c.endswith("-negative-seed")])
    def test_negative_seed_writes_nothing(self, case, tmp_path):
        argv = BAD_INPUTS[case][0](tmp_path)
        before = sorted(tmp_path.iterdir())
        assert run(argv) == 2
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("stage", ["cluster-init", "export-latent"])
    def test_non_finite_latent_writes_no_centroids(self, stage, tmp_path):
        argv = BAD_INPUTS[f"{stage}-non-finite-latent"][0](tmp_path)
        assert run(argv) == 3
        assert not (tmp_path / "out").exists()

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

    def test_labels_file_with_header(self, tmp_path):
        # a --labels file may start with a `label` line; it gives the outputs
        # of the cohort's own label column
        raw, ds = synth_csv(tmp_path)
        labels = tmp_path / "labels.txt"
        labels.write_text("label\n" + "".join(f"{v}\n" for v in ds.labels))
        for name, extra in (("own", []), ("file", ["--labels", labels])):
            assert run(["prescreen", "--data", raw, *extra,
                        "--out-data", tmp_path / f"{name}.csv",
                        "--out-report", tmp_path / f"{name}_screen.csv",
                        "--out-kept", tmp_path / f"{name}_kept.txt"]) == 0
        for suffix in (".csv", "_screen.csv", "_kept.txt"):
            assert ((tmp_path / f"own{suffix}").read_bytes()
                    == (tmp_path / f"file{suffix}").read_bytes())

    def test_dropped_probe_is_logged_on_success(self, tmp_path, caplog):
        argv = _prescreen_file("series_matrix.txt", ALL_MISSING_PROBE, "0\n1\n1\n")(tmp_path)
        assert run(argv) == 0
        assert caplog.messages == ["dropped 1 all-missing features: cg2"]

    def test_usage_error_exit_1(self):
        assert run(["prescreen"]) == 1
        assert run(["no-such-command"]) == 1
        # --dims alone sets the latent width
        assert run(["pretrain", "ae", "--data", "d.csv", "--out", "m.derc",
                    "--latent-dim", "8"]) == 1

    def test_out_of_range_value_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2\n0.5,1.5\n0.2,0.3\n")
        assert run(["pretrain", "ae", "--data", bad,
                    "--out", tmp_path / "m.derc"]) == 2

    def test_non_finite_loss_exit_3(self, tmp_path):
        # a fresh interpreter, so the stderr checked is exactly what a user sees
        raw, _ = synth_csv(tmp_path, n=24, d=12, informative=4)
        proc = run_child(["pretrain", "ae", "--data", raw, "--out", tmp_path / "m.derc",
                          "--dims", "12,8,4", "--epochs", "2", "--lr", "1e200"])
        assert proc.returncode == 3
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "non-finite loss" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "m.derc").exists()

    @pytest.mark.parametrize("argv", [
        ["pretrain", "ae", "--data", "c.csv", "--out", "m.derc", "--dims", "50,2000000000,10",
         "--epochs", "1"],
        ["synth", "--out", "big.csv", "--n-samples", "100000", "--n-features", "100000",
         "--n-informative", "10"],
    ], ids=["pretrain-dims", "synth"])
    def test_out_of_memory_exit_2(self, argv, tmp_path):
        # the child caps its own address space at 4 GiB before numpy loads;
        # the first layer's weights need 745 GiB and the cohort 74.5 GiB, so
        # each allocation fails at once and fills nothing
        synth_csv(tmp_path, name="c.csv", n=20, d=50)
        cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))"
        proc = run_child(argv, setup=cap, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("derc: out of memory: Unable to allocate")
        assert len(proc.stderr.strip().splitlines()) == 1

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
        check = (f"import sys, {modules}; loaded = [m for m in sys.modules "
                 f"if m == {unloaded!r} or m.startswith({unloaded + '.'!r})]; "
                 f"assert not loaded, loaded")
        proc = subprocess.run(
            [sys.executable, "-c", check],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr

    def test_csv_in_a_series_matrix_directory(self, tmp_path):
        # only the file's own name marks a series matrix, not its directory's
        for name in ("plain", "series_matrix_runs"):
            (tmp_path / name).mkdir()
            raw, _ = synth_csv(tmp_path / name, name="c.csv")
            assert run(["prescreen", "--data", raw, "--out-data", tmp_path / name / "f.csv",
                        "--out-report", tmp_path / name / "r.csv",
                        "--out-kept", tmp_path / name / "k.txt"]) == 0
        for out in ("f.csv", "r.csv", "k.txt"):
            assert ((tmp_path / "plain" / out).read_bytes()
                    == (tmp_path / "series_matrix_runs" / out).read_bytes())

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
        params = data.load_model(model)
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

    def test_manifest_written(self, tmp_path, monkeypatch):
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
        # GEMM bits follow the BLAS's thread count, so each manifest records it
        blas = manifest["blas"]
        assert set(blas) == {"name", "version", "threads"}
        assert blas["threads"] == config.blas_threads()

        cents = tmp_path / "c.derc"
        assert run(["cluster-init", "--model", model, "--data", raw,
                    "--out", cents, "--k", "3", "--restarts", "2"]) == 0
        trained = tmp_path / "t.derc"
        # a BLAS that gives no thread count is recorded as null
        monkeypatch.setattr(config, "blas_threads", lambda: None)
        assert run(["train-derc", "--model", model, "--centroids", cents,
                    "--data", raw, "--out", trained, "--pred", tmp_path / "p.csv",
                    "--epochs", "1"]) == 0
        manifest = json.loads((tmp_path / "t.derc.manifest.json").read_text())
        assert manifest["settings"]["k"] == 3
        # an unset stop_delta (the full epoch budget) is not recorded
        assert "stop_delta" not in manifest["settings"]
        assert manifest["blas"]["threads"] is None
        assert manifest["blas"]["name"] == blas["name"]

    def test_prescreen_manifest_records_the_labels_file(self, tmp_path, monkeypatch):
        # one matrix under two labellings in files of one name: the outputs
        # differ, so must the manifests that record what made them
        manifests = []
        for name, labels in (("a", "0\n1\n" * 6), ("b", "1\n0\n" * 6)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            write_series_matrix(Path("sm.txt"), 12, 30, seed=0)
            Path("labels.txt").write_text(labels)
            assert run(["prescreen", "--data", "sm.txt", "--labels", "labels.txt",
                        *PRESCREEN_OUTPUTS]) == 0
            manifest = json.loads(Path("f.csv.manifest.json").read_text())
            assert manifest["inputs"] == {p: config.sha256_file(p)
                                          for p in ("labels.txt", "sm.txt")}
            manifests.append(manifest)
        assert manifests[0] != manifests[1]

    def test_padded_pred_fields_give_the_plain_report(self, tmp_path):
        # whitespace around the sample id is ignored, as around the cluster id
        raw, ds = synth_csv(tmp_path)
        reports = []
        for name, line in (("plain", "{},{}\n"), ("padded", "{} \t, {}\n")):
            pred = tmp_path / f"{name}.csv"
            pred.write_text("sample_id,cluster\n" + "".join(
                line.format(sid, i % 2) for i, sid in enumerate(ds.sample_ids)))
            assert run(["evaluate", "--pred", pred, "--data", raw,
                        "--out", tmp_path / f"{name}.txt"]) == 0
            reports.append((tmp_path / f"{name}.txt").read_bytes())
        assert reports[0] == reports[1]


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
      "batch-size": "4", "target-interval": "3", "stop-delta": "1.0", "seed": "5"}),
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
        assert settings["stop_delta"] == 1.0
        # under a tolerance of every sample, the second target refresh (at
        # iteration 3 of the 20 that 2 epochs of 40 samples in batches of 4
        # give) stops joint training
        rows = by_config["derc_hist.csv"].decode().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [0, 1, 2]

    def test_config_comments_and_blank_lines_change_nothing(self, tmp_path):
        raw, _ = synth_csv(tmp_path)
        texts = {"plain": "epochs = 2\ndims = 30,8,2\n",
                 "commented": "# short run\n\nepochs = 2  # two epochs\n   \n"
                              "dims = 30,8,2\n# end\n"}
        for name, text in texts.items():
            (tmp_path / f"{name}.cfg").write_text(text)
            assert run(["pretrain", "ae", "--data", raw, "--out", tmp_path / f"{name}.derc",
                        "--config", tmp_path / f"{name}.cfg"]) == 0
        for suffix in (".derc", ".derc.manifest.json"):
            assert ((tmp_path / f"plain{suffix}").read_bytes()
                    == (tmp_path / f"commented{suffix}").read_bytes())

    # subcommand -> its settings dataclass and the fields it sets itself
    SETTINGS = {
        "prescreen": (prescreen.PrescreenConfig, ()),
        "pretrain": (autoencoder.PretrainConfig, ("seed",)),
        "train-derc": (cluster.DercConfig, ("seed", "k")),
        "synth": (data.SynthSpec, ("seed",)),
    }

    @pytest.mark.parametrize("command", SETTINGS)
    def test_every_setting_is_an_option(self, command, capsys):
        cls, fixed = self.SETTINGS[command]
        assert run([command, "--help"]) == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        for f in dataclasses.fields(cls):
            flag = "--" + f.name.replace("_", "-")
            if f.name in fixed:
                # seed comes from the global --seed
                assert f.name == "seed" or flag not in options, flag
            else:
                assert flag in options, flag

    # each settings dataclass, made at valid values
    MADE = [prescreen.PrescreenConfig(), autoencoder.PretrainConfig(), cluster.DercConfig(),
            data.SynthSpec(), network.SgdConfig(epochs=1, lr=0.1, momentum=0.0),
            autoencoder.AeSpec([30, 16, 4])]

    # a value past each bound a settings dataclass checks -> (its class, its message)
    BAD_SETTINGS = {
        "epochs-zero": (network.SgdConfig, dict(epochs=0), "epochs and batch_size must be >= 1"),
        "batch-size-zero": (autoencoder.PretrainConfig, dict(batch_size=0),
                            "epochs and batch_size must be >= 1"),
        "lr-zero": (cluster.DercConfig, dict(lr=0.0), "lr must be finite and > 0, got 0.0"),
        "lr-inf": (network.SgdConfig, dict(lr=float("inf")),
                   "lr must be finite and > 0, got inf"),
        "lr-nan": (autoencoder.PretrainConfig, dict(lr=float("nan")),
                   "lr must be finite and > 0, got nan"),
        "momentum-negative": (network.SgdConfig, dict(momentum=-0.5),
                              "momentum must be in [0, 1), got -0.5"),
        "momentum-one": (cluster.DercConfig, dict(momentum=1.0),
                         "momentum must be in [0, 1), got 1.0"),
        "validation-fraction-negative": (autoencoder.PretrainConfig,
                                         dict(validation_fraction=-0.1),
                                         "validation_fraction must be in [0, 1)"),
        "validation-fraction-one": (autoencoder.PretrainConfig, dict(validation_fraction=1.0),
                                    "validation_fraction must be in [0, 1)"),
        "vae-recon-weight-negative": (autoencoder.PretrainConfig, dict(vae_recon_weight=-0.1),
                                      "vae_recon_weight must be in [0, 1]"),
        "vae-recon-weight-above-one": (autoencoder.PretrainConfig, dict(vae_recon_weight=1.5),
                                       "vae_recon_weight must be in [0, 1]"),
        "beta-negative": (cluster.DercConfig, dict(beta=-1.0),
                          "beta must be finite and >= 0, got -1.0"),
        "beta-inf": (cluster.DercConfig, dict(beta=float("inf")),
                     "beta must be finite and >= 0, got inf"),
        "target-interval-zero": (cluster.DercConfig, dict(target_interval=0),
                                 "target_interval must be >= 1"),
        "k-zero": (cluster.DercConfig, dict(k=0), "k must be >= 1"),
        "stop-delta-negative": (cluster.DercConfig, dict(stop_delta=-0.1),
                                "stop_delta must be in [0, 1], got -0.1"),
        "stop-delta-above-one": (cluster.DercConfig, dict(stop_delta=1.5),
                                 "stop_delta must be in [0, 1], got 1.5"),
        "stop-delta-nan": (cluster.DercConfig, dict(stop_delta=float("nan")),
                           "stop_delta must be in [0, 1], got nan"),
        "alpha-zero": (prescreen.PrescreenConfig, dict(alpha=0), "alpha must be in (0, 1)"),
        "alpha-one": (prescreen.PrescreenConfig, dict(alpha=1), "alpha must be in (0, 1)"),
        "rho-threshold-zero": (prescreen.PrescreenConfig, dict(rho_threshold=0),
                               "rho_threshold must be in (0, 1]"),
        "rho-threshold-above-one": (prescreen.PrescreenConfig, dict(rho_threshold=1.5),
                                    "rho_threshold must be in (0, 1]"),
        "normality-alpha-zero": (prescreen.PrescreenConfig, dict(normality_alpha=0),
                                 "normality_alpha must be in (0, 1)"),
        "normality-alpha-one": (prescreen.PrescreenConfig, dict(normality_alpha=1),
                                "normality_alpha must be in (0, 1)"),
        "n-features-zero": (data.SynthSpec, dict(n_features=0, n_informative=0),
                            "n_features must be >= 1, got 0"),
        "n-informative-negative": (data.SynthSpec, dict(n_informative=-1),
                                   "n_informative must be >= 0, got -1"),
        "n-informative-above-n-features": (data.SynthSpec, dict(n_informative=501),
                                           "n_informative must be <= n_features"),
        "class-ratio-zero": (data.SynthSpec, dict(class_ratio=0.0),
                             "class_ratio must be in (0, 1)"),
        "class-ratio-one": (data.SynthSpec, dict(class_ratio=1.0),
                            "class_ratio must be in (0, 1)"),
        "one-sample": (data.SynthSpec, dict(n_samples=1),
                       "n_samples 1 at class_ratio 0.5 gives classes of 1 and 0 samples; "
                       "each needs at least 1"),
        "layer-dims-empty": (autoencoder.AeSpec, dict(layer_dims=[]),
                             "layer_dims [] must hold at least two widths, the input "
                             "and the latent"),
        "layer-dims-one-width": (autoencoder.AeSpec, dict(layer_dims=[30]),
                                 "layer_dims [30] must hold at least two widths, the input "
                                 "and the latent"),
        "layer-width-zero": (autoencoder.AeSpec, dict(layer_dims=[30, 0, 4]),
                             "layer width 0 at position 1 of [30, 0, 4] must be >= 1"),
        "layer-width-negative": (autoencoder.AeSpec, dict(layer_dims=[30, 16, -4]),
                                 "layer width -4 at position 2 of [30, 16, -4] must be >= 1"),
    }

    def test_every_settings_class_is_made(self):
        # a class of the package named *Config or *Spec is a settings class
        classes = {cls for path in (ROOT / "src" / "derc").glob("[!_]*.py")
                   for _, cls in inspect.getmembers(
                       importlib.import_module(f"derc.{path.stem}"), inspect.isclass)
                   if cls.__module__.startswith("derc")
                   and cls.__name__.endswith(("Config", "Spec"))}
        assert classes and classes <= {type(m) for m in self.MADE}

    @pytest.mark.parametrize("case", BAD_SETTINGS)
    def test_bad_setting_rejected_where_made(self, case):
        cls, bad, message = self.BAD_SETTINGS[case]
        made = next(m for m in self.MADE if type(m) is cls)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            cls(**{**dataclasses.asdict(made), **bad})
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(made, **bad)

    @pytest.mark.parametrize("made", MADE, ids=lambda m: type(m).__name__)
    def test_settings_are_frozen_and_checked_once(self, made):
        name = dataclasses.fields(made)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, name, getattr(made, name))
        assert not hasattr(made, "validate")

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
        readme = (ROOT / "README.md").read_text()
        block = next(b for b in readme.split("```sh\n")[1:] if "derc synth" in b)
        script = block.split("```", 1)[0]
        shim = f'derc() {{ "{sys.executable}" -m derc.cli "$@"; }}\n'
        proc = subprocess.run(
            ["bash", "-ec", shim + script],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        assert "ACC:" in (tmp_path / "report.txt").read_text()
        assert (tmp_path / "latent.csv").exists()


PRESCREEN_OUTPUTS = ["--out-data", "f.csv", "--out-report", "r.csv", "--out-kept", "k.txt"]

# input kind -> (the file given a UTF-8 byte-order mark, the stage that reads it);
# _bom_run writes every input file
BOM_INPUTS = {
    "csv": ("raw.csv", ["prescreen", "--data", "raw.csv", *PRESCREEN_OUTPUTS]),
    "series-matrix": ("sm.txt", ["prescreen", "--data", "sm.txt", "--labels", "labels.txt",
                                 *PRESCREEN_OUTPUTS]),
    "labels": ("labels.txt", ["prescreen", "--data", "raw.csv", "--labels", "labels.txt",
                              *PRESCREEN_OUTPUTS]),
    "config": ("run.cfg", ["pretrain", "ae", "--data", "raw.csv", "--out", "m.derc",
                           "--config", "run.cfg"]),
    "pred": ("pred.csv", ["evaluate", "--pred", "pred.csv", "--data", "raw.csv",
                          "--out", "report.txt"]),
}


def _bom_run(root, kind, bom, monkeypatch):
    """Run kind's stage in root, its input file with a byte-order mark if bom;
    returns the exit code and every file the stage wrote, each manifest with
    the hash of the inputs left out."""
    root.mkdir()
    _, ds = synth_csv(root, name="raw.csv")
    write_series_matrix(root / "sm.txt", ds.n_samples, 30, seed=0)
    (root / "labels.txt").write_text("".join(f"{y}\n" for y in ds.labels))
    (root / "run.cfg").write_text("dims = 30,8,2\nepochs = 2\n")
    (root / "pred.csv").write_text("sample_id,cluster\n" + "".join(
        f"{sid},{y}\n" for sid, y in zip(ds.sample_ids, ds.labels)))
    name, argv = BOM_INPUTS[kind]
    if bom:
        path = root / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    inputs = set(os.listdir(root))
    monkeypatch.chdir(root)
    code = run(argv)
    outputs = {}
    for out in sorted(set(os.listdir(root)) - inputs):
        raw = (root / out).read_bytes()
        if out.endswith(".manifest.json"):
            manifest = json.loads(raw)
            manifest["inputs"] = sorted(manifest["inputs"])
            raw = manifest
        outputs[out] = raw
    return code, outputs


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", BOM_INPUTS)
    def test_bom_input_gives_the_plain_outputs(self, kind, tmp_path, monkeypatch):
        plain = _bom_run(tmp_path / "plain", kind, False, monkeypatch)
        marked = _bom_run(tmp_path / "bom", kind, True, monkeypatch)
        assert plain[0] == 0
        assert marked == plain


def console_writes(source: str) -> list[int]:
    """Lines that print, reach sys.stdout or sys.stderr, or use logging."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if (
        isinstance(node, ast.Name) and node.id in {"print", "logging", "stdout", "stderr"}
        or isinstance(node, ast.Attribute) and node.attr in {"stdout", "stderr"}
        or isinstance(node, ast.Import) and any(a.name == "logging" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "logging")})


class TestOneConsole:
    """Only cli.py writes to the console, so it alone decides what a command
    prints, and after what."""

    def test_finds_writes(self):
        source = ("import logging\nfrom logging import warning\nimport sys\n"
                  "def f(x):\n    print(x)\n    sys.stderr.write(x)\n    return x\n"
                  "log = logging.getLogger(__name__)\nfrom sys import stdout\n"
                  "stdout.write('x')\n")
        assert console_writes(source) == [1, 2, 5, 6, 8, 10]

    @pytest.mark.parametrize("module", sorted(
        p.name for p in (ROOT / "src" / "derc").glob("*.py") if p.name != "cli.py"))
    def test_no_write_outside_cli(self, module):
        path = ROOT / "src" / "derc" / module
        assert console_writes(path.read_text(encoding="utf-8")) == []


def imports_in_functions(source: str) -> list[ast.stmt]:
    """The import statements inside a function body, in line order."""
    # a set, since a nested function's imports are walked from each enclosing one
    nodes = {node for fn in ast.walk(ast.parse(source))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(nodes, key=lambda node: (node.lineno, node.col_offset))


class TestModuleLevelPackageImports:
    """A module imports at its top, so its dependencies read there and load
    with it; scipy.special alone is imported where it is first used. An
    import from the package inside a function fails here too."""

    def test_finds_imports(self):
        source = ("from . import errors\nimport numpy\n"
                  "def f():\n    from . import __version__\n    from .data import read_text\n"
                  "    import derc.cli\n    from derc import errors\n"
                  "    from scipy import special\n    import mmap\n"
                  "class C:\n    def g(self):\n        import derc\n        return derc\n")
        assert [n.lineno for n in imports_in_functions(source)] == [4, 5, 6, 7, 8, 9, 12]

    @pytest.mark.parametrize("module", sorted(
        p.name for p in (ROOT / "src" / "derc").glob("*.py")))
    def test_only_scipy_special_is_imported_in_a_function(self, module):
        # scipy.special costs about 0.2 s of a cold process's start, and only
        # prescreen's p-values need it; every other import is at module level
        source = (ROOT / "src" / "derc" / module).read_text(encoding="utf-8")
        assert [(n.lineno, ast.unparse(n)) for n in imports_in_functions(source)
                if ast.unparse(n) != "from scipy import special"] == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml claims Python >= 3.10, so no file may use grammar that
    # came later, such as except* or a type parameter list
    failed = []
    for path in sorted(p for top in ("src", "tests", "benchmarks")
                       for p in (ROOT / top).rglob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []


def test_names_the_benchmark_traces_exist():
    # benchmarks/worker.py patches functions by name on their module and
    # methods in their class's own __dict__; read its tables without
    # importing it, so a rename here fails in this suite too
    tree = ast.parse((ROOT / "benchmarks" / "worker.py").read_text(encoding="utf-8"))
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("TRACED_FUNCTIONS",
                                                           "TRACED_METHODS")}
    functions, methods = tables["TRACED_FUNCTIONS"], tables["TRACED_METHODS"]
    assert functions and methods
    for mod_name, attr in functions:
        module = importlib.import_module(f"derc.{mod_name}")
        assert callable(getattr(module, attr, None)), f"derc.{mod_name}.{attr}"
    for mod_name, cls_name, attr in methods:
        cls = getattr(importlib.import_module(f"derc.{mod_name}"), cls_name)
        assert callable(cls.__dict__.get(attr)), f"derc.{mod_name}.{cls_name}.{attr}"


class TestStoredLayerArrays:
    """A model's layer arrays train as their C-ordered float64 copy, in
    whatever memory order and real dtype the container stores them."""

    @pytest.mark.parametrize("stored", [
        lambda name, a: np.asfortranarray(a),
        lambda name, a: np.round(a * 10).astype(np.int64) if name.endswith("_w") else a,
    ], ids=["fortran-order", "int-weights"])
    def test_train_derc_writes_the_c_ordered_float64_bytes(self, tmp_path, stored):
        raw, model = _small_model(tmp_path)
        arrays, meta = data.load_container(model)
        copy = {k: stored(k, a) for k, a in arrays.items()}
        assert copy["enc0_w"].dtype != np.float64 or not copy["enc0_w"].flags.c_contiguous
        float64 = {k: np.ascontiguousarray(a, dtype=np.float64) for k, a in copy.items()}
        outputs = []
        for name, saved in (("copy", copy), ("float64", float64)):
            path = tmp_path / f"{name}.derc"
            data.save_container(path, saved, meta)
            out = tmp_path / name
            out.mkdir()
            assert run(["cluster-init", "--model", path, "--data", raw,
                        "--out", out / "c.derc", "--restarts", "2"]) == 0
            assert run(["train-derc", "--model", path, "--centroids", out / "c.derc",
                        "--data", raw, "--out", out / "trained.derc",
                        "--pred", out / "pred.csv", "--epochs", "2"]) == 0
            outputs.append([(out / f).read_bytes()
                            for f in ("c.derc", "trained.derc", "pred.csv")])
        assert outputs[0] == outputs[1]


class TestChildProcess:
    def test_pinned_and_unpinned_models_are_byte_identical(self, tmp_path):
        # each weight matrix is one rng.uniform draw (network.init_uniform),
        # and OpenBLAS runs one thread in both children, since its thread
        # count changes GEMM bits; so the CPU set changes no byte of a model
        assert run(["synth", "--out", tmp_path / "s.csv", "--n-samples", "60",
                    "--n-features", "2000", "--n-informative", "20"]) == 0
        pin = f"import os; os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})"
        for name, setup in (("unpinned", ""), ("pinned", pin)):
            proc = run_child(["pretrain", "ae", "--data", "s.csv", "--out", f"{name}.derc",
                              "--dims", "2000,300,4", "--epochs", "1"],
                             setup=setup, env={"OPENBLAS_NUM_THREADS": "1"}, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((tmp_path / f"{name}.derc.manifest.json").read_text())
            assert manifest["blas"]["threads"] == 1
        assert (tmp_path / "pinned.derc").read_bytes() == (tmp_path / "unpinned.derc").read_bytes()

    @pytest.mark.parametrize("labels, code, err", [
        ("0\n1\n1\n", 0, "dropped 1 all-missing features: cg2\n"),
        ("0\n0\n0\n", 2, "derc: labels hold 3 samples of class 0 and 0 of class 1; "
                          "the class tests need both "
                          "(--data series_matrix.txt, --labels labels.txt)\n"),
    ], ids=["succeeds", "fails"])
    def test_dropped_probe_noted_only_on_success(self, labels, code, err, tmp_path):
        # a user sees the note on stderr after a command that succeeds, and a
        # failing command's one error line alone
        (tmp_path / "series_matrix.txt").write_bytes(ALL_MISSING_PROBE)
        (tmp_path / "labels.txt").write_text(labels)
        proc = run_child(["prescreen", "--data", "series_matrix.txt", "--labels", "labels.txt",
                          *PRESCREEN_OUTPUTS], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (code, err)

    def test_geo_series_matrix_keeps_probes(self, tmp_path, monkeypatch):
        # the benchmark's tiny GEO cohort holds null, empty and quoted cells
        monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
        import gen

        gen.make_inputs("prescreen_wide", 0, tmp_path, "tiny")
        proc = run_child(["prescreen", "--data", "series_matrix.txt", "--labels", "labels.txt",
                          *PRESCREEN_OUTPUTS], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "k.txt").read_text().split()

    @pytest.mark.parametrize("momentum, lr", [("0", "1.0"), ("0.9", "0.1")])
    def test_batch_2_epochs_outlast_the_pending_window(self, momentum, lr, tmp_path):
        # 48 training samples in batches of 2 make 24-step epochs, longer than
        # the 64 -> 400 output layer's pending window (network.DeferredLayer);
        # at momentum 0.9 its second window starts from its own velocity (lr
        # 0.1: at the default 1.0 the 4-unit ReLU latent dies), and joint
        # training follows
        assert run(["synth", "--out", tmp_path / "w.csv", "--n-samples", "60",
                    "--n-features", "400", "--n-informative", "20"]) == 0
        joint = momentum != "0"
        stages = [["pretrain", "ae", "--data", "w.csv", "--out", "m.derc", "--dims", "400,64,4",
                   "--epochs", "2", "--batch-size", "2", "--momentum", momentum, "--lr", lr,
                   "--validation-fraction", "0.2"]]
        if joint:
            stages += [["cluster-init", "--model", "m.derc", "--data", "w.csv", "--out", "c.derc"],
                       ["train-derc", "--model", "m.derc", "--centroids", "c.derc",
                        "--data", "w.csv", "--out", "t.derc", "--pred", "pred.csv",
                        "--batch-size", "2"]]
        stages.append(["export-latent", "--model", "t.derc" if joint else "m.derc",
                       "--data", "w.csv", "--out", "z.csv"])
        for argv in stages:
            proc = run_child(argv, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "z.csv").read_text().splitlines()[1:]
        assert len(rows) == 60
        assert np.isfinite(np.array([r.split(",")[1:] for r in rows], dtype=float)).all()
        if joint:
            rows = (tmp_path / "pred.csv").read_text().splitlines()[1:]
            assert len({r.split(",")[0] for r in rows}) == 60
