"""Command line pipeline: prescreen -> pretrain -> cluster-init -> train-derc
-> evaluate, plus synth and export-latent utilities.

Exit codes: 1 usage error, 2 parse/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import autoencoder as ae
from . import cluster as derc_cluster
from . import data as data_io
from . import kmeans as km
from . import metrics as metrics_mod
from . import prescreen as ps
from .config import load_config, stage_seed, write_manifest
from .errors import DercError, NumericError, ParseError, ValidationError


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_dataset(path, need_labels=False, labels_path=None) -> data_io.Dataset:
    path = str(path)
    if path.endswith(".txt") or "series_matrix" in path:
        ds = data_io.load_series_matrix(path)
    else:
        ds = data_io.load_csv(path, has_labels=_csv_has_label_column(path))
    if labels_path is not None:
        ds.labels = _load_labels(labels_path, ds.n_samples)
        ds.validate()
    if need_labels and ds.labels is None:
        raise ValidationError(
            f"{path}: labels are required (label column or --labels file)"
        )
    return ds


def _csv_has_label_column(path) -> bool:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return bool(header) and header[-1] == "label"


def _load_labels(path, n: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    vals = [ln.split(",")[-1] for ln in lines]
    if vals and vals[0] == "label":  # optional header
        vals = vals[1:]
    if len(vals) != n:
        raise ValidationError(f"{path}: {len(vals)} labels for {n} samples")
    try:
        labels = np.array([int(v) for v in vals])
    except ValueError:
        raise ValidationError(f"{path}: labels must be integer 0/1")
    return labels


def _check_width(meta: dict, ds: data_io.Dataset, what: str) -> None:
    expected = meta.get("input_dim")
    if expected is not None and expected != ds.n_features:
        raise ValidationError(
            f"{what}: model expects {expected} features, data has {ds.n_features}"
        )


def _resolve(args, cfg: dict, key: str, default, cast):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        raw = cfg[key]
        return cast(raw) if cast is not bool else raw.lower() in ("1", "true", "yes")
    return default


def _write_history(path, rows, header) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# --- subcommands -----------------------------------------------------------


def cmd_prescreen(args, cfg):
    ds = _load_dataset(args.data, need_labels=True, labels_path=args.labels)
    pcfg = ps.PrescreenConfig(
        alpha=_resolve(args, cfg, "alpha", 0.05, float),
        rho_threshold=_resolve(args, cfg, "rho-threshold", 0.90, float),
        normality_alpha=_resolve(args, cfg, "normality-alpha", 0.05, float),
    )
    report = ps.discriminative_filter(ds, pcfg)
    filtered = ds.subset_features(report.kept_indices)
    filtered.labels = ds.labels
    data_io.save_csv(filtered, args.out_data)

    status = {}
    for fid in report.kept_feature_ids:
        status[fid] = "kept"
    for fid in report.removed_by_correlation:
        status[fid] = "removed_correlation"
    for fid in report.removed_by_class_test:
        status[fid] = "removed_class_test"
    with open(args.out_report, "w", encoding="utf-8") as fh:
        fh.write("feature_id,status,p_value\n")
        for fid in ds.feature_ids:
            p = report.per_feature_pvalues.get(fid, float("nan"))
            fh.write(f"{fid},{status[fid]},{p!r}\n")
    with open(args.out_kept, "w", encoding="utf-8") as fh:
        for fid in report.kept_feature_ids:
            fh.write(fid + "\n")

    write_manifest(args.out_data, "prescreen", [args.data],
                   dict(alpha=pcfg.alpha, rho_threshold=pcfg.rho_threshold,
                        normality_alpha=pcfg.normality_alpha))
    print(f"kept {len(report.kept_feature_ids)} of {ds.n_features} features "
          f"({len(report.removed_by_correlation)} by correlation, "
          f"{len(report.removed_by_class_test)} by class test)")


def _parse_dims(raw: str | None, d_in: int, latent: int | None):
    if raw:
        dims = [int(t) for t in raw.split(",")]
        if latent is not None:
            dims[-1] = latent
        return ae.AeSpec(layer_dims=dims)
    if latent is not None:
        return ae.AeSpec(layer_dims=[d_in, *ae.DEFAULT_HIDDEN_DIMS[:-1], latent])
    return ae.AeSpec()


def cmd_pretrain(args, cfg):
    ds = _load_dataset(args.data)
    seed = _resolve(args, cfg, "seed", 0, int)
    pcfg = ae.PretrainConfig(
        epochs=_resolve(args, cfg, "epochs", 300, int),
        lr=_resolve(args, cfg, "lr", 1.0, float),
        momentum=_resolve(args, cfg, "momentum", 0.0, float),
        batch_size=_resolve(args, cfg, "batch-size", 8, int),
        seed=stage_seed(seed, "pretrain"),
        vae_recon_weight=_resolve(args, cfg, "vae-recon-weight", 0.8, float),
        validation_fraction=_resolve(args, cfg, "validation-fraction", 0.0, float),
    )
    spec = _parse_dims(_resolve(args, cfg, "dims", None, str), ds.n_features,
                       args.latent_dim)
    train = ae.pretrain_ae if args.kind == "ae" else ae.pretrain_vae
    params, history = train(ds.values, spec, pcfg)
    data_io.save_model(args.out, params)
    if args.history:
        _write_history(args.history, history, "epoch,train_loss,val_loss")
    write_manifest(args.out, "pretrain", [args.data],
                   dict(kind=args.kind, dims=spec.resolve(ds.n_features),
                        epochs=pcfg.epochs, lr=pcfg.lr, momentum=pcfg.momentum,
                        batch_size=pcfg.batch_size,
                        vae_recon_weight=pcfg.vae_recon_weight,
                        validation_fraction=pcfg.validation_fraction, seed=seed))
    final = history[-1][1] if history else float("nan")
    print(f"pretrained {args.kind} for {pcfg.epochs} epochs; "
          f"final train loss {final:.6g}")


def cmd_cluster_init(args, cfg):
    params, _, meta = data_io.load_model(args.model)
    ds = _load_dataset(args.data)
    _check_width(meta, ds, "cluster-init")
    seed = _resolve(args, cfg, "seed", 0, int)
    k = _resolve(args, cfg, "k", 2, int)
    restarts = _resolve(args, cfg, "restarts", 80, int)
    z = ae.encode(params, ds.values)
    result = km.kmeans_fit(z, k=k, restarts=restarts,
                           seed=stage_seed(seed, "cluster_init"))
    data_io.save_container(args.out, dict(centroids=result.centroids),
                           dict(kind="centroids", k=k, inertia=result.inertia,
                                restarts=restarts))
    write_manifest(args.out, "cluster_init", [args.model, args.data],
                   dict(k=k, restarts=restarts, seed=seed))
    print(f"k-means: k={k}, restarts={restarts}, best inertia {result.inertia:.6g}")


def cmd_train_derc(args, cfg):
    params, _, meta = data_io.load_model(args.model)
    arrays, cmeta = data_io.load_container(args.centroids)
    centroids = arrays["centroids"]
    ds = _load_dataset(args.data)
    _check_width(meta, ds, "train-derc")
    seed = _resolve(args, cfg, "seed", 0, int)
    dcfg = derc_cluster.DercConfig(
        beta=_resolve(args, cfg, "beta", 0.75, float),
        target_interval=_resolve(args, cfg, "target-interval", 10, int),
        epochs=_resolve(args, cfg, "epochs", 50, int),
        batch_size=_resolve(args, cfg, "batch-size", 8, int),
        lr=_resolve(args, cfg, "lr", 0.01, float),
        momentum=_resolve(args, cfg, "momentum", 0.9, float),
        k=centroids.shape[0],
        seed=stage_seed(seed, "derc"),
    )
    result = derc_cluster.train_derc(ds.values, params, centroids, dcfg)
    data_io.save_model(args.out, result.params, centroids=result.state.centroids,
                       extra_meta=dict(beta=dcfg.beta))
    if args.history:
        _write_history(args.history, result.history,
                       "iteration,cluster_loss,recon_loss,total_loss")
    with open(args.pred, "w", encoding="utf-8") as fh:
        fh.write("sample_id,cluster\n")
        for sid, cid in zip(ds.sample_ids, result.cluster_ids):
            fh.write(f"{sid},{cid}\n")
    write_manifest(args.out, "derc", [args.model, args.centroids, args.data],
                   dict(beta=dcfg.beta, epochs=dcfg.epochs, lr=dcfg.lr,
                        momentum=dcfg.momentum, batch_size=dcfg.batch_size,
                        target_interval=dcfg.target_interval, k=dcfg.k, seed=seed))
    sizes = np.bincount(result.cluster_ids, minlength=dcfg.k)
    print(f"trained DERC (beta={dcfg.beta}); cluster sizes {sizes.tolist()}")


def cmd_evaluate(args, cfg):
    with open(args.pred, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != "sample_id,cluster":
        raise ParseError(f"{args.pred}: expected header 'sample_id,cluster'")
    pred = {}
    for no, ln in lines[1:]:
        try:
            sid, cid = ln.split(",")
            pred[sid] = int(cid)
        except ValueError:
            raise ParseError(f"{args.pred}: line {no}: expected "
                             f"'sample_id,cluster' with an integer cluster, got {ln!r}")
    ds = _load_dataset(args.data, need_labels=True, labels_path=args.labels)
    missing = [sid for sid in ds.sample_ids if sid not in pred]
    if missing:
        raise ValidationError(f"{args.pred}: missing predictions for {missing[:5]}")
    c = np.array([pred[sid] for sid in ds.sample_ids])
    report = metrics_mod.evaluate(ds.labels, c, positive_label=args.positive_label)
    text = (f"method: {args.method}\n"
            f"ACC: {report.acc:.4f}\n"
            f"error rate (%): {report.error_rate_percent:.2f}\n"
            f"FP: {report.fp}\nFN: {report.fn}\n"
            f"mapping: {report.mapping}\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("method,acc,error_rate_percent,fp,fn\n")
        fh.write(report.csv_row(args.method) + "\n")
    print(report.csv_row(args.method))


def cmd_export_latent(args, cfg):
    params, _, meta = data_io.load_model(args.model)
    ds = _load_dataset(args.data)
    _check_width(meta, ds, "export-latent")
    z = ae.encode(params, ds.values)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("sample_id," + ",".join(f"z{j}" for j in range(z.shape[1])) + "\n")
        for sid, row in zip(ds.sample_ids, z):
            fh.write(sid + "," + ",".join(repr(v) for v in row) + "\n")
    print(f"wrote {z.shape[0]}x{z.shape[1]} latent matrix to {args.out}")


def cmd_synth(args, cfg):
    spec = data_io.SynthSpec(
        n_samples=_resolve(args, cfg, "n-samples", 100, int),
        n_features=_resolve(args, cfg, "n-features", 500, int),
        n_informative=_resolve(args, cfg, "n-informative", 50, int),
        class_ratio=_resolve(args, cfg, "class-ratio", 0.5, float),
        seed=stage_seed(_resolve(args, cfg, "seed", 0, int), "synth"),
    )
    ds = data_io.generate_synthetic(spec)
    data_io.save_csv(ds, args.out)
    print(f"wrote synthetic dataset {ds.n_samples}x{ds.n_features} to {args.out}")


# --- parser ----------------------------------------------------------------


def build_parser() -> CliParser:
    parser = CliParser(prog="derc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="global seed (default 0)")

    p = sub.add_parser("prescreen", help="statistical feature filtering")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", help="labels file when the dataset has no label column")
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-kept", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho-threshold", type=float)
    p.set_defaults(func=cmd_prescreen)

    p = sub.add_parser("pretrain", help="train the AE or VAE")
    common(p)
    p.add_argument("kind", choices=["ae", "vae"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--latent-dim", type=int)
    p.add_argument("--dims", help="comma list of layer widths, input first")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("cluster-init", help="K-means centroids on the latent space")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--restarts", type=int)
    p.set_defaults(func=cmd_cluster_init)

    p = sub.add_parser("train-derc", help="joint clustering + reconstruction")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--centroids", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--history")
    p.add_argument("--beta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--target-interval", type=int)
    p.set_defaults(func=cmd_train_derc)

    p = sub.add_parser("evaluate", help="score predictions against labels")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels")
    p.add_argument("--out", required=True)
    p.add_argument("--method", default="derc")
    p.add_argument("--positive-label", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-latent", help="write the latent matrix as CSV")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_latent)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--n-features", type=int)
    p.add_argument("--n-informative", type=int)
    p.add_argument("--class-ratio", type=float)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else {}
        # a diverging run is reported once, by the trainers' non-finite loss
        # check (exit 3), not also by numpy's floating-point warnings
        with np.errstate(over="ignore", invalid="ignore"):
            args.func(args, cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NumericError as exc:
        print(f"derc: numeric error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError) as exc:
        print(f"derc: {exc}", file=sys.stderr)
        return 2
    except DercError as exc:
        print(f"derc: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"derc: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
