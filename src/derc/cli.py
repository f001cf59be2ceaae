"""Command line pipeline: prescreen -> pretrain -> cluster-init -> train-derc
-> evaluate, plus synth and export-latent utilities.

Exit codes: 1 usage error, 2 parse/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    def __init__(self, *args, **kwargs):
        # a config key that is only a prefix of a flag must not match it
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_dataset(path, need_labels=False, labels_path=None) -> data_io.Dataset:
    path = str(path)
    if path.endswith(".txt") or "series_matrix" in path:
        ds = data_io.load_series_matrix(path)
    else:
        ds = data_io.load_csv(path)
    if labels_path is not None:
        ds.labels = _load_labels(labels_path, ds.n_samples)
        ds.validate()
    if need_labels and ds.labels is None:
        raise ValidationError(
            f"{path}: labels are required (label column or --labels file)"
        )
    return ds


def _load_labels(path, n: int) -> np.ndarray:
    lines = [ln.strip() for ln in data_io.read_text(path).splitlines() if ln.strip()]
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


def _stage_config(cls, args, **fixed):
    """`cls` built from the flags set on the command line or in the config file.

    Fields that no flag set keep their dataclass default; `fixed` sets the
    values the command works out itself (k from the centroids, the stage
    seed). Also returns the manifest settings: every field a flag or `fixed`
    sets, with the global seed in place of the stage seed.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    flags = [n for n in names if hasattr(args, n)]
    given = {n: getattr(args, n) for n in flags if getattr(args, n) is not None}
    cfg = cls(**{**given, **fixed})
    settings = {n: getattr(cfg, n) for n in names if n in flags or n in fixed}
    if "seed" in settings:
        settings["seed"] = args.seed
    return cfg, settings


def _write_history(path, rows, header) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            # float(v): np.float64 is a float whose repr reads "np.float64(...)"
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# --- subcommands -----------------------------------------------------------


def cmd_prescreen(args):
    ds = _load_dataset(args.data, need_labels=True, labels_path=args.labels)
    pcfg, settings = _stage_config(ps.PrescreenConfig, args)
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

    write_manifest(args.out_data, "prescreen", [args.data], settings)
    print(f"kept {len(report.kept_feature_ids)} of {ds.n_features} features "
          f"({len(report.removed_by_correlation)} by correlation, "
          f"{len(report.removed_by_class_test)} by class test)")


def _int_list(raw: str) -> list[int]:
    try:
        return [int(t) for t in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {raw!r}")


def _ae_spec(dims: list[int] | None, d_in: int, latent: int | None):
    if dims:
        if latent is not None:
            dims[-1] = latent
        return ae.AeSpec(layer_dims=dims)
    if latent is not None:
        return ae.AeSpec(layer_dims=[d_in, *ae.DEFAULT_HIDDEN_DIMS[:-1], latent])
    return ae.AeSpec()


def cmd_pretrain(args):
    ds = _load_dataset(args.data)
    pcfg, settings = _stage_config(ae.PretrainConfig, args,
                                   seed=stage_seed(args.seed, "pretrain"))
    spec = _ae_spec(args.dims, ds.n_features, args.latent_dim)
    train = ae.pretrain_ae if args.kind == "ae" else ae.pretrain_vae
    params, history = train(ds.values, spec, pcfg)
    data_io.save_model(args.out, params)
    if args.history:
        _write_history(args.history, history, "epoch,train_loss,val_loss")
    write_manifest(args.out, "pretrain", [args.data],
                   dict(settings, kind=args.kind, dims=spec.resolve(ds.n_features)))
    print(f"pretrained {args.kind} for {pcfg.epochs} epochs; "
          f"final train loss {history[-1][1]:.6g}")


def cmd_cluster_init(args):
    params, _, meta = data_io.load_model(args.model)
    ds = _load_dataset(args.data)
    _check_width(meta, ds, "cluster-init")
    z = ae.encode(params, ds.values)
    result = km.kmeans_fit(z, k=args.k, restarts=args.restarts,
                           seed=stage_seed(args.seed, "cluster_init"))
    data_io.save_container(args.out, dict(centroids=result.centroids),
                           dict(kind="centroids", k=args.k, inertia=result.inertia,
                                restarts=args.restarts))
    write_manifest(args.out, "cluster_init", [args.model, args.data],
                   dict(k=args.k, restarts=args.restarts, seed=args.seed))
    print(f"k-means: k={args.k}, restarts={args.restarts}, "
          f"best inertia {result.inertia:.6g}")


def cmd_train_derc(args):
    params, _, meta = data_io.load_model(args.model)
    arrays, _ = data_io.load_container(args.centroids)
    if "centroids" not in arrays:
        raise ValidationError(f"{args.centroids}: container holds no centroids")
    centroids = arrays["centroids"]
    ds = _load_dataset(args.data)
    _check_width(meta, ds, "train-derc")
    dcfg, settings = _stage_config(derc_cluster.DercConfig, args,
                                   k=centroids.shape[0],
                                   seed=stage_seed(args.seed, "derc"))
    result = derc_cluster.train_derc(ds.values, params, centroids, dcfg)
    data_io.save_model(args.out, result.params, centroids=result.centroids,
                       extra_meta=dict(beta=dcfg.beta))
    if args.history:
        _write_history(args.history, result.history,
                       "iteration,cluster_loss,recon_loss,total_loss")
    with open(args.pred, "w", encoding="utf-8") as fh:
        fh.write("sample_id,cluster\n")
        for sid, cid in zip(ds.sample_ids, result.cluster_ids):
            fh.write(f"{sid},{cid}\n")
    write_manifest(args.out, "derc", [args.model, args.centroids, args.data], settings)
    sizes = np.bincount(result.cluster_ids, minlength=dcfg.k)
    print(f"trained DERC (beta={dcfg.beta}); cluster sizes {sizes.tolist()}")


def cmd_evaluate(args):
    lines = [(no, ln.strip()) for no, ln in
             enumerate(data_io.read_text(args.pred).splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != "sample_id,cluster":
        raise ParseError(f"{args.pred}: expected header 'sample_id,cluster'")
    pred = {}
    line_of = {}
    for no, ln in lines[1:]:
        try:
            sid, cid = ln.split(",")
            cluster = int(cid)
        except ValueError:
            raise ParseError(f"{args.pred}: line {no}: expected "
                             f"'sample_id,cluster' with an integer cluster, got {ln!r}")
        if sid in line_of:
            raise ParseError(f"{args.pred}: line {no}: sample_id {sid!r} repeats "
                             f"line {line_of[sid]}")
        pred[sid] = cluster
        line_of[sid] = no
    ds = _load_dataset(args.data, need_labels=True, labels_path=args.labels)
    missing = [sid for sid in ds.sample_ids if sid not in pred]
    if missing:
        raise ValidationError(f"{args.pred}: missing predictions for {missing[:5]}")
    known = set(ds.sample_ids)
    unknown = [sid for sid in pred if sid not in known]
    if unknown:
        raise ValidationError(f"{args.pred}: line {line_of[unknown[0]]}: sample ids "
                              f"not in the data: {unknown[:5]}")
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


def cmd_export_latent(args):
    params, _, meta = data_io.load_model(args.model)
    ds = _load_dataset(args.data)
    _check_width(meta, ds, "export-latent")
    z = ae.encode(params, ds.values)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("sample_id," + ",".join(f"z{j}" for j in range(z.shape[1])) + "\n")
        for sid, row in zip(ds.sample_ids, z):
            fh.write(sid + "," + ",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {z.shape[0]}x{z.shape[1]} latent matrix to {args.out}")


def cmd_synth(args):
    spec, _ = _stage_config(data_io.SynthSpec, args,
                            seed=stage_seed(args.seed, "synth"))
    ds = data_io.generate_synthetic(spec)
    data_io.save_csv(ds, args.out)
    print(f"wrote synthetic dataset {ds.n_samples}x{ds.n_features} to {args.out}")


# --- parser ----------------------------------------------------------------


def build_parser() -> CliParser:
    parser = CliParser(prog="derc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=0, help="global seed")
        p.set_defaults(func=func)
        return p

    p = command("prescreen", cmd_prescreen, "statistical feature filtering")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", help="labels file when the dataset has no label column")
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-kept", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho-threshold", type=float)
    p.add_argument("--normality-alpha", type=float)

    p = command("pretrain", cmd_pretrain, "train the AE or VAE")
    p.add_argument("kind", choices=["ae", "vae"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--vae-recon-weight", type=float)
    p.add_argument("--validation-fraction", type=float)
    p.add_argument("--latent-dim", type=int)
    p.add_argument("--dims", type=_int_list,
                   help="comma list of layer widths, input first")

    p = command("cluster-init", cmd_cluster_init,
                "K-means centroids on the latent space")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--restarts", type=int, default=km.DEFAULT_RESTARTS)

    p = command("train-derc", cmd_train_derc, "joint clustering + reconstruction")
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

    p = command("evaluate", cmd_evaluate, "score predictions against labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels")
    p.add_argument("--out", required=True)
    p.add_argument("--method", default="derc")
    p.add_argument("--positive-label", type=int, default=1)

    p = command("export-latent", cmd_export_latent, "write the latent matrix as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = command("synth", cmd_synth, "generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--n-features", type=int)
    p.add_argument("--n-informative", type=int)
    p.add_argument("--class-ratio", type=float)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # each `key = value` line becomes --key=value ahead of the command
            # line's own flags, so those win and one parser checks every key
            flags = [f"--{k}={v}" for k, v in load_config(args.config).items()]
            args = parser.parse_args([argv[0], *flags, *argv[1:]])
        # a diverging run is reported once, by the trainers' non-finite loss
        # check (exit 3), not also by numpy's floating-point warnings
        with np.errstate(over="ignore", invalid="ignore"):
            args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NumericError as exc:
        print(f"derc: numeric error: {exc}", file=sys.stderr)
        return 3
    except (DercError, OSError) as exc:
        print(f"derc: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
