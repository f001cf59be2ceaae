"""Command line pipeline: prescreen -> pretrain -> cluster-init -> train-derc
-> evaluate, plus synth and export-latent utilities.

Exit codes: 1 usage error, 2 parse/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import os
import sys
import typing

import numpy as np

from . import autoencoder as ae
from . import cluster as derc_cluster
from . import data as data_io
from . import kmeans as km
from . import metrics as metrics_mod
from . import prescreen as ps
from .config import load_config, stage_seed, write_manifest
from .errors import DercError, NumericError, ParseError, ValidationError
from .network import all_finite


class CliParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a config key that is only a prefix of a flag must not match it
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_dataset(args) -> data_io.Dataset:
    """The --data cohort; a command with a --labels flag needs labels, the
    file's or the CSV's. The dropped feature ids go on args, for main."""
    path = str(args.data)
    series = path.endswith(".txt") or "series_matrix" in os.path.basename(path)
    ds = (data_io.load_series_matrix if series else data_io.load_csv)(path)
    if "labels" in args:
        if args.labels is not None:
            ds.labels = data_io.load_labels(args.labels, ds.n_samples)
        if ds.labels is None:
            raise ValidationError(f"{path}: labels are required (label column or --labels file)")
    args.dropped = ds.dropped_feature_ids
    return ds


def _model_and_data(args, what: str):
    """The --model's params and the --data Dataset, checked to be as wide as its input."""
    params = data_io.load_model(args.model)
    ds = _load_dataset(args)
    if params.input_dim != ds.n_features:
        raise ValidationError(f"{what}: model {args.model} expects {params.input_dim} "
                              f"features, data {args.data} has {ds.n_features}")
    return params, ds


def _stage_config(cls, args, **fixed):
    """`cls` built from the flags set on the command line or in the config file.

    Fields that no flag set keep their dataclass default; `fixed` sets the
    values the command works out itself (k from the centroids, the stage
    seed). Also returns the manifest settings: every field that is not None
    (an unset stop_delta), with the global seed in place of the stage seed.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    given = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    cfg = cls(**{**given, **fixed})
    settings = {n: getattr(cfg, n) for n in names if getattr(cfg, n) is not None}
    if "seed" in settings:
        settings["seed"] = args.seed
    return cfg, settings


def _inputs(args) -> dict[str, str]:
    """The files the command reads, flag -> path: those its parser declares,
    then --labels when it is given."""
    flags = [*args.reads, *(["labels"] if getattr(args, "labels", None) else [])]
    return {flag: getattr(args, flag) for flag in flags}


@contextlib.contextmanager
def _naming(error: type[DercError], args):
    """Re-raise an `error` raised inside with the command's input files
    appended, as `(--flag path, ...)`. For a library call whose `error`s are
    about its inputs' contents; a loader's messages name their file already."""
    try:
        yield
    except error as exc:
        named = ", ".join(f"--{flag} {path}" for flag, path in _inputs(args).items())
        raise type(exc)(f"{exc} ({named})") from exc


# --- subcommands -----------------------------------------------------------


def cmd_prescreen(args):
    ds = _load_dataset(args)
    pcfg, settings = _stage_config(ps.PrescreenConfig, args)
    with _naming(ValidationError, args):
        report = ps.discriminative_filter(ds, pcfg)
    data_io.save_csv(ds.subset_features(report.kept_indices), args.out_data)

    status = {}
    for fid in report.kept_feature_ids:
        status[fid] = "kept"
    for fid in report.removed_by_correlation:
        status[fid] = "removed_correlation"
    for fid in report.removed_by_class_test:
        status[fid] = "removed_class_test"
    p = report.per_feature_pvalues
    rows = ((fid, status[fid], p.get(fid, float("nan"))) for fid in ds.feature_ids)
    data_io.save_table(args.out_report, "feature_id,status,p_value", rows)
    data_io.save_table(args.out_kept, None, [(fid,) for fid in report.kept_feature_ids])

    write_manifest(args.out_data, "prescreen", _inputs(args).values(), settings)
    print(f"kept {len(report.kept_feature_ids)} of {ds.n_features} features "
          f"({len(report.removed_by_correlation)} by correlation, "
          f"{len(report.removed_by_class_test)} by class test)")


def _int_list(raw: str) -> list[int]:
    try:
        return [int(t) for t in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {raw!r}")


def cmd_pretrain(args):
    ds = _load_dataset(args)
    pcfg, settings = _stage_config(ae.PretrainConfig, args,
                                   seed=stage_seed(args.seed, "pretrain"))
    spec = ae.AeSpec(layer_dims=args.dims)
    train = ae.pretrain_ae if args.kind == "ae" else ae.pretrain_vae
    with _naming(ValidationError, args):
        params, history = train(ds.values, spec, pcfg)
    data_io.save_model(args.out, params)
    if args.history:
        data_io.save_table(args.history, "epoch,train_loss,val_loss", history)
    write_manifest(args.out, "pretrain", _inputs(args).values(),
                   dict(settings, kind=args.kind, dims=spec.resolve(ds.n_features)))
    print(f"pretrained {args.kind} for {pcfg.epochs} epochs; "
          f"final train loss {history[-1][1]:.6g}")


def cmd_cluster_init(args):
    params, ds = _model_and_data(args, "cluster-init")
    # kmeans_fit checks this too, but the sample count is the data's, so here
    # it names the files, while its k and restarts messages stay bare
    with _naming(ValidationError, args):
        if args.k > ds.n_samples:
            raise ValidationError(f"need at least k={args.k} samples, got {ds.n_samples}")
    z = ae.encode(params, ds.values)
    with _naming(NumericError, args):
        result = km.kmeans_fit(z, k=args.k, restarts=args.restarts,
                               seed=stage_seed(args.seed, "cluster_init"))
    data_io.save_container(args.out, dict(centroids=result.centroids),
                           dict(kind="centroids", k=args.k, inertia=result.inertia,
                                restarts=args.restarts))
    write_manifest(args.out, "cluster_init", _inputs(args).values(),
                   dict(k=args.k, restarts=args.restarts, seed=args.seed))
    print(f"k-means: k={args.k}, restarts={args.restarts}, "
          f"best inertia {result.inertia:.6g}")


def cmd_train_derc(args):
    params, ds = _model_and_data(args, "train-derc")
    arrays, _ = data_io.load_container(args.centroids)
    if "centroids" not in arrays:
        raise ValidationError(f"{args.centroids}: container holds no centroids")
    centroids = arrays["centroids"]
    if (centroids.dtype.kind not in "fiu" or centroids.ndim != 2
            or centroids.shape[0] < 1 or centroids.shape[1] != params.latent_dim):
        raise ValidationError(
            f"{args.centroids}: centroids are a {centroids.dtype} array of shape "
            f"{centroids.shape}, not a numeric k x {params.latent_dim} matrix, k >= 1")
    if not all_finite(centroids):
        raise ValidationError(f"{args.centroids}: centroids hold a NaN or an inf")
    dcfg, settings = _stage_config(derc_cluster.DercConfig, args,
                                   k=centroids.shape[0],
                                   seed=stage_seed(args.seed, "derc"))
    with _naming(ValidationError, args):
        result = derc_cluster.train_derc(ds.values, params, centroids, dcfg)
    data_io.save_model(args.out, result.params, centroids=result.centroids,
                       extra_meta=dict(beta=dcfg.beta))
    if args.history:
        data_io.save_table(args.history, "iteration,cluster_loss,recon_loss,total_loss",
                           result.history)
    data_io.save_table(args.pred, "sample_id,cluster",
                       zip(ds.sample_ids, result.cluster_ids))
    write_manifest(args.out, "derc", _inputs(args).values(), settings)
    sizes = np.bincount(result.cluster_ids, minlength=dcfg.k)
    print(f"trained DERC (beta={dcfg.beta}); cluster sizes {sizes.tolist()}")


def cmd_evaluate(args):
    # the name is the first field of the report's CSV row, written unquoted
    if any(ch in args.method for ch in ',"\r\n'):
        raise ValidationError(f"--method {args.method!r} holds a comma, a double quote, "
                              f"a CR or an LF, which would break the report's CSV row")
    lines = [(no, ln.strip()) for no, ln in
             enumerate(data_io.read_text(args.pred).splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != "sample_id,cluster":
        raise ParseError(f"{args.pred}: expected header 'sample_id,cluster'")
    pred = {}
    line_of = {}
    for no, ln in lines[1:]:
        sid, _, cid = ln.partition(",")
        sid, cid = sid.strip(), cid.strip()
        # ASCII digits, as train-derc writes them (int() alone would take a
        # sign, an underscore or another script's digits), at most 18, so
        # the id fits an int64
        if not (cid.isascii() and cid.isdigit() and len(cid) <= 18):
            raise ParseError(f"{args.pred}: line {no}: expected 'sample_id,cluster' with "
                             f"a cluster id of 1 to 18 ASCII digits, got {ln!r}")
        if sid in line_of:
            raise ParseError(f"{args.pred}: line {no}: sample_id {sid!r} repeats "
                             f"line {line_of[sid]}")
        pred[sid] = int(cid)
        line_of[sid] = no
    ds = _load_dataset(args)
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
    params, ds = _model_and_data(args, "export-latent")
    with _naming(NumericError, args):
        z = ae.encode(params, ds.values)
        if not all_finite(z):
            raise NumericError("export-latent: the latent matrix holds a NaN or an inf")
    header = ",".join(["sample_id", *(f"z{j}" for j in range(z.shape[1]))])
    data_io.save_table(args.out, header,
                       ([sid, *row] for sid, row in zip(ds.sample_ids, z.tolist())))
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

    def command(name, func, help, reads=(), writes=()):
        # a required --<flag> for each file the command reads or writes; the
        # reads go on args, where _inputs finds them for manifests and _naming
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=0, help="global seed")
        for flag in (*reads, *writes):
            p.add_argument("--" + flag, required=True)
        p.set_defaults(func=func, reads=reads)
        return p

    def settings(p, cls, *fixed):
        # --<field> for each field of cls, typed by its annotation (float | None
        # as float), but seed, the global --seed, and the fields in fixed,
        # which the command works out itself
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.name not in ("seed", *fixed):
                hint = hints[f.name]
                p.add_argument("--" + f.name.replace("_", "-"),
                               type=(typing.get_args(hint) or (hint,))[0])

    p = command("prescreen", cmd_prescreen, "statistical feature filtering",
                reads=("data",), writes=("out-data", "out-report", "out-kept"))
    p.add_argument("--labels", help="labels file when the dataset has no label column")
    settings(p, ps.PrescreenConfig)

    p = command("pretrain", cmd_pretrain, "train the AE or VAE",
                reads=("data",), writes=("out",))
    p.add_argument("kind", choices=["ae", "vae"])
    p.add_argument("--history")
    settings(p, ae.PretrainConfig)
    p.add_argument("--dims", type=_int_list,
                   help="comma list of layer widths, input first")

    p = command("cluster-init", cmd_cluster_init, "K-means centroids on the latent space",
                reads=("model", "data"), writes=("out",))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--restarts", type=int, default=km.DEFAULT_RESTARTS)

    p = command("train-derc", cmd_train_derc, "joint clustering + reconstruction",
                reads=("model", "centroids", "data"), writes=("out", "pred"))
    p.add_argument("--history")
    settings(p, derc_cluster.DercConfig, "k")

    p = command("evaluate", cmd_evaluate, "score predictions against labels",
                reads=("pred", "data"), writes=("out",))
    p.add_argument("--labels")
    p.add_argument("--method", default="derc")
    p.add_argument("--positive-label", type=int, default=1)

    command("export-latent", cmd_export_latent, "write the latent matrix as CSV",
            reads=("model", "data"), writes=("out",))

    p = command("synth", cmd_synth, "generate a synthetic cohort", writes=("out",))
    settings(p, data_io.SynthSpec)

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
        if args.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {args.seed}")
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
    except MemoryError as exc:
        print(f"derc: out of memory: {exc}", file=sys.stderr)
        return 2
    # noted only now, so a command that fails prints its one error alone
    if getattr(args, "dropped", None):
        logging.getLogger("derc").warning("dropped %d all-missing features: %s",
                                          len(args.dropped), ", ".join(args.dropped[:10]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
