"""One workload in one interpreter: timed passes, or the traced run.

    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace 0|1
        --size full|tiny --work DIR --stamp FILE --out FILE

Untraced (prescreen_wide, train_paper): passes run back to back, one
closed-loop client, until another pass would end after --seconds; at least
one runs. Traced (every workload): one untraced pass, then one pass with
derc's public functions wrapped (see spans.py); their wall-time difference
is the tracing overhead. cli_small passes call derc.cli.main in-process.

The derc imports come first, then the time they ended is written to --stamp.
Results go to --out as JSON; run.py turns them into the benchmark's output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from shapes import IMPORTS, SIZES, dense_params, dense_weights, n_batches
from spans import Tracer, span_cost_us

CLI_SUBCOMMANDS = ("synth", "prescreen", "pretrain", "cluster-init", "train-derc",
                   "evaluate", "export-latent")

# (module, function) pairs wrapped in the traced run; span name "<module>.<function>"
TRACED_FUNCTIONS = (
    ("network", "forward_layers"), ("network", "backward_layers"), ("network", "mse_loss"),
    ("autoencoder", "build_ae"), ("autoencoder", "build_vae"), ("autoencoder", "encode"),
    ("autoencoder", "pretrain_ae"), ("autoencoder", "pretrain_vae"),
    ("autoencoder", "vae_loss_and_grads"),
    ("cluster", "soft_assign"), ("cluster", "target_distribution"),
    ("cluster", "cluster_kl_loss"), ("cluster", "train_derc"),
    ("kmeans", "kmeans_fit"), ("metrics", "evaluate"),
    ("prescreen", "correlation_prune"), ("prescreen", "normality_gate"),
    ("prescreen", "class_test"), ("prescreen", "welch_ttest"),
    ("prescreen", "wilcoxon_rank_sum"), ("prescreen", "discriminative_filter"),
    ("data", "load_series_matrix"), ("data", "load_csv"), ("data", "save_csv"),
    ("data", "save_model"), ("data", "load_model"), ("data", "generate_synthetic"),
    ("config", "write_manifest"), ("config", "sha256_file"),
)
TRACED_METHODS = (("network", "SgdMomentum", "step"),)

# per-layer metric -> span names whose inclusive time it sums
LAYER_SECONDS = {
    "network.SgdMomentum.step.s": ("network.SgdMomentum.step",),
    "network.forward_layers.s": ("network.forward_layers",),
    "network.backward_layers.s": ("network.backward_layers",),
    "network.mse_loss.s": ("network.mse_loss",),
    "autoencoder.build.s": ("autoencoder.build_ae", "autoencoder.build_vae"),
    "autoencoder.encode.s": ("autoencoder.encode",),
    "autoencoder.vae_loss_and_grads.s": ("autoencoder.vae_loss_and_grads",),
    "autoencoder.pretrain.s": ("autoencoder.pretrain_ae", "autoencoder.pretrain_vae"),
    "cluster.soft_assign.s": ("cluster.soft_assign",),
    "cluster.cluster_kl_loss.s": ("cluster.cluster_kl_loss",),
    "cluster.train_derc.s": ("cluster.train_derc",),
    "kmeans.kmeans_fit.s": ("kmeans.kmeans_fit",),
    "metrics.evaluate.s": ("metrics.evaluate",),
    "prescreen.correlation_prune.s": ("prescreen.correlation_prune",),
    "prescreen.normality_gate.s": ("prescreen.normality_gate",),
    "prescreen.class_test.s": ("prescreen.class_test",),
    "data.load_series_matrix.s": ("data.load_series_matrix",),
    "data.load_csv.s": ("data.load_csv",),
    "data.save_csv.s": ("data.save_csv",),
    "data.save_model.s": ("data.save_model",),
    "data.load_model.s": ("data.load_model",),
    "config.write_manifest.s": ("config.write_manifest",),
    **{f"cli.{sub}.s": (f"cli.{sub}",) for sub in CLI_SUBCOMMANDS},
}
# per-layer metric -> span names whose self time it sums
LAYER_SELF_SECONDS = {
    "autoencoder.pretrain.self_s": ("autoencoder.pretrain_ae", "autoencoder.pretrain_vae"),
    "cluster.train_derc.self_s": ("cluster.train_derc",),
}
# per-layer metric -> unit, read from the tracer's counters
LAYER_COUNTS = {
    "network.SgdMomentum.step.calls": "count",
    "autoencoder.encode.calls": "count",
    "cluster.target_distribution.calls": "count",
    "prescreen.class_test.calls": "count",
    "prescreen.welch_ttest.calls": "count",
    "prescreen.wilcoxon_exact.calls": "count",
    "prescreen.wilcoxon_approx.calls": "count",
    "data.cells_parsed": "count",
    "config.sha256_file.bytes": "B",
}
# work derived from shapes, not measured
COMPUTED = {
    "computed.matmul_flop_per_step": "flop",
    "computed.optimizer_min_bytes_per_step": "B",
}
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
}


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    return [*((n, "s") for n in LAYER_SECONDS), *((n, "s") for n in LAYER_SELF_SECONDS),
            *LAYER_COUNTS.items(), *COMPUTED.items(), *TRACE_METRICS.items()]


def step_work(dims: list[int], batch_size: int) -> dict[str, int]:
    """Matmul FLOPs of one AE step (forward + both backward products) and
    the minimum bytes an SGD-momentum update touches: read p, g, v; write p, v."""
    return {
        "computed.matmul_flop_per_step": 6 * batch_size * dense_weights(dims),
        "computed.optimizer_min_bytes_per_step": 5 * 8 * dense_params(dims),
    }


# --- workloads ---------------------------------------------------------------


class PrescreenWide:
    """load_series_matrix, then discriminative_filter, on the wide GEO file."""

    def __init__(self, inputs: Path):
        self.path = inputs / "series_matrix.txt"
        self.labels = [int(t) for t in (inputs / "labels.txt").read_text().split()]
        self.planted = json.loads((inputs / "planted.json").read_text())
        self.dims = None

    def run(self, out: Path, span) -> dict:
        import numpy as np
        from derc import data, prescreen

        t0 = time.perf_counter()
        ds = data.load_series_matrix(str(self.path))
        ds.labels = np.asarray(self.labels)
        ds.validate()
        t1 = time.perf_counter()
        report = prescreen.discriminative_filter(ds, prescreen.PrescreenConfig())
        t2 = time.perf_counter()
        pvalues = np.fromiter(report.per_feature_pvalues.values(), dtype=float)
        removed = set(report.removed_by_correlation)
        missed = [fid for group in self.planted["duplicate_groups"] for fid in group[1:]
                  if fid not in removed]
        return {
            "wall": t2 - t0,
            "ops": 2,
            "stages": {"load_s": t1 - t0, "prescreen_s": t2 - t1},
            "repeat": report.kept_feature_ids,
            "checks": [
                ("p-values in [0, 1]", bool(np.all((pvalues >= 0) & (pvalues <= 1))),
                 f"{len(pvalues)} p-values"),
                ("planted duplicates removed", not missed, f"missed {missed[:5]}"),
                ("some features kept", bool(report.kept_feature_ids),
                 f"{len(report.kept_feature_ids)} kept"),
            ],
        }

    def expected_calls(self, counters) -> list[tuple[str, int, int]]:
        survivors = counters["prescreen.correlation_prune.survivors"]
        return [("class_test calls == pruning survivors",
                 counters["prescreen.class_test.calls"], survivors)]


class TrainPaper:
    """1 AE epoch, encode + 80-restart K-means, 1 DERC epoch at paper widths."""

    def __init__(self, seed: int, s: dict, size: str):
        import gen

        self.seed = seed
        self.s = s
        self.x, self.labels = gen.paper_cohort(seed, size)
        self.dims = [s["n_features"], *s["hidden"]]
        self.steps = n_batches(s["n_samples"], s["batch_size"]) * s["epochs"]

    def run(self, out: Path, span) -> dict:
        import numpy as np
        from derc import autoencoder as ae, cluster, kmeans, metrics

        s = self.s
        t0 = time.perf_counter()
        params, history = ae.pretrain_ae(
            self.x, ae.AeSpec(list(self.dims)),
            ae.PretrainConfig(epochs=s["epochs"], batch_size=s["batch_size"], seed=self.seed))
        t1 = time.perf_counter()
        z = ae.encode(params, self.x)
        init = kmeans.kmeans_fit(z, k=2, restarts=s["restarts"], seed=self.seed)
        t2 = time.perf_counter()
        result = cluster.train_derc(
            self.x, params, init.centroids,
            cluster.DercConfig(epochs=s["epochs"], batch_size=s["batch_size"],
                               target_interval=s["target_interval"], k=2, seed=self.seed))
        t3 = time.perf_counter()
        report = metrics.evaluate(self.labels, result.cluster_ids)
        t4 = time.perf_counter()
        losses = [row[1] for row in history] + [v for row in result.history for v in row[1:]]
        return {
            "wall": t4 - t0,
            "ops": 5,
            "stages": {
                "pretrain_step_ms": (t1 - t0) / self.steps * 1e3,
                "derc_step_ms": (t3 - t2) / self.steps * 1e3,
                "recon_mse": result.history[-1][2],
                "acc": report.acc,
            },
            "repeat": result.cluster_ids.tolist(),
            "checks": [
                ("losses finite", bool(np.all(np.isfinite(losses))), f"{len(losses)} losses"),
                ("pretrain history rows == epochs", len(history) == s["epochs"],
                 f"{len(history)} rows"),
                ("derc history rows == steps", len(result.history) == self.steps,
                 f"{len(result.history)} rows for {self.steps} steps"),
            ],
        }

    def expected_calls(self, counters) -> list[tuple[str, int, int]]:
        refreshes = math.ceil(self.steps / self.s["target_interval"])
        return [
            ("optimizer steps", counters["network.SgdMomentum.step.calls"], 2 * self.steps),
            ("target refreshes + final",
             counters["cluster.target_distribution.calls"], refreshes + 1),
            ("encode calls", counters["autoencoder.encode.calls"], refreshes + 2),
        ]


class CliSmall:
    """The cli_small stages through derc.cli.main, in this interpreter."""

    def __init__(self, seed: int, s: dict, inputs: Path):
        self.seed, self.s, self.inputs = seed, s, inputs
        self.dims = None

    def run(self, out: Path, span) -> dict:
        import cli_plan
        from derc import cli

        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        for ops, stage in enumerate(cli_plan.STAGES, start=1):
            argv = cli_plan.argv(stage, self.seed, self.inputs, out, self.s)
            with span(f"cli.{argv[0]}"):
                code = cli.main(argv)
            if code != 0:
                return {"wall": time.perf_counter() - t0, "ops": ops, "stages": {},
                        "repeat": None, "failed_ops": 1,
                        "checks": [(f"stage {stage} exit 0", False, f"exit {code}")]}
        wall = time.perf_counter() - t0
        self.dims = cli_plan.derived_dims(out, self.s)
        return {
            "wall": wall,
            "ops": len(cli_plan.STAGES),
            "stages": {"acc": cli_plan.report_acc(out)},
            "repeat": {k: v.decode() for k, v in cli_plan.read_outputs(out).items()},
            "checks": cli_plan.check_outputs(out, self.s),
        }

    def expected_calls(self, counters) -> list[tuple[str, int, int]]:
        s = self.s
        nb = n_batches(s["n_samples"], s["batch_size"])
        derc_steps = nb * s["derc_epochs"]
        refreshes = math.ceil(derc_steps / s["target_interval"])
        return [
            ("optimizer steps", counters["network.SgdMomentum.step.calls"],
             2 * nb * s["pretrain_epochs"] + derc_steps),
            ("target refreshes + final",
             counters["cluster.target_distribution.calls"], refreshes + 1),
            ("class_test calls == pruning survivors", counters["prescreen.class_test.calls"],
             counters["prescreen.correlation_prune.survivors"]),
        ]


def make_workload(name: str, seed: int, size: str, inputs: Path):
    s = SIZES[size][name]
    if name == "prescreen_wide":
        return PrescreenWide(inputs)
    if name == "train_paper":
        return TrainPaper(seed, s, size)
    return CliSmall(seed, s, inputs)


# --- tracing -----------------------------------------------------------------


def _count_cells(counters, args, result) -> None:
    counters["data.cells_parsed"] += int(result.values.size)


def _count_hashed(counters, args, result) -> None:
    counters["config.sha256_file.bytes"] += os.path.getsize(args[0])


def _count_survivors(counters, args, result) -> None:
    counters["prescreen.correlation_prune.survivors"] += len(result[0])


def _count_wilcoxon_path(counters, args, result) -> None:
    """Which p-value path wilcoxon_rank_sum took, from its inputs."""
    import numpy as np
    from derc import prescreen

    a, b = np.asarray(args[0]), np.asarray(args[1])
    if np.ptp(np.concatenate([a, b])) == 0.0:
        path = "tied"
    elif len(a) <= prescreen.EXACT_WILCOXON_MAX and len(b) <= prescreen.EXACT_WILCOXON_MAX:
        path = "exact"
    else:
        path = "approx"
    counters[f"prescreen.wilcoxon_{path}.calls"] += 1


ON_RESULT = {
    "data.load_series_matrix": _count_cells,
    "data.load_csv": _count_cells,
    "config.sha256_file": _count_hashed,
    "prescreen.correlation_prune": _count_survivors,
    "prescreen.wilcoxon_rank_sum": _count_wilcoxon_path,
}


def install(tracer) -> None:
    importlib.import_module("derc.cli")  # loads every derc module
    for mod_name, attr in TRACED_FUNCTIONS:
        name = f"{mod_name}.{attr}"
        module = sys.modules[f"derc.{mod_name}"]
        tracer.patch_function(module, attr, name, ON_RESULT.get(name))
    for mod_name, cls_name, attr in TRACED_METHODS:
        cls = getattr(sys.modules[f"derc.{mod_name}"], cls_name)
        tracer.patch_method(cls, attr, f"{mod_name}.{cls_name}.{attr}")


def layer_metrics(tracer: Tracer, summary: dict, traced_wall: float,
                  untraced_wall: float, work: dict) -> dict:
    def total(names, key):
        return sum(summary.get(n, {}).get(key, 0.0) for n in names)

    values = {
        **{m: total(names, "s") for m, names in LAYER_SECONDS.items()},
        **{m: total(names, "self_s") for m, names in LAYER_SELF_SECONDS.items()},
        **{m: tracer.counters[m] for m in LAYER_COUNTS},
        **work,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": summary["workload"]["self_s"],
        "trace.spans": len(tracer.spans),
        "trace.span_cost_us": span_cost_us(),
    }
    return {m: {"value": values[m], "unit": unit} for m, unit in per_layer_spec()}


# --- passes ------------------------------------------------------------------


def _pass_checks(result: dict, first: dict | None) -> list:
    checks = list(result["checks"])
    if first is not None and result["repeat"] is not None:
        checks.append(("outputs repeat across passes", result["repeat"] == first["repeat"], ""))
    return checks


def run_untraced(wl, args, work: Path) -> dict:
    passes, checks = [], []
    t_start = time.monotonic()
    while True:
        res = wl.run(work / "out", nullcontext)
        checks += _pass_checks(res, passes[0] if passes else None)
        passes.append(res)
        if res.get("failed_ops"):
            break
        median = statistics.median(p["wall"] for p in passes)
        if time.monotonic() - t_start + median > args.seconds:
            break
    return {"passes": passes, "checks": checks}


def run_traced(wl, args, work: Path) -> dict:
    import numpy as np
    import scipy

    import envinfo

    working_set = 4 * envinfo.llc_bytes() if args.size == "full" else 64 << 20
    env = envinfo.environment(args.root, np, scipy, bandwidth_bytes=working_set)

    untraced = wl.run(work / "pass0", nullcontext)
    checks = _pass_checks(untraced, None)
    if untraced.get("failed_ops"):
        return {"passes": [untraced], "checks": checks, "env": env}

    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("workload") as root_span:
            traced = wl.run(work / "pass1", tracer.span)
    finally:
        tracer.restore()
    tracer.dump(work / "spans.jsonl")
    checks += _pass_checks(traced, untraced)

    for what, got, want in wl.expected_calls(tracer.counters):
        checks.append((f"traced {what}", got == want, f"{got} calls, expected {want}"))
    summary = tracer.summary()
    self_total = sum(v["self_s"] for v in summary.values())
    wall = root_span[3] - root_span[2]
    checks.append(("span self times add up to the traced wall",
                   abs(self_total - wall) <= 1e-6, f"{self_total} vs {wall}"))

    work = step_work(wl.dims, wl.s["batch_size"]) if wl.dims else dict.fromkeys(COMPUTED, 0)
    metrics = layer_metrics(tracer, summary, wall, untraced["wall"], work)
    counted = {k: int(v) for k, v in sorted(tracer.counters.items())}
    return {"passes": [untraced, traced], "checks": checks, "env": env,
            "metrics": metrics, "counters": counted}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(IMPORTS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--stamp", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    for name in IMPORTS[args.workload]:
        importlib.import_module(name)
    args.stamp.write_text(repr(time.monotonic()))
    args.root = Path.cwd()

    try:
        wl = make_workload(args.workload, args.seed, args.size, args.work / "inputs")
        result = (run_traced if args.trace else run_untraced)(wl, args, args.work)
    except Exception:
        traceback.print_exc()
        result = {"passes": [], "checks": [("workload raised", False,
                                             traceback.format_exc(limit=3))]}
    result["checks"] = [list(c) for c in result["checks"]]
    for p in result["passes"]:
        p.pop("repeat", None)
        p.pop("checks", None)
    args.out.write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
